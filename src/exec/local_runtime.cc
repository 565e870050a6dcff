#include "exec/local_runtime.h"

#include <future>
#include <memory>
#include <numeric>

#include "common/logging.h"
#include "dynamic/sampling_input_provider.h"
#include "obs/scope.h"
#include "prof/prof.h"
#include "tpch/lineitem.h"

namespace dmr::exec {

using mapred::InputSplit;
using mapred::SplitId;

LocalRuntime::LocalRuntime(LocalRunOptions options) : options_(options) {
  DMR_CHECK_GT(options_.num_threads, 0);
}

Result<LocalRuntime::PartitionOutput> LocalRuntime::RunMapTask(
    const tpch::ColumnarPartition& partition, const expr::ExprPtr& predicate,
    uint64_t k) const {
  PartitionOutput out;
  const uint32_t num_rows = partition.num_rows();
  const uint64_t cap = k == 0 ? num_rows : k;
  if (!predicate) {
    // No WHERE clause: every record is a candidate (up to the per-map cap).
    out.records_seen = num_rows;
    out.records_matched = num_rows;
    out.rows_physical = num_rows;
    for (uint32_t row = 0; row < num_rows && out.emitted.size() < cap;
         ++row) {
      out.emitted.push_back(partition.TupleAt(row));
    }
    return out;
  }
  sampling::SamplingMapper mapper(predicate, &tpch::LineItemSchema(), cap);
  for (uint32_t row = 0; row < num_rows; ++row) {
    DMR_ASSIGN_OR_RETURN(bool matched,
                         mapper.Map(partition.TupleAt(row), &out.emitted));
    (void)matched;
  }
  out.records_seen = mapper.records_seen();
  out.records_matched = mapper.records_matched();
  out.rows_physical = out.records_seen;  // the interpreter never prunes
  return out;
}

Result<LocalRuntime::PartitionOutput> LocalRuntime::RunMapTaskVectorized(
    const tpch::ColumnarPartition& partition, uint32_t partition_id,
    const PredicateProgram* program, uint64_t k) const {
  PartitionOutput out;
  const uint64_t num_rows = partition.num_rows();
  const uint64_t cap = k == 0 ? num_rows : k;
  if (!program) {
    // No WHERE clause: every record is a candidate (up to the per-map cap).
    out.records_seen = num_rows;
    out.records_matched = num_rows;
    out.rows_physical = num_rows;
    const uint32_t limit = static_cast<uint32_t>(std::min(cap, num_rows));
    out.refs.reserve(limit);
    for (uint32_t row = 0; row < limit; ++row) {
      out.refs.push_back(sampling::RowRef{partition_id, row});
    }
    return out;
  }
  static const prof::PhaseId kScanPhase =
      prof::RegisterPhase("exec", "vectorized_scan");
  static const prof::PhaseId kPrunePhase =
      prof::RegisterPhase("exec", "zone_prune");
  prof::ScopedTimer prof_frame(kScanPhase);
  BoundPredicate bound(program, &partition);
  std::vector<uint32_t> matches;
  if (!options_.zone_map_pruning) {
    DMR_RETURN_NOT_OK(bound.FilterAll(&matches));
    out.rows_physical = num_rows;
  } else {
    prof::ScopedTimer prune_frame(kPrunePhase);
    // Adaptive-layout path (DESIGN.md §16). Whatever gets skipped, the
    // SamplingMapper below still sees `num_rows` records and exactly the
    // rows a full scan would have matched, so every downstream counter and
    // RNG draw is byte-identical to the unpruned run.
    LayoutCatalog* catalog = options_.layout_catalog;
    const PartitionIndex* index =
        catalog != nullptr ? catalog->Find(partition_id) : nullptr;
    const uint32_t rows32 = static_cast<uint32_t>(num_rows);
    switch (bound.EvaluateZoneMap(partition.zone_map())) {
      case PruneVerdict::kNoMatch:
        out.partitions_pruned = 1;
        break;
      case PruneVerdict::kAllMatch:
        out.partitions_pruned = 1;
        matches.reserve(rows32);
        for (uint32_t row = 0; row < rows32; ++row) matches.push_back(row);
        break;
      case PruneVerdict::kMaybe:
        if (index != nullptr) {
          out.index_hit = 1;
          for (const tpch::ZoneMap& zm : index->batches) {
            switch (bound.EvaluateZoneMap(zm)) {
              case PruneVerdict::kNoMatch:
                ++out.batches_pruned;
                break;
              case PruneVerdict::kAllMatch:
                ++out.batches_pruned;
                for (uint32_t row = zm.row_begin; row < zm.row_end; ++row) {
                  matches.push_back(row);
                }
                break;
              case PruneVerdict::kMaybe:
                out.rows_physical += zm.rows();
                DMR_RETURN_NOT_OK(
                    bound.FilterRange(zm.row_begin, zm.row_end, &matches));
                break;
            }
          }
        } else {
          // First undecided scan: full filter, and piggyback the per-batch
          // index for repeated predicates on this partition.
          out.rows_physical = num_rows;
          DMR_RETURN_NOT_OK(bound.FilterAll(&matches));
          if (catalog != nullptr &&
              catalog->Register(partition_id,
                                BuildPartitionIndex(
                                    partition, kVectorBatchRows,
                                    program->ZoneMapColumnsUsed()))) {
            out.index_built = 1;
          }
        }
        break;
    }
  }
  sampling::SamplingMapper mapper(nullptr, &tpch::LineItemSchema(), cap);
  mapper.MapMatches(num_rows, matches, partition_id, &out.refs);
  out.records_seen = mapper.records_seen();
  out.records_matched = mapper.records_matched();
  return out;
}

Result<LocalRunResult> LocalRuntime::Execute(
    const hive::CompiledQuery& query,
    const tpch::MaterializedDataset& dataset,
    const dynamic::GrowthPolicy& policy) {
  LocalRunResult result;
  result.partitions_total = static_cast<int>(dataset.partitions.size());

  // Fabricate splits describing the in-memory partitions (the provider only
  // reads metadata, never ground truth).
  auto splits = std::make_shared<mapred::SplitTable>();
  splits->Reserve(dataset.partitions.size(), dataset.partitions.size());
  for (size_t i = 0; i < dataset.partitions.size(); ++i) {
    InputSplit split;
    split.index = static_cast<int>(i);
    split.num_records = dataset.partitions[i].num_rows();
    split.size_bytes = split.num_records * tpch::kLineItemRecordBytes;
    splits->Add(split);
  }

  const bool vectorized = options_.engine == Engine::kVectorized;
  std::unique_ptr<PredicateProgram> program;
  if (vectorized && query.predicate) {
    DMR_ASSIGN_OR_RETURN(PredicateProgram compiled,
                         PredicateProgram::Compile(*query.predicate));
    program = std::make_unique<PredicateProgram>(std::move(compiled));
  }
  const uint64_t k = query.limit;
  mapred::ClusterStatus status;
  status.total_map_slots = options_.num_threads;
  status.occupied_map_slots = 0;
  status.running_jobs = 1;

  std::unique_ptr<dynamic::SamplingInputProvider> provider;
  if (query.is_sampling()) {
    provider = std::make_unique<dynamic::SamplingInputProvider>(
        policy, options_.seed);
    DMR_RETURN_NOT_OK(provider->Initialize(splits, query.conf));
  }

  mapred::JobProgress progress;
  progress.splits_total = static_cast<int>(splits->size());
  std::vector<expr::Tuple> candidates;
  std::vector<sampling::RowRef> ref_candidates;

  auto process_batch = [&](const std::vector<SplitId>& batch) -> Status {
    // Fan the batch out in waves of at most num_threads workers.
    for (size_t base = 0; base < batch.size();
         base += static_cast<size_t>(options_.num_threads)) {
      size_t wave_end = std::min(
          batch.size(), base + static_cast<size_t>(options_.num_threads));
      std::vector<std::future<Result<PartitionOutput>>> futures;
      futures.reserve(wave_end - base);
      for (size_t b = base; b < wave_end; ++b) {
        const int index = (*splits)[batch[b]].index;
        futures.push_back(std::async(
            std::launch::async,
            [this, &partition = dataset.partitions[index], index, &query, k,
             vectorized, prog = program.get()]() -> Result<PartitionOutput> {
              if (vectorized) {
                return RunMapTaskVectorized(
                    partition, static_cast<uint32_t>(index), prog, k);
              }
              return RunMapTask(partition, query.predicate, k);
            }));
      }
      for (auto& future : futures) {
        Result<PartitionOutput> out = future.get();
        if (!out.ok()) return out.status();
        progress.maps_completed += 1;
        progress.records_processed += out->records_seen;
        progress.output_records += out->emitted.size() + out->refs.size();
        result.records_scanned += out->records_seen;
        result.partitions_processed += 1;
        result.rows_physically_scanned += out->rows_physical;
        result.partitions_pruned += out->partitions_pruned;
        result.batches_pruned += out->batches_pruned;
        result.index_builds += out->index_built;
        result.index_hits += out->index_hit;
        for (auto& tuple : out->emitted) {
          candidates.push_back(std::move(tuple));
        }
        for (sampling::RowRef ref : out->refs) {
          ref_candidates.push_back(ref);
        }
      }
    }
    return Status::OK();
  };

  if (query.is_sampling()) {
    mapred::InputResponse response = provider->GetInitialInput(status);
    while (response.kind == mapred::InputResponseKind::kInputAvailable) {
      ++result.provider_rounds;
      progress.splits_added += static_cast<int>(response.splits.size());
      DMR_RETURN_NOT_OK(process_batch(response.splits));
      progress.pending_records = 0;  // rounds are synchronous
      response = provider->Evaluate(progress, status);
      if (response.kind == mapred::InputResponseKind::kNoInputAvailable) {
        // Unreachable for a starved synchronous job; guard anyway.
        return Status::Internal(
            "provider returned no-input-available for a starved job");
      }
    }
    result.estimated_selectivity = provider->estimated_selectivity();
  } else {
    ++result.provider_rounds;
    progress.splits_added = static_cast<int>(splits->size());
    std::vector<SplitId> all(splits->size());
    std::iota(all.begin(), all.end(), SplitId{0});
    DMR_RETURN_NOT_OK(process_batch(all));
    if (progress.records_processed > 0) {
      result.estimated_selectivity =
          static_cast<double>(progress.output_records) /
          static_cast<double>(progress.records_processed);
    }
  }

  result.candidate_records = candidates.size() + ref_candidates.size();

  if (options_.obs != nullptr) {
    obs::Scope* s = options_.obs;
    s->Count(s->m().exec_partitions_pruned,
             static_cast<int64_t>(result.partitions_pruned));
    s->Count(s->m().exec_batches_pruned,
             static_cast<int64_t>(result.batches_pruned));
    s->Count(s->m().exec_rows_skipped,
             static_cast<int64_t>(result.records_scanned -
                                  result.rows_physically_scanned));
    s->Count(s->m().exec_index_builds,
             static_cast<int64_t>(result.index_builds));
    s->Count(s->m().exec_index_hits,
             static_cast<int64_t>(result.index_hits));
  }

  // Reduce phase: trim to k (Algorithm 2) and project. The vectorized path
  // reduces positions and materializes only the final sample's projected
  // columns; both reducers consume the RNG stream identically, so the two
  // engines select the same rows.
  if (vectorized) {
    std::vector<sampling::RowRef> final_refs;
    if (query.is_sampling()) {
      sampling::RefSamplingReducer reducer(k, options_.sample_mode,
                                           options_.seed);
      for (sampling::RowRef ref : ref_candidates) reducer.Add(ref);
      final_refs = reducer.Finish();
    } else {
      final_refs = std::move(ref_candidates);
    }
    result.rows.reserve(final_refs.size());
    for (sampling::RowRef ref : final_refs) {
      const tpch::ColumnarPartition& part = dataset.partitions[ref.partition];
      expr::Tuple projected;
      projected.reserve(query.projection.size());
      for (int index : query.projection) {
        projected.push_back(part.ValueAt(index, ref.row));
      }
      result.rows.push_back(std::move(projected));
    }
    return result;
  }

  std::vector<expr::Tuple> reduced;
  if (query.is_sampling()) {
    sampling::SamplingReducer reducer(k, options_.sample_mode,
                                      options_.seed);
    for (auto& tuple : candidates) reducer.Add(std::move(tuple));
    reduced = reducer.Finish();
  } else {
    reduced = std::move(candidates);
  }

  result.rows.reserve(reduced.size());
  for (const auto& tuple : reduced) {
    expr::Tuple projected;
    projected.reserve(query.projection.size());
    for (int index : query.projection) projected.push_back(tuple[index]);
    result.rows.push_back(std::move(projected));
  }
  return result;
}

}  // namespace dmr::exec
