#include "exec/local_runtime.h"

#include <algorithm>
#include <memory>
#include <numeric>

#include "common/logging.h"
#include "dynamic/sampling_input_provider.h"
#include "exec/parallel.h"
#include "obs/book.h"
#include "prof/prof.h"
#include "tpch/lineitem.h"

namespace dmr::exec {

using mapred::InputSplit;
using mapred::SplitId;

LocalRuntime::LocalRuntime(LocalRunOptions options) : options_(options) {
  DMR_CHECK_GT(options_.num_threads, 0);
}

Result<LocalRuntime::PartitionOutput> LocalRuntime::RunMapTask(
    const tpch::ColumnarPartition& partition, uint32_t partition_id,
    const expr::Expression* predicate, const PredicateProgram* program,
    uint64_t k) const {
  static const prof::PhaseId kScanPhase =
      prof::RegisterPhase("exec", "vectorized_scan");
  static const prof::PhaseId kPrunePhase =
      prof::RegisterPhase("exec", "zone_prune");
  PartitionOutput out;
  const uint32_t num_rows = partition.num_rows();
  out.rows_physical = num_rows;
  // The engines differ only in how they find the ascending matching rows.
  std::vector<uint32_t> matches;
  auto match_range = [&matches](uint32_t begin, uint32_t end) {
    const size_t old_size = matches.size();
    matches.resize(old_size + (end - begin));
    std::iota(matches.begin() + static_cast<std::ptrdiff_t>(old_size),
              matches.end(), begin);
  };
  if (predicate == nullptr) {
    // No WHERE clause: every record matches.
    match_range(0, num_rows);
  } else if (program == nullptr) {
    // Interpreted engine, the oracle: the expression tree per row.
    for (uint32_t row = 0; row < num_rows; ++row) {
      DMR_ASSIGN_OR_RETURN(bool matched,
                           expr::EvaluatePredicate(*predicate,
                                                   tpch::LineItemSchema(),
                                                   partition.TupleAt(row)));
      if (matched) matches.push_back(row);
    }
  } else {
    prof::ScopedTimer scan_frame(kScanPhase);
    BoundPredicate bound(program, &partition);
    LayoutCatalog* catalog = options_.layout_catalog;
    if (catalog == nullptr) {
      DMR_RETURN_NOT_OK(bound.FilterAll(&matches));
    } else {
      // Adaptive-layout path (DESIGN.md §16). Whatever gets skipped,
      // `matches` ends up exactly the rows a full scan matches, so every
      // downstream counter and RNG draw is byte-identical to a full scan.
      prof::ScopedTimer prune_frame(kPrunePhase);
      const PartitionIndex* index = catalog->Find(partition_id);
      const PruneVerdict verdict = bound.EvaluateZoneMap(partition.zone_map());
      if (verdict != PruneVerdict::kMaybe) {
        out.partitions_pruned = 1;
        out.rows_physical = 0;
        if (verdict == PruneVerdict::kAllMatch) match_range(0, num_rows);
      } else if (index != nullptr) {
        out.index_hit = 1;
        out.rows_physical = 0;
        for (const tpch::ZoneMap& zm : index->batches) {
          switch (bound.EvaluateZoneMap(zm)) {
            case PruneVerdict::kNoMatch:
              ++out.batches_pruned;
              break;
            case PruneVerdict::kAllMatch:
              ++out.batches_pruned;
              match_range(zm.row_begin, zm.row_end);
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
        DMR_RETURN_NOT_OK(bound.FilterAll(&matches));
        if (catalog->Register(partition_id,
                              BuildPartitionIndex(
                                  partition, kVectorBatchRows,
                                  program->ZoneMapColumnsUsed()))) {
          out.index_built = 1;
        }
      }
    }
  }
  sampling::SamplingMapper mapper(nullptr, &tpch::LineItemSchema(),
                                  k == 0 ? num_rows : k);
  mapper.MapMatches(num_rows, matches, partition_id, &out.candidates);
  out.records_seen = mapper.records_seen();
  out.records_matched = mapper.records_matched();
  return out;
}

Result<LocalRunResult> LocalRuntime::Execute(
    const hive::CompiledQuery& query,
    const tpch::MaterializedDataset& dataset,
    const dynamic::GrowthPolicy& policy) {
  LocalRunResult result;
  const int num_partitions = static_cast<int>(dataset.partitions.size());
  result.partitions_total = num_partitions;

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

  std::unique_ptr<PredicateProgram> program;
  if (options_.engine == Engine::kVectorized && query.predicate) {
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
  std::vector<sampling::RowRef> candidates;
  ThreadPool pool(std::max(1, std::min(options_.num_threads, num_partitions)));

  // Runs one map task per granted split on the pool and retires the outputs
  // in grant order, so the provider sees the same progress on any schedule.
  auto process_batch = [&](const std::vector<SplitId>& batch) -> Status {
    DMR_ASSIGN_OR_RETURN(
        std::vector<PartitionOutput> outputs,
        ParallelMap<PartitionOutput>(
            &pool, batch.size(), [&](size_t b) -> Result<PartitionOutput> {
              const int index = (*splits)[batch[b]].index;
              return RunMapTask(dataset.partitions[index],
                                static_cast<uint32_t>(index),
                                query.predicate.get(), program.get(), k);
            }));
    for (const PartitionOutput& out : outputs) {
      progress.maps_completed += 1;
      progress.records_processed += out.records_seen;
      progress.output_records += out.candidates.size();
      result.records_scanned += out.records_seen;
      result.partitions_processed += 1;
      result.rows_physically_scanned += out.rows_physical;
      result.partitions_pruned += out.partitions_pruned;
      result.batches_pruned += out.batches_pruned;
      result.index_builds += out.index_built;
      result.index_hits += out.index_hit;
      candidates.insert(candidates.end(), out.candidates.begin(),
                        out.candidates.end());
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

  result.candidate_records = candidates.size();

  if (options_.obs != nullptr) {
    obs::Cell* s = options_.obs;
    s->Count(obs::Counter::kExecPartitionsPruned,
             static_cast<int64_t>(result.partitions_pruned));
    s->Count(obs::Counter::kExecBatchesPruned,
             static_cast<int64_t>(result.batches_pruned));
    s->Count(obs::Counter::kExecRowsSkipped,
             static_cast<int64_t>(result.records_scanned -
                                  result.rows_physically_scanned));
    s->Count(obs::Counter::kExecIndexBuilds,
             static_cast<int64_t>(result.index_builds));
    s->Count(obs::Counter::kExecIndexHits,
             static_cast<int64_t>(result.index_hits));
  }

  // Reduce phase: trim the positions to k (Algorithm 2), then materialize
  // only the final sample's projected columns.
  if (query.is_sampling()) {
    sampling::RefSamplingReducer reducer(k, options_.sample_mode,
                                         options_.seed);
    for (sampling::RowRef ref : candidates) reducer.Add(ref);
    candidates = reducer.Finish();
  }
  result.rows.reserve(candidates.size());
  for (sampling::RowRef ref : candidates) {
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

}  // namespace dmr::exec
