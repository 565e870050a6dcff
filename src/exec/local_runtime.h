#ifndef DMR_EXEC_LOCAL_RUNTIME_H_
#define DMR_EXEC_LOCAL_RUNTIME_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "dynamic/growth_policy.h"
#include "exec/layout_catalog.h"
#include "exec/vectorized.h"
#include "expr/expression.h"
#include "hive/compiler.h"
#include "sampling/sampler.h"
#include "tpch/generator.h"

namespace dmr::obs {
class Cell;
}  // namespace dmr::obs

namespace dmr::exec {

/// \brief Options for local execution.
struct LocalRunOptions {
  /// "Map slots" of the local mini-cluster: the provider sees this many
  /// slots, and each Execute runs its map tasks on a ThreadPool of
  /// max(1, min(num_threads, partitions)) workers.
  int num_threads = 4;
  /// Reduce-side trim mode (Algorithm 2 or the footnote's reservoir).
  sampling::SampleMode sample_mode = sampling::SampleMode::kFirstK;
  uint64_t seed = 7;
  /// Predicate engine for the record-level scan. Both scan the dataset's
  /// columnar partitions and produce the same result rows in the same order
  /// for the same (seed, dataset). The interpreted engine remains as the
  /// correctness oracle: it evaluates the expression tree per row over
  /// ColumnarPartition::TupleAt.
  Engine engine = Engine::kVectorized;
  /// Zone-map pruning with piggybacked adaptive indexing (DESIGN.md §16,
  /// Richter et al.), vectorized engine only; null scans every row. When
  /// set, a map task skips partitions and batches whose zone maps prove the
  /// predicate cannot match, and the first full scan of a partition
  /// registers its per-batch zone maps here, so repeated predicates scan
  /// only qualifying batches. Match counts, sampled rows and the provider's
  /// counter stream are byte-identical either way: a pruned partition still
  /// reports its rows as seen. The catalog must outlive the runtime and
  /// belong to this dataset.
  LayoutCatalog* layout_catalog = nullptr;
  /// Observability cell for the exec.* pruning/indexing counters
  /// (null = off, the usual zero-overhead contract).
  obs::Cell* obs = nullptr;
};

/// \brief Outcome of a local run.
struct LocalRunResult {
  /// Projected result rows (sample rows for LIMIT queries).
  std::vector<expr::Tuple> rows;
  uint64_t records_scanned = 0;
  /// Map-output records (candidates that reached the reducer).
  uint64_t candidate_records = 0;
  int partitions_processed = 0;
  int partitions_total = 0;
  /// Input-provider invocations (rounds of incremental growth).
  int provider_rounds = 0;
  /// Final selectivity estimate (-1 when nothing was processed).
  double estimated_selectivity = -1.0;
  /// Physical-cost counters of the adaptive-layout path. records_scanned
  /// above is the logical count (unchanged by pruning); this is what the
  /// engine actually touched. Equal to records_scanned without a layout
  /// catalog.
  uint64_t rows_physically_scanned = 0;
  /// Partitions skipped whole (or resolved whole) by the partition-level
  /// zone map.
  uint64_t partitions_pruned = 0;
  /// Batches skipped (or resolved) by a piggybacked per-batch index.
  uint64_t batches_pruned = 0;
  /// Piggybacked indexes registered by this run's first scans.
  uint64_t index_builds = 0;
  /// Map tasks that consumed a previously registered index.
  uint64_t index_hits = 0;
};

/// \brief Executes compiled queries over materialized datasets on the local
/// machine — the record-level counterpart of the cluster simulator.
///
/// Sampling queries run the paper's exact loop, synchronously: the Input
/// Provider picks an initial uniform batch of partitions, a ThreadPool
/// applies Algorithm 1 to each granted partition and retires the outputs in
/// grant order, and the provider is re-evaluated with the accumulated
/// counters until it declares end-of-input; Algorithm 2 then trims the
/// candidates to k. Both engines ship candidates as RowRef positions, and
/// only the final sample's projected columns are read back. Because rounds
/// are synchronous, the policy's EvaluationInterval and WorkThreshold do not
/// apply here — only its GrabLimit shapes the growth (with AS = idle map
/// slots).
class LocalRuntime {
 public:
  explicit LocalRuntime(LocalRunOptions options);

  /// Executes `query` over `dataset` (sampling when query.limit > 0, full
  /// select-project scan otherwise). The policy's GrabLimit drives growth
  /// for sampling queries.
  Result<LocalRunResult> Execute(const hive::CompiledQuery& query,
                                 const tpch::MaterializedDataset& dataset,
                                 const dynamic::GrowthPolicy& policy);

 private:
  struct PartitionOutput {
    /// The first k matches, by position; rows materialize post-reduce.
    std::vector<sampling::RowRef> candidates;
    uint64_t records_seen = 0;
    uint64_t records_matched = 0;
    // Adaptive-layout accounting (see LocalRunResult).
    uint64_t rows_physical = 0;
    uint32_t partitions_pruned = 0;
    uint32_t batches_pruned = 0;
    uint32_t index_built = 0;
    uint32_t index_hit = 0;
  };

  /// Applies Algorithm 1 to one partition: finds its matching rows (every
  /// row without a predicate, `predicate` per row on the interpreted
  /// engine, `program` on the vectorized one) and emits the first k.
  Result<PartitionOutput> RunMapTask(const tpch::ColumnarPartition& partition,
                                     uint32_t partition_id,
                                     const expr::Expression* predicate,
                                     const PredicateProgram* program,
                                     uint64_t k) const;

  LocalRunOptions options_;
};

}  // namespace dmr::exec

#endif  // DMR_EXEC_LOCAL_RUNTIME_H_
