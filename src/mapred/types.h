#ifndef DMR_MAPRED_TYPES_H_
#define DMR_MAPRED_TYPES_H_

#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "dfs/file_system.h"
#include "mapred/counters.h"

namespace dmr::mapred {

/// \brief A candidate read location for a split (one stored replica).
struct SplitLocation {
  int node_id = 0;
  int disk_id = 0;
  /// Physical layout of this copy (per-replica divergent layouts,
  /// DESIGN.md §16); kRow is the paper's plain file.
  dfs::ReplicaLayout layout = dfs::ReplicaLayout::kRow;
};

/// \brief Position of a split in its job's SplitTable. Jobs, attempts,
/// providers and scheduler decisions pass splits by id; the table holds
/// the one copy of each split.
using SplitId = uint32_t;

/// \brief One unit of map input: a DFS partition plus the record statistics
/// the simulator's cost/output models need. A row of a SplitTable:
/// trivially copyable, its replicas live in the table's flat replica array.
///
/// `num_matching` is ground truth about the data (how many records satisfy
/// the job's predicate). The *job* never reads it directly — it only observes
/// output counts of finished map tasks, exactly like a real Hadoop job.
struct InputSplit {
  int index = 0;
  uint64_t size_bytes = 0;
  uint64_t num_records = 0;
  uint64_t num_matching = 0;
  /// Primary location (the first replica).
  int node_id = 0;
  int disk_id = 0;
  /// Adaptive-layout stats hints (DESIGN.md §16), filled by layers that can
  /// see partition stats (LocalRuntime, testbed dataset builders). Fraction
  /// of the split's rows a stats-aware reader must physically scan for the
  /// job's predicate: 1.0 = no stats, scan everything (the default keeps
  /// every pre-existing path at full cost); 0.0 = provably empty or
  /// provably all-matching, costs only a stats-read.
  double scan_fraction = 1.0;
  /// Per-split selectivity bound derived from the same stats; < 0 means
  /// unknown (fall back to the provider's global estimate).
  double hint_selectivity = -1.0;
  /// The split's range in its table's replica array (set by
  /// SplitTable::Add).
  uint32_t first_replica = 0;
  uint32_t num_replicas = 0;
};
static_assert(std::is_trivially_copyable_v<InputSplit>);

/// \brief The input of one job submission: one row per split plus one flat
/// array of every row's replicas (primary first), with no cap on the
/// replication. Built once per submission (MakeInputSplits) and shared
/// read-only, as shared_ptr<const SplitTable>, by the submission, its
/// Input Provider and its Job.
class SplitTable {
 public:
  /// Appends a split; `replicas` lists its stored copies, primary first.
  /// Empty means the primary alone, in row layout.
  SplitId Add(InputSplit row, std::span<const SplitLocation> replicas = {});

  void Reserve(size_t rows, size_t replicas) {
    rows_.reserve(rows);
    replicas_.reserve(replicas);
  }

  SplitId size() const { return static_cast<SplitId>(rows_.size()); }
  const InputSplit& operator[](SplitId id) const { return rows_[id]; }

  /// All candidate read locations of `id` (never empty; primary first).
  std::span<const SplitLocation> locations(SplitId id) const {
    const InputSplit& row = rows_[id];
    return {replicas_.data() + row.first_replica, row.num_replicas};
  }

  /// True when some replica of `id` lives on `node`.
  bool IsLocalTo(SplitId id, int node) const {
    for (const SplitLocation& loc : locations(id)) {
      if (loc.node_id == node) return true;
    }
    return false;
  }

  /// The replica of `id` on `node`; for a remote read, the best-layout
  /// replica (ties keep replica order, so this is the primary when layouts
  /// do not diverge — the pre-layout behaviour).
  SplitLocation ReadLocationFor(SplitId id, int node) const {
    std::span<const SplitLocation> locs = locations(id);
    const SplitLocation* best = &locs.front();
    for (const SplitLocation& loc : locs) {
      if (loc.node_id == node) return loc;
      if (dfs::LayoutQuality(loc.layout) > dfs::LayoutQuality(best->layout)) {
        best = &loc;
      }
    }
    return *best;
  }

  /// Editing access for a table that is not shared yet (a driver adjusting
  /// hints or layouts on its own copy before submission).
  InputSplit& mutable_row(SplitId id) { return rows_[id]; }
  std::span<SplitLocation> mutable_locations(SplitId id) {
    InputSplit& row = rows_[id];
    return {replicas_.data() + row.first_replica, row.num_replicas};
  }

 private:
  std::vector<InputSplit> rows_;
  std::vector<SplitLocation> replicas_;
};

/// \brief Cluster-load summary handed to Input Providers (paper Section III:
/// "statistics about ... the current load, and the availability of map slots
/// in the cluster").
struct ClusterStatus {
  int total_map_slots = 0;
  int occupied_map_slots = 0;
  int running_jobs = 0;

  int available_map_slots() const {
    return total_map_slots - occupied_map_slots;
  }
};

/// \brief Job-progress snapshot handed to Input Providers at each evaluation
/// (paper Section IV: number of records processed and output tuples produced
/// by completed map tasks, plus the job status).
struct JobProgress {
  /// Splits handed to the job so far (scheduled + running + done).
  int splits_added = 0;
  /// Total splits in the job's complete input.
  int splits_total = 0;
  int maps_completed = 0;
  int maps_running = 0;
  int maps_pending = 0;
  /// Input records consumed by *completed* map tasks.
  uint64_t records_processed = 0;
  /// Output records produced by *completed* map tasks.
  uint64_t output_records = 0;
  /// Records in splits that are added but not yet finished.
  uint64_t pending_records = 0;
  /// Virtual time of the snapshot.
  double now = 0.0;

  /// True when every added split has finished and nothing is running.
  bool starved() const { return maps_running == 0 && maps_pending == 0; }
};

/// \brief Final accounting for a completed job.
struct JobStats {
  int job_id = -1;
  std::string name;
  std::string user;
  std::string policy;
  double submit_time = 0.0;
  double finish_time = 0.0;
  int splits_total = 0;
  int splits_processed = 0;
  uint64_t records_processed = 0;
  uint64_t output_records = 0;
  /// Records the reduce phase emitted (= min(k, output) for sampling jobs).
  uint64_t result_records = 0;
  int local_maps = 0;
  int remote_maps = 0;
  /// Failed map attempts that were retried.
  int failed_maps = 0;
  /// Speculative (backup) map attempts launched for this job.
  int speculative_maps = 0;
  /// Number of times the Input Provider was invoked / added input.
  int provider_evaluations = 0;
  int input_increments = 0;
  /// Hadoop-style named counters (see counters.h for the standard names).
  Counters counters;

  double response_time() const { return finish_time - submit_time; }
};

}  // namespace dmr::mapred

#endif  // DMR_MAPRED_TYPES_H_
