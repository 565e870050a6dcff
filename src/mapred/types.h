#ifndef DMR_MAPRED_TYPES_H_
#define DMR_MAPRED_TYPES_H_

#include <cstdint>
#include <string>
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

/// \brief One unit of map input: a DFS partition plus the record statistics
/// the simulator's cost/output models need.
///
/// `num_matching` is ground truth about the data (how many records satisfy
/// the job's predicate). The *job* never reads it directly — it only observes
/// output counts of finished map tasks, exactly like a real Hadoop job.
struct InputSplit {
  std::string file;
  int index = 0;
  uint64_t size_bytes = 0;
  uint64_t num_records = 0;
  uint64_t num_matching = 0;
  /// Primary location (kept in sync with locations.front() when replicas
  /// are present).
  int node_id = 0;
  int disk_id = 0;
  /// All replica locations, primary first; empty means primary only.
  std::vector<SplitLocation> locations;
  /// Virtual time the split was handed to its job (stamped by
  /// Job::AddSplits; a retried split keeps its first stamp). A launch's
  /// wait is measured from it.
  double queued_time = 0.0;
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

  /// All candidate read locations, uniformly (primary first).
  std::vector<SplitLocation> all_locations() const {
    if (!locations.empty()) return locations;
    return {SplitLocation{node_id, disk_id}};
  }

  /// True when some replica lives on `node`.
  bool IsLocalTo(int node) const {
    for (const auto& loc : all_locations()) {
      if (loc.node_id == node) return true;
    }
    return false;
  }

  /// The replica on `node`; for a remote read, the best-layout replica
  /// (ties keep replica order, so this is the primary when layouts do not
  /// diverge — the pre-layout behaviour).
  SplitLocation ReadLocationFor(int node) const {
    std::vector<SplitLocation> locs = all_locations();
    for (const auto& loc : locs) {
      if (loc.node_id == node) return loc;
    }
    const SplitLocation* best = &locs.front();
    for (const auto& loc : locs) {
      if (dfs::LayoutQuality(loc.layout) > dfs::LayoutQuality(best->layout)) {
        best = &loc;
      }
    }
    return *best;
  }
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
