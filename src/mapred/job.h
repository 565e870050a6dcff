#ifndef DMR_MAPRED_JOB_H_
#define DMR_MAPRED_JOB_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "mapred/job_conf.h"
#include "mapred/types.h"

namespace dmr::mapred {

/// \brief Job lifecycle states.
enum class JobState {
  /// Accepting/processing map input.
  kMapping,
  /// Input finalized, all maps done, reduce queued or running.
  kReducing,
  kSucceeded,
  kKilled,
};

const char* JobStateToString(JobState state);

/// \brief Computes how many output records a map task over `split` emits.
///
/// This stands in for the user-defined map function in the simulator: for
/// predicate-based sampling it is min(k, split.num_matching); for a plain
/// select-project job it is split.num_matching.
using MapOutputModel = std::function<uint64_t(const InputSplit&)>;

/// \brief JobTracker-side state of one submitted job.
///
/// Owns the pending-split queues (indexed by home node for locality-aware
/// scheduling), the per-task accounting, and all counters that feed
/// JobProgress / JobStats. Task *execution* (resource requests, timing)
/// lives in the JobTracker.
class Job {
 public:
  Job(int id, JobConf conf, int splits_total, MapOutputModel output_model,
      double submit_time);

  int id() const { return id_; }
  const JobConf& conf() const { return conf_; }
  JobState state() const { return state_; }
  void set_state(JobState s) { state_ = s; }
  double submit_time() const { return submit_time_; }

  // --- input management -----------------------------------------------

  /// Appends splits to the pending queue, stamping each stored copy's
  /// queued_time with `now`.
  void AddSplits(const std::vector<InputSplit>& splits, double now);

  /// Marks that no further input will be added (paper: "end of input").
  void FinalizeInput() { input_finalized_ = true; }
  bool input_finalized() const { return input_finalized_; }

  bool HasPendingSplits() const { return !pending_splits_.empty(); }
  int pending_count() const {
    return static_cast<int>(pending_splits_.size());
  }

  /// True if a pending split's home is `node_id`.
  bool HasLocalPending(int node_id) const;

  /// Pops a pending split local to `node_id`, if any.
  std::optional<InputSplit> TakeLocalPending(int node_id);

  /// Pops any pending split (preferring the longest per-node backlog so
  /// remote work drains hot spots first).
  std::optional<InputSplit> TakeAnyPending();

  /// Max replica layout quality (dfs::LayoutQuality) over live pending
  /// splits — restricted to replicas on `node_id` when node_id >= 0; -1
  /// when no pending split qualifies. Used by the layout-aware fair
  /// scheduler (DESIGN.md §16).
  int BestPendingLayoutQuality(int node_id) const;

  /// Pops the pending split whose replica on `node_id` (anywhere, when
  /// node_id < 0) has the highest layout quality; ties keep insertion
  /// order, so with uniform layouts this degenerates to FIFO order.
  std::optional<InputSplit> TakeBestLayoutPending(int node_id);

  // --- task accounting --------------------------------------------------

  /// Puts a failed attempt's split back on the pending queue. Unlike
  /// AddSplits this is allowed after FinalizeInput (retries are not new
  /// input) and does not bump splits_added.
  void RequeueSplit(const InputSplit& split);

  /// Records a map task launch; returns the task sequence number.
  int OnMapLaunched(const InputSplit& split, int node_id, bool local);

  /// Records a failed map attempt (the split must be requeued separately).
  void OnMapFailed(const InputSplit& split);

  /// Records a map task completion and accumulates counters.
  void OnMapCompleted(const InputSplit& split, uint64_t output_records);

  /// Applies the job's map-output model to a split (stands in for running
  /// the user map function).
  uint64_t ComputeMapOutput(const InputSplit& split) const {
    return output_model_(split);
  }

  /// All maps done and input finalized => ready for the reduce phase.
  bool ReadyForReduce() const;

  // --- snapshots ---------------------------------------------------------

  JobProgress GetProgress(double now) const;

  /// Hadoop-style counter snapshot of the job's current accounting.
  Counters CurrentCounters() const;

  /// Final stats; `finish_time` is stamped by the tracker.
  JobStats GetStats() const;
  void set_finish_time(double t) { finish_time_ = t; }

  int maps_running() const { return maps_running_; }
  int maps_completed() const { return maps_completed_; }
  int failed_maps() const { return failed_maps_; }

  /// Records the duration of a completed map attempt (feeds the
  /// speculative-execution slowdown heuristic).
  void RecordMapDuration(double seconds);
  /// Mean duration of completed map attempts (0 before the first).
  double MeanMapDuration() const;

  /// Counts a speculative (backup) attempt launch.
  void OnSpeculativeLaunched() { ++speculative_maps_; }
  int speculative_maps() const { return speculative_maps_; }
  int splits_added() const { return splits_added_; }
  uint64_t output_records() const { return output_records_; }
  void set_result_records(uint64_t n) { result_records_ = n; }

  // --- scheduler scratch state (fair scheduler delay scheduling) ---------

  bool delay_waiting = false;
  double delay_wait_start = 0.0;

 private:
  int id_;
  JobConf conf_;
  JobState state_ = JobState::kMapping;
  double submit_time_;
  double finish_time_ = 0.0;
  int splits_total_;
  MapOutputModel output_model_;

  /// Inserts a split into the pending store, indexing every replica node;
  /// returns the stored copy.
  InputSplit& IndexPending(const InputSplit& split);
  /// Pops a pending entry by id (must exist) and returns its split.
  InputSplit TakePendingById(int id);
  /// First live pending id on `node_id`'s queue (pruning stale ids), or -1.
  int FrontLiveId(int node_id) const;

  bool input_finalized_ = false;
  /// Pending splits by insertion id; per-node queues hold ids and may
  /// contain stale entries (splits already taken via another replica),
  /// which are pruned lazily.
  std::map<int, InputSplit> pending_splits_;
  mutable std::map<int, std::deque<int>> pending_ids_by_node_;
  int next_pending_id_ = 0;

  int splits_added_ = 0;
  int maps_running_ = 0;
  int maps_completed_ = 0;
  int next_task_id_ = 0;
  int local_maps_ = 0;
  int remote_maps_ = 0;
  int failed_maps_ = 0;
  int speculative_maps_ = 0;
  double map_duration_sum_ = 0.0;
  int map_duration_count_ = 0;
  uint64_t records_added_ = 0;
  uint64_t records_processed_ = 0;
  uint64_t output_records_ = 0;
  uint64_t result_records_ = 0;
};

}  // namespace dmr::mapred

#endif  // DMR_MAPRED_JOB_H_
