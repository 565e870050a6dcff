#ifndef DMR_MAPRED_JOB_H_
#define DMR_MAPRED_JOB_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
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
/// Owns the pending-split queues (indexed by every replica node for
/// locality-aware scheduling), the per-task accounting, and all counters
/// that feed JobProgress / JobStats. Splits are named by their id in the
/// job's SplitTable, which the job shares until it completes. Task
/// *execution* (resource requests, timing) lives in the JobTracker.
class Job {
 public:
  Job(int id, JobConf conf, std::shared_ptr<const SplitTable> input,
      MapOutputModel output_model, double submit_time);

  int id() const { return id_; }
  const JobConf& conf() const { return conf_; }
  /// conf().sample_size(), read once at construction (0: not sampling).
  uint64_t sample_size() const { return sample_size_; }
  JobState state() const { return state_; }
  void set_state(JobState s) { state_ = s; }
  double submit_time() const { return submit_time_; }

  // --- input management -----------------------------------------------

  /// The job's complete input. Valid until ReleaseInput.
  const SplitTable& input() const { return *input_; }

  /// Appends splits to the pending queue, stamping each one's queued time
  /// with `now`.
  void AddSplits(std::span<const SplitId> splits, double now);

  /// Virtual time `split` was handed to the job; a launch's wait is
  /// measured from it. A retried split keeps its first stamp.
  double queued_time(SplitId split) const { return queued_time_[split]; }

  /// Marks that no further input will be added (paper: "end of input").
  void FinalizeInput() { input_finalized_ = true; }
  bool input_finalized() const { return input_finalized_; }

  bool HasPendingSplits() const { return pending_live_ > 0; }
  int pending_count() const { return pending_live_; }

  /// True if a pending split has a replica on `node_id`.
  bool HasLocalPending(int node_id) const;

  /// Pops a pending split local to `node_id`, if any.
  std::optional<SplitId> TakeLocalPending(int node_id);

  /// Pops any pending split (preferring the longest per-node backlog so
  /// remote work drains hot spots first).
  std::optional<SplitId> TakeAnyPending();

  /// Max replica layout quality (dfs::LayoutQuality) over live pending
  /// splits — restricted to replicas on `node_id` when node_id >= 0; -1
  /// when no pending split qualifies. Used by the layout-aware fair
  /// scheduler (DESIGN.md §16).
  int BestPendingLayoutQuality(int node_id) const;

  /// Pops the pending split whose replica on `node_id` (anywhere, when
  /// node_id < 0) has the highest layout quality; ties keep insertion
  /// order, so with uniform layouts this degenerates to FIFO order.
  std::optional<SplitId> TakeBestLayoutPending(int node_id);

  /// Drops the split table and the pending store once the job is done
  /// with its input (the tracker keeps every Job for the whole run).
  void ReleaseInput();

  // --- task accounting --------------------------------------------------

  /// Puts a failed attempt's split back on the pending queue. Unlike
  /// AddSplits this is allowed after FinalizeInput (retries are not new
  /// input) and does not bump splits_added.
  void RequeueSplit(SplitId split) { IndexPending(split); }

  /// Records a map task launch; returns the task sequence number.
  int OnMapLaunched(bool local);

  /// Records a failed map attempt (the split must be requeued separately).
  void OnMapFailed();

  /// Records a map task completion and accumulates counters.
  void OnMapCompleted(SplitId split, uint64_t output_records);

  /// Applies the job's map-output model to a split (stands in for running
  /// the user map function).
  uint64_t ComputeMapOutput(SplitId split) const {
    return output_model_((*input_)[split]);
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

  // --- scheduler scratch state (fair scheduler pools, delay scheduling) --

  /// The fair scheduler's pool id: conf().user() interned, -1 until that
  /// scheduler first sees the job.
  int pool_id = -1;
  bool delay_waiting = false;
  double delay_wait_start = 0.0;

  /// Parts of the running reduce (shuffle, merge) not yet finished.
  int reduce_parts_left = 0;

 private:
  /// Marks a pending-store slot whose split was taken.
  static constexpr SplitId kTaken = ~SplitId{0};

  /// One node's queue of pending-store slots, oldest first. Slots taken
  /// via another replica stay behind as stale entries and are pruned
  /// lazily from the front; a queue that runs dry is reset in place.
  struct NodeQueue {
    std::vector<uint32_t> slots;
    size_t head = 0;

    size_t size() const { return slots.size() - head; }
  };

  /// Appends a split to the pending store and to every replica node's
  /// queue.
  void IndexPending(SplitId split);
  /// Takes a live pending slot (must exist) and returns its split.
  SplitId TakeSlot(uint32_t slot);
  /// First live slot on `node_id`'s queue (pruning stale entries), or -1.
  int64_t FrontLiveSlot(int node_id) const;
  /// First live slot of the whole store (pending_.size() when none).
  size_t FirstLiveSlot() const;

  int id_;
  JobConf conf_;
  uint64_t sample_size_;
  JobState state_ = JobState::kMapping;
  double submit_time_;
  double finish_time_ = 0.0;
  std::shared_ptr<const SplitTable> input_;
  int splits_total_;
  MapOutputModel output_model_;
  /// Queued time by split id (sized on the first AddSplits).
  std::vector<double> queued_time_;

  bool input_finalized_ = false;
  /// The pending store: one slot per enqueue (AddSplits or a requeue), in
  /// insertion order, holding the split id or kTaken.
  std::vector<SplitId> pending_;
  int pending_live_ = 0;
  /// Every slot before this one is taken.
  mutable size_t first_live_ = 0;
  mutable std::vector<NodeQueue> pending_by_node_;

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
