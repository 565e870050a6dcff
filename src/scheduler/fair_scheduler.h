#ifndef DMR_SCHEDULER_FAIR_SCHEDULER_H_
#define DMR_SCHEDULER_FAIR_SCHEDULER_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "mapred/task_scheduler.h"

namespace dmr::scheduler {

/// \brief Configuration for the fair scheduler.
struct FairSchedulerOptions {
  /// Total map slots in the cluster (used to compute pool fair shares).
  int total_map_slots = 40;
  /// Delay-scheduling locality wait: a job with only non-local pending work
  /// is skipped until it has waited this long (seconds). 0 disables delay
  /// scheduling.
  double locality_wait = 5.0;
  /// Hadoop 0.20's Fair Scheduler launched at most one map task per
  /// TaskTracker heartbeat (mapred.fairscheduler.assignmultiple=false by
  /// default); this throttling is what drives the low slot occupancy the
  /// paper measures in Section V-F. Set true to fill all free slots.
  bool assign_multiple = false;
  /// Strict fair sharing: when the most-starved pool's head job is waiting
  /// for locality, the slot is held idle rather than offered to less
  /// deserving jobs. This is the occupancy-for-locality trade the paper
  /// observes (88 % locality at 18 % occupancy). false = skip to the next
  /// job instead.
  bool strict_delay = true;
  /// Layout-aware scheduling weight in [0, 1] (DESIGN.md §16). 0 keeps
  /// the classic layout-blind delay scheduler. When > 0 the scheduler
  /// (a) prefers the best-layout local pending split over FIFO order, and
  /// (b) shortens a job's locality wait by weight * quality/2 of its best
  /// pending replica layout — an indexed remote copy reads so little
  /// that waiting for a row-layout local copy stops paying (Dittrich et
  /// al., per-replica layouts).
  double layout_weight = 0.0;
};

/// \brief A fair-share scheduler with delay scheduling — modeled after the
/// Hadoop Fair Scheduler developed at U.C. Berkeley and Facebook that the
/// paper evaluates in Section V-F.
///
/// Jobs are grouped into per-user pools. Pools are served most-starved
/// first (running tasks relative to the pool's fair share); within a pool
/// jobs run in submission order. A job whose pending work is not local to
/// the heartbeating node is skipped until it has waited `locality_wait`
/// seconds, trading slot occupancy for data locality — exactly the
/// behaviour whose locality/occupancy trade-off the paper measures.
///
/// The pools are formed again at every heartbeat from `running_jobs`, in
/// member vectors reused across heartbeats. A job's user is interned the
/// first time the scheduler sees the job, into the job's `pool_id`
/// scratch; after that a heartbeat allocates nothing but its returned
/// assignments. A scheduler must therefore only see jobs run by its own
/// tracker (DESIGN.md §4).
class FairScheduler : public mapred::TaskScheduler {
 public:
  explicit FairScheduler(FairSchedulerOptions options)
      : options_(options) {}

  std::string name() const override { return "Fair"; }

  std::vector<mapred::MapAssignment> AssignMapTasks(
      const std::vector<mapred::Job*>& running_jobs, int node_id,
      int free_slots, double now) override;

  const FairSchedulerOptions& options() const { return options_; }

 private:
  /// One user's pool as formed for the current heartbeat.
  struct Pool {
    int id = -1;
    /// The pool's jobs, in `running_jobs` order: a list through
    /// `next_job_`, by index into `running_jobs`.
    int first_job = -1;
    int last_job = -1;
    /// Maps running over all of the pool's jobs, plus this heartbeat's
    /// assignments.
    int running = 0;
    /// Some job of the pool has a pending split.
    bool demand = false;
  };

  /// The pool id of `job`: its user interned, cached in the job's
  /// `pool_id` on first sight.
  int PoolIdOf(mapred::Job* job);
  /// Whether some job of `pool` has a pending split.
  bool HasDemand(const Pool& pool,
                 const std::vector<mapred::Job*>& running_jobs) const;

  FairSchedulerOptions options_;
  /// User name -> pool id, assigned in order of first sight.
  std::unordered_map<std::string, int> pool_ids_;
  /// Per pool id: its index in `pools_` while a heartbeat groups its
  /// jobs, -1 otherwise.
  std::vector<int> pool_index_;
  /// This heartbeat's pools, in order of first appearance in
  /// `running_jobs`.
  std::vector<Pool> pools_;
  /// Per `running_jobs` index: the next job of the same pool, or -1.
  std::vector<int> next_job_;
  /// The demanding pools (indices into `pools_`), most starved first.
  std::vector<int> order_;
};

}  // namespace dmr::scheduler

#endif  // DMR_SCHEDULER_FAIR_SCHEDULER_H_
