#ifndef DMR_MAPRED_TASK_SCHEDULER_H_
#define DMR_MAPRED_TASK_SCHEDULER_H_

#include <string>
#include <vector>

#include "mapred/job.h"
#include "mapred/types.h"

namespace dmr::mapred {

class JobTracker;

/// \brief One map-task launch decision.
struct MapAssignment {
  Job* job = nullptr;
  /// The split, by id in the job's split table.
  SplitId split = 0;
  /// Whether a replica of the split lives on the assigned node.
  bool local = false;
};

/// \brief Pluggable slot-assignment policy — the analogue of Hadoop's
/// TaskScheduler (Section V-F). Implementations: scheduler/fifo_scheduler.h
/// (Hadoop's default) and scheduler/fair_scheduler.h (the Facebook/Berkeley
/// Fair Scheduler with delay scheduling).
class TaskScheduler {
 public:
  virtual ~TaskScheduler() = default;

  virtual std::string name() const = 0;

  /// Called at a TaskTracker heartbeat: selects up to `free_slots` map tasks
  /// to launch on `node_id`. Implementations pop the chosen splits from the
  /// jobs' pending queues (Job::TakeLocalPending / TakeAnyPending).
  ///
  /// \param running_jobs  jobs in kMapping state, in submission order.
  /// \param now           current virtual time.
  virtual std::vector<MapAssignment> AssignMapTasks(
      const std::vector<Job*>& running_jobs, int node_id, int free_slots,
      double now) = 0;

  /// The JobTracker this scheduler serves (null when unit tests drive it
  /// directly); delay-scheduling holds are reported through it.
  void set_tracker(JobTracker* tracker) { tracker_ = tracker; }

 protected:
  JobTracker* tracker_ = nullptr;
};

}  // namespace dmr::mapred

#endif  // DMR_MAPRED_TASK_SCHEDULER_H_
