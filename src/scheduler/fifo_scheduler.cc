#include "scheduler/fifo_scheduler.h"

namespace dmr::scheduler {

using mapred::Job;
using mapred::MapAssignment;
using mapred::SplitId;

std::vector<MapAssignment> FifoScheduler::AssignMapTasks(
    const std::vector<Job*>& running_jobs, int node_id, int free_slots,
    double now) {
  (void)now;
  std::vector<MapAssignment> assignments;
  for (int slot = 0; slot < free_slots; ++slot) {
    MapAssignment picked;
    for (Job* job : running_jobs) {
      if (!job->HasPendingSplits()) continue;
      if (auto local = job->TakeLocalPending(node_id)) {
        picked = {job, *local, true};
      } else {
        SplitId any = *job->TakeAnyPending();
        picked = {job, any, job->input().IsLocalTo(any, node_id)};
      }
      break;
    }
    if (picked.job == nullptr) break;
    assignments.push_back(std::move(picked));
  }
  return assignments;
}

}  // namespace dmr::scheduler
