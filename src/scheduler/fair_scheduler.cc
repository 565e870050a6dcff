#include "scheduler/fair_scheduler.h"

#include <algorithm>
#include <map>

#include "mapred/job_tracker.h"

namespace dmr::scheduler {

using mapred::Job;
using mapred::LifecycleStep;
using mapred::MapAssignment;

namespace {

struct Pool {
  std::string user;
  std::vector<Job*> jobs;  // submission order
  int running = 0;

  bool HasDemand() const {
    for (Job* j : jobs) {
      if (j->HasPendingSplits()) return true;
    }
    return false;
  }
};

}  // namespace

std::vector<MapAssignment> FairScheduler::AssignMapTasks(
    const std::vector<Job*>& running_jobs, int node_id, int free_slots,
    double now) {
  std::vector<MapAssignment> assignments;

  // Group jobs into per-user pools (stable submission order within a pool).
  std::vector<Pool> pools;
  std::map<std::string, size_t> pool_index;
  for (Job* job : running_jobs) {
    std::string user = job->conf().user();
    auto it = pool_index.find(user);
    if (it == pool_index.end()) {
      pool_index[user] = pools.size();
      pools.push_back(Pool{user, {}, 0});
      it = pool_index.find(user);
    }
    Pool& pool = pools[it->second];
    pool.jobs.push_back(job);
    pool.running += job->maps_running();
  }
  if (pools.empty()) return assignments;

  int assignable = options_.assign_multiple ? free_slots
                                            : std::min(free_slots, 1);
  for (int slot = 0; slot < assignable; ++slot) {
    // Fair share: equal division among pools that still have demand.
    int demanding = 0;
    for (const Pool& p : pools) {
      if (p.HasDemand()) ++demanding;
    }
    if (demanding == 0) break;
    double share = static_cast<double>(options_.total_map_slots) /
                   static_cast<double>(demanding);

    // Serve the most starved demanding pool first.
    std::vector<Pool*> order;
    for (Pool& p : pools) {
      if (p.HasDemand()) order.push_back(&p);
    }
    std::stable_sort(order.begin(), order.end(),
                     [share](const Pool* a, const Pool* b) {
                       return static_cast<double>(a->running) / share <
                              static_cast<double>(b->running) / share;
                     });

    bool assigned = false;
    bool held = false;
    for (Pool* pool : order) {
      const bool layout_aware = options_.layout_weight > 0.0;
      for (Job* job : pool->jobs) {
        if (!job->HasPendingSplits()) continue;
        auto local = layout_aware ? job->TakeBestLayoutPending(node_id)
                                  : job->TakeLocalPending(node_id);
        if (local) {
          assignments.push_back({job, *local, true});
          job->delay_waiting = false;
          pool->running += 1;
          assigned = true;
          break;
        }
        // Delay scheduling: make the job wait for a local opportunity
        // before allowing a remote launch. With layout awareness the wait
        // shrinks when a good remote layout is pending: quality 2
        // (indexed) at weight 1 waives the wait entirely.
        double wait = options_.locality_wait;
        if (layout_aware && wait > 0.0) {
          int quality = job->BestPendingLayoutQuality(-1);
          if (quality > 0) {
            wait *= std::max(0.0, 1.0 - options_.layout_weight *
                                            static_cast<double>(quality) /
                                            2.0);
          }
        }
        if (wait > 0.0) {
          bool still_waiting = false;
          if (!job->delay_waiting) {
            job->delay_waiting = true;
            job->delay_wait_start = now;
            still_waiting = true;
          } else if (now - job->delay_wait_start < wait) {
            still_waiting = true;
          }
          if (still_waiting) {
            if (tracker_ != nullptr) {
              tracker_->Report({.step = options_.strict_delay
                                            ? LifecycleStep::kDelayHold
                                            : LifecycleStep::kDelaySkip,
                                .job = job->id(), .node = node_id});
            }
            if (options_.strict_delay) {
              // Strict fairness: hold the slot for the deserving job.
              held = true;
              break;
            }
            continue;  // skip to the next job
          }
        }
        auto any = layout_aware ? job->TakeBestLayoutPending(-1)
                                : job->TakeAnyPending();
        if (!any) continue;
        assignments.push_back(
            {job, *any, job->input().IsLocalTo(*any, node_id)});
        job->delay_waiting = false;
        pool->running += 1;
        assigned = true;
        break;
      }
      if (assigned || held) break;
    }
    if (!assigned) break;  // slot held or nothing assignable right now
  }
  return assignments;
}

}  // namespace dmr::scheduler
