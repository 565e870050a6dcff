#include "scheduler/fair_scheduler.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "mapred/job_tracker.h"

namespace dmr::scheduler {

using mapred::Job;
using mapred::LifecycleStep;
using mapred::MapAssignment;

int FairScheduler::PoolIdOf(Job* job) {
  if (job->pool_id < 0) {
    auto [it, inserted] = pool_ids_.try_emplace(
        job->conf().user(), static_cast<int>(pool_ids_.size()));
    if (inserted) pool_index_.push_back(-1);
    job->pool_id = it->second;
  }
  DMR_CHECK(static_cast<size_t>(job->pool_id) < pool_index_.size())
      << "job " << job->id() << " carries a pool id this scheduler never "
      << "assigned";
  return job->pool_id;
}

bool FairScheduler::HasDemand(const Pool& pool,
                              const std::vector<Job*>& running_jobs) const {
  for (int i = pool.first_job; i >= 0; i = next_job_[i]) {
    if (running_jobs[i]->HasPendingSplits()) return true;
  }
  return false;
}

std::vector<MapAssignment> FairScheduler::AssignMapTasks(
    const std::vector<Job*>& running_jobs, int node_id, int free_slots,
    double now) {
  std::vector<MapAssignment> assignments;
  if (running_jobs.empty()) return assignments;

  // Group jobs into per-user pools: pools in order of first appearance in
  // running_jobs, and each pool's jobs in running_jobs (submission) order.
  pools_.clear();
  next_job_.assign(running_jobs.size(), -1);
  for (size_t i = 0; i < running_jobs.size(); ++i) {
    Job* job = running_jobs[i];
    const int id = PoolIdOf(job);
    int& index = pool_index_[id];
    if (index < 0) {
      index = static_cast<int>(pools_.size());
      pools_.push_back(Pool{.id = id, .first_job = static_cast<int>(i)});
    } else {
      next_job_[pools_[index].last_job] = static_cast<int>(i);
    }
    Pool& pool = pools_[index];
    pool.last_job = static_cast<int>(i);
    pool.running += job->maps_running();
    pool.demand = pool.demand || job->HasPendingSplits();
  }
  for (const Pool& pool : pools_) pool_index_[pool.id] = -1;

  const bool layout_aware = options_.layout_weight > 0.0;
  int assignable = options_.assign_multiple ? free_slots
                                            : std::min(free_slots, 1);
  for (int slot = 0; slot < assignable; ++slot) {
    // Fair share: equal division among pools that still have demand.
    int demanding = 0;
    for (const Pool& p : pools_) {
      if (p.demand) ++demanding;
    }
    if (demanding == 0) break;
    double share = static_cast<double>(options_.total_map_slots) /
                   static_cast<double>(demanding);

    // Serve the most starved demanding pool first. A stable insertion
    // sort: pools that tie keep their order of first appearance.
    auto starvation = [this, share](int p) {
      return static_cast<double>(pools_[p].running) / share;
    };
    order_.clear();
    for (int p = 0; p < static_cast<int>(pools_.size()); ++p) {
      if (!pools_[p].demand) continue;
      order_.push_back(p);
      for (size_t pos = order_.size() - 1;
           pos > 0 && starvation(p) < starvation(order_[pos - 1]); --pos) {
        std::swap(order_[pos], order_[pos - 1]);
      }
    }

    bool assigned = false;
    bool held = false;
    for (int p : order_) {
      Pool& pool = pools_[p];
      for (int i = pool.first_job; i >= 0; i = next_job_[i]) {
        Job* job = running_jobs[i];
        if (!job->HasPendingSplits()) continue;
        auto local = layout_aware ? job->TakeBestLayoutPending(node_id)
                                  : job->TakeLocalPending(node_id);
        if (local) {
          assignments.push_back({job, *local, true});
          job->delay_waiting = false;
          pool.running += 1;
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
        pool.running += 1;
        assigned = true;
        break;
      }
      // Only the served pool's pending work changed: a pool whose last
      // pending split was just taken leaves the share and the ranking.
      if (assigned) pool.demand = HasDemand(pool, running_jobs);
      if (assigned || held) break;
    }
    if (!assigned) break;  // slot held or nothing assignable right now
  }
  return assignments;
}

}  // namespace dmr::scheduler
