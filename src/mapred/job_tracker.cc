#include "mapred/job_tracker.h"

#include <algorithm>
#include <memory>
#include <numeric>

#include "common/logging.h"
#include "prof/prof.h"
#include "sim/arena.h"

namespace dmr::mapred {

namespace {

/// Adaptive-layout cost model (DESIGN.md §16). `scan_fraction` is the
/// split's stats hint: the fraction of its rows a stats-aware reader must
/// physically scan for the job's predicate (1.0 = no stats). A row replica
/// cannot seek inside the file, so any non-empty fraction still scans the
/// whole split; a columnar replica reads only the predicate's columns; an
/// indexed replica seeks straight to the qualifying ranges. Whatever gets
/// skipped, the attempt still pays the stats-read floor. The paper's
/// default — row layout, no stats — leaves the demands untouched, so
/// every pre-existing experiment is bit-identical.
void ApplyLayoutCost(const cluster::ClusterConfig& config,
                     dfs::ReplicaLayout layout, double scan_fraction,
                     double* cpu_demand, double* read_bytes) {
  double frac = std::clamp(scan_fraction, 0.0, 1.0);
  if (layout == dfs::ReplicaLayout::kRow && frac >= 1.0) return;
  double cpu_frac = 1.0;
  double byte_frac = 1.0;
  switch (layout) {
    case dfs::ReplicaLayout::kRow:
      cpu_frac = byte_frac = frac > 0.0 ? 1.0 : 0.0;
      break;
    case dfs::ReplicaLayout::kColumnar:
      cpu_frac = frac > 0.0 ? 1.0 : 0.0;
      byte_frac = frac > 0.0 ? config.columnar_byte_factor : 0.0;
      break;
    case dfs::ReplicaLayout::kIndexed:
      cpu_frac = frac;
      byte_frac = config.columnar_byte_factor * frac;
      break;
  }
  *cpu_demand = std::max(*cpu_demand * cpu_frac,
                         config.stats_read_records *
                             config.cpu_cost_per_record);
  *read_bytes = std::max(*read_bytes * byte_frac, config.stats_read_bytes);
}

}  // namespace

JobTracker::JobTracker(cluster::Cluster* cluster, TaskScheduler* scheduler,
                       obs::Cell* obs)
    : cluster_(cluster),
      sim_(cluster->simulation()),
      scheduler_(scheduler),
      obs_(obs),
      fault_rng_(cluster->config().fault_seed) {
  scheduler_->set_tracker(this);
}

void JobTracker::Report(LifecycleRecord rec) {
  rec.t = sim_->Now();
  history_.Record(rec);
  if (obs_ != nullptr) obs_->Record(rec);
}

void JobTracker::Start() {
  DMR_CHECK(!started_) << "JobTracker::Start called twice";
  started_ = true;
  double interval = cluster_->config().heartbeat_interval;
  int n = cluster_->num_nodes();
  for (int i = 0; i < n; ++i) {
    double offset = interval * (static_cast<double>(i) + 1.0) /
                    static_cast<double>(n);
    sim_->Schedule(offset, sim::EventClass::kScheduling,
                   [this, i] { Heartbeat(i); });
  }
}

Result<int> JobTracker::SubmitStaticJob(JobConf conf,
                                        std::shared_ptr<const SplitTable> input,
                                        MapOutputModel output_model,
                                        CompletionCallback on_complete) {
  std::vector<SplitId> all(input != nullptr ? input->size() : 0);
  std::iota(all.begin(), all.end(), SplitId{0});
  DMR_ASSIGN_OR_RETURN(
      int id, SubmitDynamicJob(std::move(conf), std::move(input),
                               std::move(output_model),
                               std::move(on_complete)));
  DMR_RETURN_NOT_OK(AddSplits(id, all));
  DMR_RETURN_NOT_OK(FinalizeInput(id));
  return id;
}

Result<int> JobTracker::SubmitDynamicJob(
    JobConf conf, std::shared_ptr<const SplitTable> input,
    MapOutputModel output_model, CompletionCallback on_complete) {
  if (!started_) return Status::FailedPrecondition("tracker not started");
  if (input == nullptr) {
    return Status::InvalidArgument("input split table must be set");
  }
  if (!output_model) {
    return Status::InvalidArgument("output_model must be set");
  }
  const int splits_total = static_cast<int>(input->size());
  int id = NextJobId();
  auto job = std::make_unique<Job>(id, std::move(conf), std::move(input),
                                   std::move(output_model), sim_->Now());
  mapping_jobs_.push_back(job.get());
  jobs_[id] = std::move(job);
  callbacks_[id] = std::move(on_complete);
  ++active_jobs_;
  const std::string& user = jobs_[id]->conf().user();
  Report({.step = LifecycleStep::kSubmit, .job = id, .user = user});
  DMR_LOG(Info) << "job " << id << " submitted (user " << user << ", "
                << splits_total << " total splits) at t=" << sim_->Now();
  ReportDemand();
  return id;
}

Status JobTracker::AddSplits(int job_id, std::span<const SplitId> splits) {
  DMR_ASSIGN_OR_RETURN(Job * job, FindJob(job_id));
  if (job->input_finalized()) {
    return Status::FailedPrecondition("job " + std::to_string(job_id) +
                                      ": input already finalized");
  }
  const SplitTable& input = job->input();
  for (SplitId split : splits) {
    if (split >= input.size()) {
      return Status::InvalidArgument(
          "job " + std::to_string(job_id) + ": split id " +
          std::to_string(split) + " outside its " +
          std::to_string(input.size()) + "-split input");
    }
  }
  job->AddSplits(splits, sim_->Now());
  Report({.step = LifecycleStep::kSplitsAdded, .job = job_id,
          .count = static_cast<int32_t>(splits.size())});
  for (SplitId split : splits) {
    Report({.step = LifecycleStep::kSplitQueued, .job = job_id,
            .split = input[split].index, .home = input[split].node_id});
  }
  ReportDemand();
  return Status::OK();
}

Status JobTracker::FinalizeInput(int job_id) {
  DMR_ASSIGN_OR_RETURN(Job * job, FindJob(job_id));
  if (job->input_finalized()) return Status::OK();
  job->FinalizeInput();
  Report({.step = LifecycleStep::kInputFinalized, .job = job_id});
  CheckReduceReady(job);
  ReportDemand();
  return Status::OK();
}

Result<JobProgress> JobTracker::GetJobProgress(int job_id) const {
  DMR_ASSIGN_OR_RETURN(Job * job, FindJob(job_id));
  return job->GetProgress(sim_->Now());
}

Result<bool> JobTracker::IsJobComplete(int job_id) const {
  DMR_ASSIGN_OR_RETURN(Job * job, FindJob(job_id));
  return job->state() == JobState::kSucceeded ||
         job->state() == JobState::kKilled;
}

ClusterStatus JobTracker::GetClusterStatus() const {
  ClusterStatus status;
  status.total_map_slots = cluster_->total_map_slots();
  status.occupied_map_slots = cluster_->used_map_slots();
  status.running_jobs = active_jobs_;
  return status;
}

double JobTracker::LocalityPercent() const {
  int64_t total = total_local_maps_ + total_remote_maps_;
  if (total == 0) return 0.0;
  return 100.0 * static_cast<double>(total_local_maps_) /
         static_cast<double>(total);
}

Result<Job*> JobTracker::FindJob(int job_id) const {
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    return Status::NotFound("no job with id " + std::to_string(job_id));
  }
  return it->second.get();
}

void JobTracker::PruneMappingJobs() {
  mapping_jobs_.erase(
      std::remove_if(mapping_jobs_.begin(), mapping_jobs_.end(),
                     [](Job* j) { return j->state() != JobState::kMapping; }),
      mapping_jobs_.end());
}

void JobTracker::Heartbeat(int node_id) {
  static const prof::PhaseId kHeartbeatPhase =
      prof::RegisterPhase("mapred", "heartbeat");
  prof::ScopedTimer prof_frame(kHeartbeatPhase);
  cluster::Node* node = cluster_->node(node_id);

  // Launch queued reduce tasks first (they are few and cheap).
  while (!reduce_ready_.empty() && node->free_reduce_slots() > 0) {
    Job* job = reduce_ready_.front();
    reduce_ready_.pop_front();
    LaunchReduce(job, node_id);
  }

  // Fill free map slots via the pluggable scheduler.
  PruneMappingJobs();
  Report({.step = LifecycleStep::kHeartbeat, .node = node_id});
  if (node->free_map_slots() > 0 && !mapping_jobs_.empty()) {
    static const prof::PhaseId kAssignPhase =
        prof::RegisterPhase("mapred", "assign_maps");
    std::vector<MapAssignment> assignments;
    {
      prof::ScopedTimer assign_frame(kAssignPhase);
      assignments = scheduler_->AssignMapTasks(
          mapping_jobs_, node_id, node->free_map_slots(), sim_->Now());
    }
    DMR_CHECK_LE(static_cast<int>(assignments.size()),
                 node->free_map_slots());
    for (auto& a : assignments) {
      LaunchMap(a.job, a.split, node_id, a.local, /*backup=*/false);
    }
  }

  if (cluster_->config().speculative_execution &&
      node->free_map_slots() > 0) {
    MaybeLaunchBackups(node_id);
  }

  ReportDemand();
  sim_->Schedule(cluster_->config().heartbeat_interval,
                 sim::EventClass::kScheduling,
                 [this, node_id] { Heartbeat(node_id); });
}

void JobTracker::MaybeLaunchBackups(int node_id) {
  const auto& config = cluster_->config();
  double now = sim_->Now();
  // At most one backup per heartbeat (mirroring Hadoop's cautious pace):
  // pick the longest-overdue single-attempt split of the oldest job that
  // qualifies.
  AttemptPtr victim;
  double worst_overrun = 0.0;
  for (Job* job : mapping_jobs_) {
    if (job->HasPendingSplits()) continue;   // real work first
    if (job->maps_completed() == 0) continue;  // no duration baseline yet
    double mean = job->MeanMapDuration();
    double threshold = std::max(config.speculative_min_runtime,
                                config.speculative_slowdown_threshold * mean);
    for (auto& [key, attempts] : running_splits_) {
      if (key.first != job->id() || attempts.size() != 1) continue;
      double elapsed = now - attempts.front()->launch_time;
      if (elapsed > threshold && elapsed > worst_overrun) {
        worst_overrun = elapsed;
        victim = attempts.front();
      }
    }
  }
  if (!victim) return;
  ++total_speculative_maps_;
  victim->job->OnSpeculativeLaunched();
  LaunchMap(victim->job, victim->split, node_id,
            victim->job->input().IsLocalTo(victim->split, node_id),
            /*backup=*/true);
}

void JobTracker::LaunchMap(Job* job, SplitId split_id, int node_id,
                           bool local, bool backup) {
  cluster::Node* node = cluster_->node(node_id);
  int slot = node->AcquireMapSlot();
  // Backups do not change the job's split-level accounting — the split is
  // already counted as running by its original attempt.
  if (!backup) job->OnMapLaunched(local);
  const SplitTable& input = job->input();
  const InputSplit& split = input[split_id];
  const bool pruned = split.scan_fraction <= 0.0;
  if (pruned) ++total_pruned_splits_;
  Report({.step = backup ? LifecycleStep::kBackupLaunch
                         : LifecycleStep::kMapLaunch,
          .pruned = pruned, .job = job->id(), .split = split.index,
          .node = node_id, .slot = slot,
          .start = job->queued_time(split_id)});
  if (local) {
    ++total_local_maps_;
  } else {
    ++total_remote_maps_;
  }

  const auto& config = cluster_->config();
  double cpu_demand =
      static_cast<double>(split.num_records) * config.cpu_cost_per_record;
  double read_bytes = static_cast<double>(split.size_bytes);

  // Read from the replica on this node when there is one, else from the
  // best-layout remote copy over the network; that replica's layout and
  // the split's stats hint set the attempt's effective cost.
  const SplitLocation source = input.ReadLocationFor(split_id, node_id);
  ApplyLayoutCost(config, source.layout, split.scan_fraction, &cpu_demand,
                  &read_bytes);

  // Fault injection: a straggler attempt demands proportionally more of
  // every resource; a failing attempt does its work and then reports
  // failure, whereupon the split is requeued for another attempt.
  if (config.straggler_prob > 0 &&
      fault_rng_.NextBernoulli(config.straggler_prob)) {
    cpu_demand *= config.straggler_slowdown;
    read_bytes *= config.straggler_slowdown;
  }
  bool will_fail = config.map_failure_prob > 0 &&
                   fault_rng_.NextBernoulli(config.map_failure_prob);

  // Task-attempt records churn once per split attempt; draw them (control
  // block included) from the simulation's arena instead of global malloc.
  auto attempt = std::allocate_shared<MapAttempt>(
      sim::ArenaAllocator<MapAttempt>(sim_->arena()));
  attempt->job = job;
  attempt->split = split_id;
  attempt->node_id = node_id;
  attempt->slot = slot;
  attempt->local = local;
  attempt->backup = backup;
  attempt->will_fail = will_fail;
  attempt->source = source;
  attempt->read_bytes = read_bytes;
  attempt->cpu_demand = cpu_demand;
  attempt->launch_time = sim_->Now();
  running_splits_[{job->id(), split_id}].push_back(attempt);

  // The task holds its slot through startup, then reads its partition while
  // applying the map function. The startup event holds only the attempt's
  // address: running_splits_ owns the attempt until it ends, and
  // KillAttempt cancels the event.
  attempt->startup_event = sim_->Schedule(
      config.task_startup_seconds, sim::EventClass::kTaskLifecycle,
      [this, raw = attempt.get()] { StartAttempt(raw); });
}

void JobTracker::StartAttempt(MapAttempt* raw) {
  // Disk (and network, when remote) and CPU are consumed concurrently; the
  // task finishes when all demands are met. Each part's callback owns the
  // attempt: a sibling killed in the instant its last part completes is
  // still called, and finds it finished.
  AttemptPtr attempt = raw->shared_from_this();
  attempt->parts_left = attempt->local ? 2 : 3;
  auto on_part_done = [this, attempt] {
    if (--attempt->parts_left != 0) return;
    OnAttemptDone(attempt, attempt->will_fail);
  };
  auto submit = [&](sim::PsResource* resource, double demand) {
    attempt->requests[attempt->num_requests++] = {
        resource, resource->Submit(demand, on_part_done)};
  };
  const SplitLocation& source = attempt->source;
  submit(cluster_->node(source.node_id)->disk(source.disk_id),
         attempt->read_bytes);
  if (!attempt->local) submit(cluster_->network(), attempt->read_bytes);
  submit(cluster_->node(attempt->node_id)->cpu(), attempt->cpu_demand);
}

void JobTracker::ReportDemand() {
  if (obs_ == nullptr) return;
  // A free slot right now is queueing delay if some mapping job has a
  // runnable pending split, provider-wait if the only open demand is jobs
  // whose input has not arrived yet, and idle otherwise.
  bool pending = false;
  bool provider_starved = false;
  for (const Job* job : mapping_jobs_) {
    if (job->state() != JobState::kMapping) continue;
    if (job->HasPendingSplits()) {
      pending = true;
      break;
    }
    if (!job->input_finalized()) provider_starved = true;
  }
  Report({.step = LifecycleStep::kDemand,
          .demand = pending            ? FreeState::kQueue
                    : provider_starved ? FreeState::kProviderWait
                                       : FreeState::kIdle});
}

void JobTracker::EndAttempt(MapAttempt& attempt, Outcome outcome) {
  attempt.finished = true;
  const InputSplit& split = attempt.job->input()[attempt.split];
  Report({.step = LifecycleStep::kAttemptEnd, .outcome = outcome,
          .local = attempt.local, .backup = attempt.backup,
          .job = attempt.job->id(), .split = split.index,
          .node = attempt.node_id, .slot = attempt.slot,
          .home = split.node_id, .start = attempt.launch_time});
  cluster_->node(attempt.node_id)->ReleaseMapSlot(attempt.slot);
}

void JobTracker::KillAttempt(const AttemptPtr& attempt) {
  DMR_CHECK(!attempt->finished);
  attempt->startup_event.Cancel();
  for (int i = 0; i < attempt->num_requests; ++i) {
    auto [resource, request_id] = attempt->requests[i];
    resource->CancelRequest(request_id);
  }
  EndAttempt(*attempt, Outcome::kKilled);
}

void JobTracker::OnAttemptDone(const AttemptPtr& attempt, bool failed) {
  if (attempt->finished) return;  // lost a race with a sibling's kill
  EndAttempt(*attempt, failed ? Outcome::kFailed : Outcome::kOk);
  Job* job = attempt->job;

  SplitKey key{job->id(), attempt->split};
  auto group_it = running_splits_.find(key);
  DMR_CHECK(group_it != running_splits_.end());
  auto& attempts = group_it->second;
  attempts.erase(std::remove(attempts.begin(), attempts.end(), attempt),
                 attempts.end());

  if (failed) {
    // A sibling backup may still succeed; only when every attempt has
    // failed does the split go back on the pending queue.
    if (attempts.empty()) {
      running_splits_.erase(group_it);
      job->OnMapFailed();
      job->RequeueSplit(attempt->split);
    }
    ReportDemand();
    return;
  }

  // First successful attempt wins; kill the rest.
  for (auto& sibling : attempts) KillAttempt(sibling);
  running_splits_.erase(group_it);
  job->RecordMapDuration(sim_->Now() - attempt->launch_time);
  job->OnMapCompleted(attempt->split,
                      job->ComputeMapOutput(attempt->split));
  // The first such instant is the boundary between useful and wasted
  // slot time; the recorders keep only that one.
  uint64_t k = job->sample_size();
  if (k > 0 && job->output_records() >= k) {
    Report({.step = LifecycleStep::kSampleSatisfiable, .job = job->id()});
  }
  CheckReduceReady(job);
  ReportDemand();
}

void JobTracker::CheckReduceReady(Job* job) {
  if (!job->ReadyForReduce()) return;
  job->set_state(JobState::kReducing);
  reduce_ready_.push_back(job);
}

void JobTracker::LaunchReduce(Job* job, int node_id) {
  static const prof::PhaseId kLaunchReducePhase =
      prof::RegisterPhase("mapred", "launch_reduce");
  prof::ScopedTimer prof_frame(kLaunchReducePhase);
  cluster::Node* node = cluster_->node(node_id);
  node->AcquireReduceSlot();
  Report({.step = LifecycleStep::kReduceStart, .job = job->id(),
          .node = node_id});

  // Captures stay within the event's inline buffer. The job's output is
  // final here (no map runs once it is reducing).
  sim_->Schedule(cluster_->config().task_startup_seconds,
                 sim::EventClass::kTaskLifecycle, [this, job, node_id] {
    // The single reduce task shuffles every map-output record across the
    // cluster interconnect and merges them (paper Algorithm 2).
    const double output_records = static_cast<double>(job->output_records());
    job->reduce_parts_left = 2;
    auto on_part_done = [this, job, node_id] {
      if (--job->reduce_parts_left == 0) OnReduceComplete(job, node_id);
    };
    cluster_->network()->Submit(output_records * 132.0, on_part_done);
    cluster_->node(node_id)->cpu()->Submit(
        output_records * cluster_->config().reduce_cpu_cost_per_record,
        on_part_done);
  });
}

void JobTracker::OnReduceComplete(Job* job, int node_id) {
  cluster_->node(node_id)->ReleaseReduceSlot();

  uint64_t k = job->sample_size();
  uint64_t produced = job->output_records();
  job->set_result_records(k > 0 ? std::min(k, produced) : produced);
  job->set_state(JobState::kSucceeded);
  job->set_finish_time(sim_->Now());
  // jobs_ keeps every Job for the whole run; a completed one keeps no input.
  job->ReleaseInput();
  --active_jobs_;

  Report({.step = LifecycleStep::kJobComplete, .job = job->id(),
          .node = node_id, .start = job->submit_time(),
          .user = job->conf().user()});
  DMR_LOG(Info) << "job " << job->id() << " completed in "
                << sim_->Now() - job->submit_time() << " s ("
                << job->maps_completed() << " splits processed)";
  ReportDemand();
  JobStats stats = job->GetStats();
  auto cb_it = callbacks_.find(job->id());
  CompletionCallback cb;
  if (cb_it != callbacks_.end()) {
    cb = std::move(cb_it->second);
    callbacks_.erase(cb_it);
  }
  if (cb) cb(stats);
}

}  // namespace dmr::mapred
