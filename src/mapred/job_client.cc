#include "mapred/job_client.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "prof/prof.h"

namespace dmr::mapred {

namespace {

/// Reports one Input Provider decision (the initial grab or a periodic
/// evaluation) through the tracker.
void ReportDecision(JobTracker* tracker, int job_id,
                    const InputResponse& response, bool initial) {
  const InputResponseKind kind = response.kind;
  tracker->Report({.step = LifecycleStep::kProviderDecision,
                   .outcome = kind == InputResponseKind::kInputAvailable
                                  ? Outcome::kGrow
                              : kind == InputResponseKind::kEndOfInput
                                  ? Outcome::kEndOfInput
                                  : Outcome::kWait,
                   .initial = initial, .job = job_id,
                   .count = static_cast<int32_t>(response.splits.size()),
                   .diagnostics = response.diagnostics});
}

}  // namespace

JobClient::JobClient(JobTracker* tracker)
    : tracker_(tracker), sim_(tracker->simulation()) {}

Result<int> JobClient::Submit(JobSubmission submission,
                              JobTracker::CompletionCallback on_complete) {
  if (!submission.conf.dynamic_job()) {
    return tracker_->SubmitStaticJob(
        std::move(submission.conf), std::move(submission.input),
        std::move(submission.output_model), std::move(on_complete));
  }

  if (!submission.input_provider) {
    return Status::InvalidArgument(
        "dynamic job requires an input provider (" +
        std::string(kDynamicProviderKey) + ")");
  }
  if (submission.input == nullptr) {
    return Status::InvalidArgument("input split table must be set");
  }

  DynamicLoop loop;
  loop.provider = submission.input_provider;
  loop.eval_interval = submission.conf.eval_interval();
  loop.work_threshold_pct = submission.conf.work_threshold_pct();
  loop.splits_total = static_cast<int>(submission.input->size());
  // Written so that NaN fails each check (a policy file may say "nan").
  if (!(loop.eval_interval > 0.0 && std::isfinite(loop.eval_interval))) {
    return Status::InvalidArgument(
        "evaluation interval must be finite and > 0");
  }
  if (!(loop.work_threshold_pct >= 0.0 && loop.work_threshold_pct <= 100.0)) {
    return Status::InvalidArgument("work threshold must be in [0, 100]");
  }

  DMR_RETURN_NOT_OK(
      loop.provider->Initialize(submission.input, submission.conf));

  // Wrap the user's callback to stamp the dynamic-loop counters into the
  // final stats and drop the loop.
  auto wrapped = [this, cb = std::move(on_complete)](const JobStats& stats) {
    auto it = loops_.find(stats.job_id);
    JobStats augmented = stats;
    if (it != loops_.end()) {
      augmented.provider_evaluations = it->second.provider_evaluations;
      augmented.input_increments = it->second.input_increments;
      loops_.erase(it);
    }
    if (cb) cb(augmented);
  };

  DMR_ASSIGN_OR_RETURN(
      int job_id,
      tracker_->SubmitDynamicJob(std::move(submission.conf),
                                 std::move(submission.input),
                                 std::move(submission.output_model),
                                 std::move(wrapped)));
  // Jobs complete only inside simulation events, and unordered_map keeps
  // references valid across inserts, so `state` lives until Submit returns.
  DynamicLoop& state = loops_.emplace(job_id, std::move(loop)).first->second;

  static const prof::PhaseId kInitialInputPhase =
      prof::RegisterPhase("mapred", "provider_initial");
  InputResponse initial;
  {
    prof::ScopedTimer prof_frame(kInitialInputPhase);
    initial = state.provider->GetInitialInput(tracker_->GetClusterStatus());
  }
  ReportDecision(tracker_, job_id, initial, /*initial=*/true);
  switch (initial.kind) {
    case InputResponseKind::kInputAvailable:
      DMR_RETURN_NOT_OK(tracker_->AddSplits(job_id, initial.splits));
      ++state.input_increments;
      break;
    case InputResponseKind::kEndOfInput:
      DMR_RETURN_NOT_OK(tracker_->FinalizeInput(job_id));
      break;
    case InputResponseKind::kNoInputAvailable:
      break;
  }

  if (initial.kind != InputResponseKind::kEndOfInput) {
    ScheduleEvaluation(job_id, state.eval_interval);
  }
  return job_id;
}

void JobClient::ScheduleEvaluation(int job_id, double eval_interval) {
  sim_->Schedule(eval_interval, sim::EventClass::kInputGrowth,
                 [this, job_id] { RunEvaluation(job_id); });
}

void JobClient::RunEvaluation(int job_id) {
  auto it = loops_.find(job_id);
  if (it == loops_.end()) return;  // the job completed
  DynamicLoop& loop = it->second;
  auto complete = tracker_->IsJobComplete(job_id);
  if (!complete.ok() || *complete) return;

  auto progress_result = tracker_->GetJobProgress(job_id);
  if (!progress_result.ok()) return;
  const JobProgress& progress = *progress_result;

  if (progress.splits_added >= loop.splits_total &&
      !progress.starved()) {
    // Whole input already handed over; nothing a provider could add. Wait
    // for the in-flight maps, then let the starved path finalize.
    ScheduleEvaluation(job_id, loop.eval_interval);
    return;
  }

  // Work Threshold (paper Section III-B): require enough new partitions
  // processed since the last invocation, as a % of the job's total input.
  // Deviation from the letter of the paper: a *starved* job (all added
  // input processed, nothing running) is always evaluated — otherwise a
  // conservative policy whose per-step additions are below the threshold
  // could never be re-evaluated and the job would hang (see DESIGN.md).
  double threshold_splits =
      loop.work_threshold_pct / 100.0 *
      static_cast<double>(loop.splits_total);
  int new_done = progress.maps_completed - loop.completed_at_last_invoke;
  bool threshold_met =
      static_cast<double>(new_done) >= std::max(1.0, threshold_splits);

  if (threshold_met || progress.starved()) {
    loop.completed_at_last_invoke = progress.maps_completed;
    ++loop.provider_evaluations;
    static const prof::PhaseId kEvaluatePhase =
        prof::RegisterPhase("mapred", "provider_evaluate");
    InputResponse response;
    {
      prof::ScopedTimer prof_frame(kEvaluatePhase);
      response =
          loop.provider->Evaluate(progress, tracker_->GetClusterStatus());
    }
    ReportDecision(tracker_, job_id, response, /*initial=*/false);
    switch (response.kind) {
      case InputResponseKind::kEndOfInput: {
        Status st = tracker_->FinalizeInput(job_id);
        DMR_CHECK(st.ok()) << st.ToString();
        return;  // the provider is not invoked further
      }
      case InputResponseKind::kInputAvailable: {
        Status st = tracker_->AddSplits(job_id, response.splits);
        DMR_CHECK(st.ok()) << st.ToString();
        ++loop.input_increments;
        break;
      }
      case InputResponseKind::kNoInputAvailable:
        break;
    }
  }
  ScheduleEvaluation(job_id, loop.eval_interval);
}

}  // namespace dmr::mapred
