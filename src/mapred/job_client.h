#ifndef DMR_MAPRED_JOB_CLIENT_H_
#define DMR_MAPRED_JOB_CLIENT_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "mapred/input_provider.h"
#include "mapred/job_conf.h"
#include "mapred/job_tracker.h"

namespace dmr::mapred {

/// \brief A complete job submission.
struct JobSubmission {
  JobConf conf;
  /// The job's complete input (what the Input Provider is initialized
  /// with), shared read-only by the provider and the job.
  std::shared_ptr<const SplitTable> input;
  /// Stands in for the user map function's output volume (see Job).
  MapOutputModel output_model;
  /// Required when conf.dynamic_job() is true; ignored otherwise.
  std::shared_ptr<InputProvider> input_provider;
};

/// \brief Client-side job submission and dynamic-job driving — the analogue
/// of Hadoop's JobClient plus the paper's client-side Input Provider loop.
///
/// For a dynamic job the client initializes the Input Provider with the full
/// input set, feeds the initial splits to the JobTracker, and then, every
/// EvaluationInterval seconds, fetches job status and cluster load from the
/// tracker and — when the Work Threshold is met — invokes the provider and
/// applies its response (paper Section IV). The JobTracker never learns
/// about providers or policies.
class JobClient {
 public:
  explicit JobClient(JobTracker* tracker);

  /// Submits a job; `on_complete` fires at job completion with final stats
  /// (including provider_evaluations / input_increments for dynamic jobs).
  Result<int> Submit(JobSubmission submission,
                     JobTracker::CompletionCallback on_complete);

  JobTracker* tracker() const { return tracker_; }
  sim::Simulation* simulation() const { return sim_; }

 private:
  /// Per-dynamic-job evaluation-loop state.
  struct DynamicLoop {
    std::shared_ptr<InputProvider> provider;
    double eval_interval = 4.0;
    double work_threshold_pct = 0.0;
    int splits_total = 0;
    int completed_at_last_invoke = 0;
    int provider_evaluations = 0;
    int input_increments = 0;
  };

  void ScheduleEvaluation(int job_id, double eval_interval);
  void RunEvaluation(int job_id);

  JobTracker* tracker_;
  sim::Simulation* sim_;
  /// The loop of every dynamic job that has not completed, by job id.
  /// Evaluation events carry only the id, so an event that outlives its
  /// job finds no loop and stops.
  std::unordered_map<int, DynamicLoop> loops_;
};

}  // namespace dmr::mapred

#endif  // DMR_MAPRED_JOB_CLIENT_H_
