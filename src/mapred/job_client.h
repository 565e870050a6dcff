#ifndef DMR_MAPRED_JOB_CLIENT_H_
#define DMR_MAPRED_JOB_CLIENT_H_

#include <memory>
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
  struct DynamicLoop;

  void ScheduleEvaluation(std::shared_ptr<DynamicLoop> loop);
  void RunEvaluation(std::shared_ptr<DynamicLoop> loop);

  JobTracker* tracker_;
  sim::Simulation* sim_;
};

}  // namespace dmr::mapred

#endif  // DMR_MAPRED_JOB_CLIENT_H_
