#ifndef DMR_SAMPLING_SAMPLING_JOB_H_
#define DMR_SAMPLING_SAMPLING_JOB_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "dfs/file_system.h"
#include "dynamic/growth_policy.h"
#include "mapred/job_client.h"

namespace dmr::sampling {

/// \brief Map-output model for a predicate-based sampling job: each map task
/// emits at most k matching records (Algorithm 1).
mapred::MapOutputModel SamplingMapOutputModel(uint64_t k);

/// \brief Map-output model for an ordinary select-project job: every
/// matching record is emitted.
mapred::MapOutputModel SelectProjectOutputModel();

/// \brief Parameters for building a simulated sampling job.
struct SamplingJobOptions {
  std::string job_name = "sampling";
  std::string user = "default";
  uint64_t sample_size = 10000;
  /// SQL text of the predicate (informational; stored in the JobConf).
  std::string predicate_sql = {};
  /// Seed for the Input Provider's uniform split draw.
  uint64_t seed = 1;
};

/// \brief Builds a complete dynamic-job submission for predicate-based
/// sampling over `file` under `policy` — what the modified Hive compiler
/// produces for `SELECT ... FROM t WHERE pred LIMIT k` (paper Section IV).
///
/// \param matching_per_partition  ground-truth matching counts (from the
///        dataset's skew profile) used by the simulator's output model.
Result<mapred::JobSubmission> MakeSamplingJob(
    const dfs::FileInfo& file,
    const std::vector<uint64_t>& matching_per_partition,
    const dynamic::GrowthPolicy& policy, const SamplingJobOptions& options);

/// \brief Builds a static (ordinary Hadoop) select-project job over `file` —
/// the paper's Non-Sampling workload class (Section V-E).
Result<mapred::JobSubmission> MakeSelectProjectJob(
    const dfs::FileInfo& file,
    const std::vector<uint64_t>& matching_per_partition,
    const std::string& job_name, const std::string& user);

}  // namespace dmr::sampling

#endif  // DMR_SAMPLING_SAMPLING_JOB_H_
