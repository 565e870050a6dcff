/// \file
/// The two experiment shapes of the paper's evaluation (Section V), each
/// wired in one runner: one job at a time on an idle cluster (Fig. 5 and the
/// Table I ablations), and ten closed-loop users on the multi-user cluster
/// (Figs. 6-8 and Section V-F). A driver declares its grid as cell values;
/// every cell builds its own Testbed, so cells run on any thread.

#ifndef DMR_BENCH_CELLS_H_
#define DMR_BENCH_CELLS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "dynamic/growth_policy.h"
#include "mapred/input_provider.h"
#include "sampling/sampling_job.h"
#include "testbed/testbed.h"

namespace dmr::bench {

/// Replaces the Input Provider that MakeSamplingJob installs; called with
/// the job's policy and seed.
using ProviderFactory = std::function<std::shared_ptr<mapred::InputProvider>(
    const dynamic::GrowthPolicy& policy, uint64_t seed)>;

/// \brief One sampling job on ClusterConfig::SingleUser(), run 5 times (the
/// paper averages 5 runs), each on a fresh testbed and dataset.
struct SingleJobCell {
  /// The "cell" and "policy" annotations of every run's testbed.
  std::string cell = {};
  std::string policy = {};
  /// The job's policy; unset means the built-in policy named `policy`.
  std::optional<dynamic::GrowthPolicy> growth = {};
  int scale = 20;
  double z = 0.0;
  std::function<uint64_t(int run)> dataset_seed = {};
  std::function<uint64_t(int run)> job_seed = {};
  /// Job name, user and predicate text; the runner sets the sample size
  /// (kPaperSampleSize) and the seed.
  sampling::SamplingJobOptions job = {};
  ProviderFactory provider = {};
};

/// Means over the 5 runs, each summed in run order.
struct SingleJobResult {
  double response_time = 0;
  double partitions = 0;
  double increments = 0;
};

Result<SingleJobResult> RunSingleJob(const SingleJobCell& cell);

/// \brief Ten users on ClusterConfig::MultiUser(), each with a private copy
/// ("u<i>") of the 100x data, in closed loops for `duration` virtual
/// seconds; steady-state figures exclude the first 1,800 s.
struct ClosedLoopCell {
  std::string cell = {};
  std::string policy = {};
  /// The sampling jobs' policy; unset means the built-in named `policy`.
  std::optional<dynamic::GrowthPolicy> growth = {};
  double z = 0.0;
  testbed::SchedulerKind scheduler = testbed::SchedulerKind::kFifo;
  double locality_wait = 5.0;
  double layout_weight = 0.0;
  /// Tags every dataset replica with a cycling row/columnar/indexed layout.
  bool divergent_layouts = false;
  /// Users below this index run sampling jobs ("Sampling"); the rest run
  /// select-project scans ("NonSampling").
  int sampling_users = 10;
  double think_time = 0.0;
  std::function<uint64_t(int user)> dataset_seed = {};
  std::function<uint64_t(int user, int iteration)> job_seed = {};
  std::string sampling_job = {};
  std::string scan_job = {};
  ProviderFactory provider = {};
  double duration = 6.0 * 3600;
};

struct ClosedLoopResult {
  double sampling_jobs_per_hour = 0;
  double non_sampling_jobs_per_hour = 0;
  double cpu_percent = 0;
  double disk_read_kbs = 0;
  double locality_percent = 0;
  double slot_occupancy_percent = 0;
};

Result<ClosedLoopResult> RunClosedLoop(const ClosedLoopCell& cell);

/// Runs every cell on a pool of --threads workers and returns the results
/// in cell order; dies naming `what` on the lowest-index failure.
std::vector<SingleJobResult> RunCells(const BenchOptions& options,
                                      const std::vector<SingleJobCell>& cells,
                                      const char* what);
std::vector<ClosedLoopResult> RunCells(const BenchOptions& options,
                                       const std::vector<ClosedLoopCell>& cells,
                                       const char* what);

/// The heterogeneous workload of Figs. 7-8 and Section V-F: the first
/// `sampling_users` users sample under `policy` (uniform data, per the
/// paper), the rest scan; every user thinks 30 s between jobs (Hive client
/// compile/submit/fetch plus Hadoop 0.20 job setup/cleanup).
ClosedLoopCell HeteroCell(testbed::SchedulerKind scheduler,
                          const std::string& policy, int sampling_users,
                          bool divergent_layouts = false,
                          double layout_weight = 0.0);

/// Figs. 7 and 8: runs the policy x sampling-fraction grid of HeteroCells
/// under `scheduler`, prints the (a) Sampling and (b) Non-Sampling
/// throughput tables, adds one JSON cell per grid cell tagged `figure`, and
/// returns the Non-Sampling rows in policy order C, LA, MA, HA, Hadoop.
std::vector<std::vector<double>> RunHeteroFigure(
    const BenchOptions& options, testbed::SchedulerKind scheduler,
    const char* figure, JsonWriter* json);

}  // namespace dmr::bench

#endif  // DMR_BENCH_CELLS_H_
