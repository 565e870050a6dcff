#include "bench/cells.h"

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/table_printer.h"
#include "dfs/file_system.h"
#include "exec/parallel.h"
#include "tpch/dataset_catalog.h"
#include "workload/workload_driver.h"

namespace dmr::bench {
namespace {

constexpr int kRepeats = 5;
constexpr int kUsers = 10;
constexpr int kUserScale = 100;
constexpr double kWarmup = 1800.0;

Result<dynamic::GrowthPolicy> PolicyOf(
    const std::optional<dynamic::GrowthPolicy>& growth,
    const std::string& policy) {
  if (growth) return *growth;
  return dynamic::PolicyTable::BuiltIn().Find(policy);
}

/// Builds a sampling job with the runner-wide sample size, then swaps in
/// the cell's provider, if it has one.
Result<mapred::JobSubmission> MakeJob(const testbed::Dataset& dataset,
                                      const dynamic::GrowthPolicy& policy,
                                      sampling::SamplingJobOptions options,
                                      uint64_t seed,
                                      const ProviderFactory& provider) {
  options.sample_size = tpch::kPaperSampleSize;
  options.seed = seed;
  DMR_ASSIGN_OR_RETURN(
      mapred::JobSubmission submission,
      sampling::MakeSamplingJob(dataset.file, dataset.matching_per_partition,
                                policy, options));
  if (provider) submission.input_provider = provider(policy, seed);
  return submission;
}

template <typename R, typename Cell>
std::vector<R> RunAll(const BenchOptions& options,
                      const std::vector<Cell>& cells,
                      Result<R> (*run)(const Cell&), const char* what) {
  exec::ThreadPool pool = options.MakePool();
  auto run_cell = [&](size_t i) { return run(cells[i]); };
  return UnwrapOrDie(exec::ParallelMap<R>(&pool, cells.size(), run_cell),
                     what);
}

}  // namespace

Result<SingleJobResult> RunSingleJob(const SingleJobCell& cell) {
  DMR_ASSIGN_OR_RETURN(dynamic::GrowthPolicy policy,
                       PolicyOf(cell.growth, cell.policy));
  SingleJobResult sum;
  for (int run = 0; run < kRepeats; ++run) {
    // A fresh cluster per run: the paper's runs are back-to-back on an
    // idle cluster, and a fresh testbed avoids cross-run interference.
    testbed::Testbed bed(cluster::ClusterConfig::SingleUser());
    bed.Annotate("cell", cell.cell);
    bed.Annotate("policy", cell.policy);
    bed.Annotate("z", cell.z);
    bed.Annotate("repeat", static_cast<int64_t>(run));
    DMR_ASSIGN_OR_RETURN(
        testbed::Dataset dataset,
        testbed::MakeLineItemDataset(&bed.fs(), cell.scale, cell.z,
                                     cell.dataset_seed(run)));
    DMR_ASSIGN_OR_RETURN(mapred::JobSubmission submission,
                         MakeJob(dataset, policy, cell.job,
                                 cell.job_seed(run), cell.provider));
    DMR_ASSIGN_OR_RETURN(mapred::JobStats stats,
                         bed.RunJobToCompletion(std::move(submission)));
    sum.response_time += stats.response_time();
    sum.partitions += stats.splits_processed;
    sum.increments += stats.input_increments;
  }
  return SingleJobResult{sum.response_time / kRepeats,
                         sum.partitions / kRepeats,
                         sum.increments / kRepeats};
}

Result<ClosedLoopResult> RunClosedLoop(const ClosedLoopCell& cell) {
  testbed::Testbed bed(cluster::ClusterConfig::MultiUser(), cell.scheduler,
                       cell.locality_wait, cell.layout_weight);
  bed.Annotate("cell", cell.cell);
  bed.Annotate("policy", cell.policy);
  bed.Annotate("z", cell.z);
  DMR_ASSIGN_OR_RETURN(dynamic::GrowthPolicy policy,
                       PolicyOf(cell.growth, cell.policy));

  // Each user works against a private copy of the dataset (the paper does
  // this to defeat buffer-cache sharing; here it also decorrelates skew
  // realizations across users).
  std::vector<testbed::Dataset> datasets;
  for (int u = 0; u < kUsers; ++u) {
    DMR_ASSIGN_OR_RETURN(
        testbed::Dataset dataset,
        testbed::MakeLineItemDataset(&bed.fs(), kUserScale, cell.z,
                                     cell.dataset_seed(u),
                                     "u" + std::to_string(u)));
    if (cell.divergent_layouts) dfs::ApplyDivergentLayouts(&dataset.file);
    datasets.push_back(std::move(dataset));
  }

  workload::WorkloadDriver driver(&bed.client());
  for (int u = 0; u < kUsers; ++u) {
    workload::UserSpec user;
    user.name = "user" + std::to_string(u);
    user.think_time = cell.think_time;
    const testbed::Dataset* dataset = &datasets[u];
    if (u < cell.sampling_users) {
      user.job_class = "Sampling";
      user.make_job = [&cell, &policy, dataset, u](int iteration) {
        return MakeJob(*dataset, policy,
                       {.job_name = cell.sampling_job,
                        .user = "user" + std::to_string(u)},
                       cell.job_seed(u, iteration), cell.provider);
      };
    } else {
      user.job_class = "NonSampling";
      user.make_job = [&cell, dataset, u](int) {
        return sampling::MakeSelectProjectJob(
            dataset->file, dataset->matching_per_partition, cell.scan_job,
            "user" + std::to_string(u));
      };
    }
    driver.AddUser(std::move(user));
  }

  DMR_ASSIGN_OR_RETURN(
      workload::WorkloadReport report,
      driver.Run({.duration = cell.duration, .warmup = kWarmup}));
  cluster::ClusterMonitor& monitor = bed.monitor();
  return ClosedLoopResult{
      report.For("Sampling").throughput_jobs_per_hour,
      report.For("NonSampling").throughput_jobs_per_hour,
      monitor.cpu_percent().MeanAfter(kWarmup),
      monitor.disk_read_kbs().MeanAfter(kWarmup),
      bed.tracker().LocalityPercent(),
      monitor.slot_occupancy_percent().MeanAfter(kWarmup)};
}

std::vector<SingleJobResult> RunCells(const BenchOptions& options,
                                      const std::vector<SingleJobCell>& cells,
                                      const char* what) {
  return RunAll(options, cells, &RunSingleJob, what);
}

std::vector<ClosedLoopResult> RunCells(const BenchOptions& options,
                                       const std::vector<ClosedLoopCell>& cells,
                                       const char* what) {
  return RunAll(options, cells, &RunClosedLoop, what);
}

ClosedLoopCell HeteroCell(testbed::SchedulerKind scheduler,
                          const std::string& policy, int sampling_users,
                          bool divergent_layouts, double layout_weight) {
  std::string cell = std::string(scheduler == testbed::SchedulerKind::kFifo
                                     ? "hetero-fifo-f"
                                     : "hetero-fair-f") +
                     std::to_string(sampling_users);
  if (divergent_layouts) {
    char suffix[32];
    std::snprintf(suffix, sizeof(suffix), "-layout-w%.2f", layout_weight);
    cell += suffix;
  }
  return {.cell = cell,
          .policy = policy,
          .scheduler = scheduler,
          .layout_weight = layout_weight,
          .divergent_layouts = divergent_layouts,
          .sampling_users = sampling_users,
          .think_time = 30.0,
          .dataset_seed = [](int u) -> uint64_t { return 7000 + 311 * u; },
          .job_seed = [](int u, int it) {
            return 400000 + 7919ULL * u + 104729ULL * it;
          },
          .sampling_job = "hetero-sampling",
          .scan_job = "hetero-sp"};
}

std::vector<std::vector<double>> RunHeteroFigure(
    const BenchOptions& options, testbed::SchedulerKind scheduler,
    const char* figure, JsonWriter* json) {
  const std::vector<std::string> policies = {"C", "LA", "MA", "HA", "Hadoop"};
  const std::vector<int> sampling_counts = {2, 4, 6, 8};
  std::vector<ClosedLoopCell> cells;
  for (const std::string& policy : policies) {
    for (int count : sampling_counts) {
      cells.push_back(HeteroCell(scheduler, policy, count));
    }
  }
  std::vector<ClosedLoopResult> results = RunCells(options, cells, figure);

  std::vector<std::vector<double>> sampling_rows(policies.size());
  std::vector<std::vector<double>> non_sampling_rows(policies.size());
  for (size_t p = 0; p < policies.size(); ++p) {
    for (size_t c = 0; c < sampling_counts.size(); ++c) {
      const ClosedLoopResult& r = results[p * sampling_counts.size() + c];
      sampling_rows[p].push_back(r.sampling_jobs_per_hour);
      non_sampling_rows[p].push_back(r.non_sampling_jobs_per_hour);
      json->AddCell()
          .Set("figure", figure)
          .Set("policy", policies[p])
          .Set("sampling_fraction", sampling_counts[c] / 10.0)
          .Set("sampling_jobs_per_hour", r.sampling_jobs_per_hour)
          .Set("non_sampling_jobs_per_hour", r.non_sampling_jobs_per_hour);
    }
  }

  auto print = [&](const char* title,
                   const std::vector<std::vector<double>>& rows) {
    std::printf("%s", title);
    TablePrinter table(
        {"policy", "frac=0.2", "frac=0.4", "frac=0.6", "frac=0.8"});
    for (size_t p = 0; p < policies.size(); ++p) {
      table.AddNumericRow(policies[p], rows[p], 1);
    }
    table.Print();
  };
  print("(a) Sampling class throughput (jobs/hour)\n", sampling_rows);
  print("\n(b) Non-Sampling class throughput (jobs/hour)\n",
        non_sampling_rows);
  return non_sampling_rows;
}

}  // namespace dmr::bench
