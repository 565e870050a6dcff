// Pins the simulated outcome of small closed-loop cells that drive every
// per-split and per-attempt path of the mapred control plane: dynamic and
// static jobs, replicated input with divergent replica layouts, FIFO and
// Fair delay scheduling (layout-blind and layout-aware), speculative
// backups, failed attempts that are requeued and stragglers. A refactor of
// the control plane that keeps event order keeps every hash below; one that
// moves a single event, draw or float changes them. The Fair cells also run
// with the obs hub installed, which must leave the simulation as it is and
// pins the ledger and critical-path JSON the cells leave behind.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>

#include "dfs/file_system.h"
#include "dynamic/adaptive_input_provider.h"
#include "obs/book.h"
#include "sampling/sampling_job.h"
#include "testbed/testbed.h"
#include "tpch/dataset_catalog.h"
#include "workload/workload_driver.h"

namespace dmr {
namespace {

/// FNV-1a over the fields of a run, in a fixed order.
class Fnv {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void Add(int64_t v) { Add(static_cast<uint64_t>(v)); }
  void Add(int v) { Add(static_cast<uint64_t>(static_cast<int64_t>(v))); }
  void Add(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    Add(bits);
  }
  void Add(std::string_view bytes) {
    for (char c : bytes) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ULL;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

struct CellHashes {
  uint64_t history = 0;
  uint64_t jobs = 0;
  uint64_t events_fired = 0;
  int completed = 0;
  /// The ledger + critical-path JSON of an observed cell (0 when unobserved).
  uint64_t obs = 0;
  // Coverage of the paths the hashes pin (not pinned themselves).
  int failed = 0;
  int killed = 0;
  int backups = 0;
  int remote = 0;
};

CellHashes RunCell(testbed::SchedulerKind scheduler, double layout_weight) {
  cluster::ClusterConfig config = cluster::ClusterConfig::SingleUser();
  config.speculative_execution = true;
  config.speculative_min_runtime = 5.0;
  config.map_failure_prob = 0.05;
  config.straggler_prob = 0.1;
  config.straggler_slowdown = 4.0;
  config.fault_seed = 11;
  testbed::Testbed bed(config, scheduler, /*locality_wait=*/5.0,
                       layout_weight);

  // Sampled input: three replicas per partition, one of each layout.
  Result<dfs::FileInfo> created = bed.fs().CreateFile(
      "pin-rep3", 40, 750000, 132, dfs::Placement::kRoundRobin,
      /*replication=*/3);
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  dfs::FileInfo sampled = *created;
  dfs::ApplyDivergentLayouts(&sampled);
  std::vector<uint64_t> matching(40);
  for (size_t i = 0; i < matching.size(); ++i) {
    matching[i] = 120 + (i * 37) % 400;
  }
  // Scanned input: one replica, placed on a single disk so most of the
  // scan reads remotely.
  Result<dfs::FileInfo> scanned = bed.fs().CreateFile(
      "pin-scan", 24, 500000, 132, dfs::Placement::kSingleDisk);
  EXPECT_TRUE(scanned.ok()) << scanned.status().ToString();
  std::vector<uint64_t> scan_matching(24, 50);

  dynamic::GrowthPolicy la = *dynamic::PolicyTable::BuiltIn().Find("LA");
  workload::WorkloadDriver driver(&bed.client());

  workload::UserSpec fixed;
  fixed.name = "la";
  fixed.job_class = "Sampling";
  fixed.make_job = [&](int iteration) -> Result<mapred::JobSubmission> {
    sampling::SamplingJobOptions options;
    options.user = "la";
    options.sample_size = 10000;
    options.seed = 1000 + static_cast<uint64_t>(iteration);
    return sampling::MakeSamplingJob(sampled, matching, la, options);
  };
  driver.AddUser(std::move(fixed));

  workload::UserSpec adaptive;
  adaptive.name = "adaptive";
  adaptive.job_class = "Sampling";
  adaptive.make_job = [&](int iteration) -> Result<mapred::JobSubmission> {
    sampling::SamplingJobOptions options;
    options.user = "adaptive";
    options.sample_size = 10000;
    options.seed = 2000 + static_cast<uint64_t>(iteration);
    DMR_ASSIGN_OR_RETURN(
        mapred::JobSubmission submission,
        sampling::MakeSamplingJob(sampled, matching, la, options));
    dynamic::AdaptiveInputProvider::Options provider_options;
    provider_options.use_split_hints = true;
    submission.input_provider =
        std::make_shared<dynamic::AdaptiveInputProvider>(options.seed,
                                                         provider_options);
    return submission;
  };
  driver.AddUser(std::move(adaptive));

  workload::UserSpec scan;
  scan.name = "scan";
  scan.job_class = "NonSampling";
  scan.think_time = 30.0;
  scan.make_job = [&](int) -> Result<mapred::JobSubmission> {
    return sampling::MakeSelectProjectJob(*scanned, scan_matching, "scan",
                                          "scan");
  };
  driver.AddUser(std::move(scan));

  Result<workload::WorkloadReport> report =
      driver.Run({.duration = 7200.0, .warmup = 600.0});
  EXPECT_TRUE(report.ok()) << report.status().ToString();

  CellHashes out;
  Fnv history;
  for (const mapred::JobEvent& e : bed.tracker().history().events()) {
    history.Add(e.time);
    history.Add(e.job_id);
    history.Add(static_cast<int>(e.kind));
    history.Add(e.detail);
    history.Add(e.node_id);
    out.failed += e.kind == mapred::JobEventKind::kMapFailed;
    out.killed += e.kind == mapred::JobEventKind::kAttemptKilled;
    out.backups += e.kind == mapred::JobEventKind::kBackupLaunched;
  }
  out.history = history.value();

  // Per-job outcome: the tracker's view of every job ever submitted, the
  // per-class stats the driver folds from each job's JobStats, and the
  // tracker's locality, backup and pruning totals.
  Fnv jobs;
  for (int id = 1;; ++id) {
    Result<mapred::JobProgress> progress = bed.tracker().GetJobProgress(id);
    if (!progress.ok()) break;
    Result<bool> complete = bed.tracker().IsJobComplete(id);
    out.completed += (complete.ok() && *complete) ? 1 : 0;
    jobs.Add(id);
    jobs.Add(progress->splits_added);
    jobs.Add(progress->splits_total);
    jobs.Add(progress->maps_completed);
    jobs.Add(progress->maps_running);
    jobs.Add(progress->maps_pending);
    jobs.Add(progress->records_processed);
    jobs.Add(progress->output_records);
    jobs.Add(progress->pending_records);
  }
  if (report.ok()) {
    for (const auto& [klass, r] : report->by_class) {
      jobs.Add(r.completions);
      jobs.Add(r.throughput_jobs_per_hour);
      jobs.Add(r.response_times.sum());
      jobs.Add(r.response_times.min());
      jobs.Add(r.response_times.max());
      jobs.Add(r.mean_partitions_per_job);
      jobs.Add(r.mean_records_per_job);
    }
  }
  jobs.Add(bed.tracker().total_local_maps());
  jobs.Add(bed.tracker().total_remote_maps());
  jobs.Add(bed.tracker().total_speculative_maps());
  jobs.Add(bed.tracker().total_pruned_splits());
  out.jobs = jobs.value();
  out.remote = static_cast<int>(bed.tracker().total_remote_maps());
  out.events_fired = bed.sim().events_fired();
  return out;
}

/// RunCell with a book installed on the obs hub as the bench drivers'
/// --metrics installs it; the cell's testbed seals its cell on destruction.
CellHashes RunObservedCell(testbed::SchedulerKind scheduler,
                           double layout_weight) {
  obs::Book book;
  obs::Hub::Install(&book);
  CellHashes out = RunCell(scheduler, layout_weight);
  obs::Hub::Uninstall();
  EXPECT_EQ(book.num_cells(), 1u);
  Fnv json;
  json.Add(book.LedgerJson());
  json.Add(book.CriticalPathJson());
  out.obs = json.value();
  return out;
}

void ExpectPinned(const CellHashes& got, const CellHashes& want) {
  EXPECT_GT(got.completed, 10);
  EXPECT_GT(got.failed, 0);
  EXPECT_GT(got.killed, 0);
  EXPECT_GT(got.backups, 0);
  EXPECT_GT(got.remote, 0);
  EXPECT_EQ(got.history, want.history) << std::hex << "0x" << got.history;
  EXPECT_EQ(got.jobs, want.jobs) << std::hex << "0x" << got.jobs;
  EXPECT_EQ(got.events_fired, want.events_fired);
  EXPECT_EQ(got.completed, want.completed);
}

constexpr CellHashes kFairDelayCell = {.history = 0x8c2b21eb6b2ea433,
                                       .jobs = 0xf786dd00ffa6118f,
                                       .events_fired = 53422,
                                       .completed = 225};
constexpr CellHashes kLayoutAwareFairCell = {.history = 0x843b73a73d398cc1,
                                             .jobs = 0xa24a57f9b56fbe8a,
                                             .events_fired = 59053,
                                             .completed = 255};

TEST(ControlPlanePinTest, FifoCellIsPinned) {
  CellHashes got = RunCell(testbed::SchedulerKind::kFifo, 0.0);
  ExpectPinned(got, {.history = 0xe7fed04f14a9e0a9,
                     .jobs = 0xb7ccddaee7def4fd,
                     .events_fired = 72049,
                     .completed = 450});
}

TEST(ControlPlanePinTest, FairDelayCellIsPinned) {
  ExpectPinned(RunCell(testbed::SchedulerKind::kFair, 0.0), kFairDelayCell);
}

TEST(ControlPlanePinTest, LayoutAwareFairCellIsPinned) {
  ExpectPinned(RunCell(testbed::SchedulerKind::kFair, 1.0),
               kLayoutAwareFairCell);
}

TEST(ControlPlanePinTest, ObservedFairDelayCellIsPinned) {
  CellHashes got = RunObservedCell(testbed::SchedulerKind::kFair, 0.0);
  ExpectPinned(got, kFairDelayCell);
  EXPECT_EQ(got.obs, 0x154523cefef37fa1ULL) << std::hex << "0x" << got.obs;
}

TEST(ControlPlanePinTest, ObservedLayoutAwareFairCellIsPinned) {
  CellHashes got = RunObservedCell(testbed::SchedulerKind::kFair, 1.0);
  ExpectPinned(got, kLayoutAwareFairCell);
  EXPECT_EQ(got.obs, 0x890c225fbbbabe0bULL) << std::hex << "0x" << got.obs;
}

}  // namespace
}  // namespace dmr
