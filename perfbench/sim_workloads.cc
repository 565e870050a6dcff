/// \file
/// The two simulation workloads. Each experiment cell is one closed-loop
/// multi-user simulation on `ClusterConfig::MultiUser()` (10 nodes x 16 map
/// slots), run in this single-threaded process; a run repeats the cell
/// until its measured time is spent and reports the median set-up and the
/// 90th-percentile time over the cells.
///
///  - fig6_closed_loop (paper Fig. 6, left panel): 10 users, each with a
///    private 100x LINEITEM copy, run LA sampling jobs back to back at
///    z = 0 under FIFO with metrics off. Thousands of short dynamic jobs
///    make per-job control-plane work dominate.
///  - fig8_fair_observed (paper Fig. 8 and Section V-F, sampling fraction
///    0.2): 2 LA sampling users beside 8 full-scan select-project users,
///    30 s think time, Fair scheduler with delay scheduling, and
///    observability on (metrics, ledger, critical path, timeline) through
///    bench::ObsSession. Few wide jobs make per-task work dominate.

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/json.h"
#include "dynamic/growth_policy.h"
#include "perfbench/perfbench.h"
#include "prof/prof.h"
#include "sampling/sampling_job.h"
#include "testbed/testbed.h"
#include "tpch/dataset_catalog.h"
#include "workload/workload_driver.h"

namespace dmr::perfbench {
namespace {

constexpr int kUsers = 10;
constexpr int kScale = 100;
constexpr double kWarmup = 1800.0;
/// Fewest cells a run measures, however long each takes.
constexpr int kMinCells = 3;

struct Scenario {
  const char* name;
  testbed::SchedulerKind scheduler;
  int sampling_users;  // users [0, sampling_users) sample; the rest scan
  double think_time;
  double duration;  // virtual seconds per cell
  bool observed;
};

/// Bytes of each top-level member of a JSON object document.
std::map<std::string, double> TopLevelBytes(const std::string& text) {
  std::map<std::string, double> sizes;
  int depth = 0;
  bool in_string = false;
  std::string key;
  size_t key_start = 0;
  size_t value_start = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
        if (depth == 1 && key.empty()) {
          key = text.substr(key_start, i - key_start);
        }
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
      if (depth == 1 && key.empty()) key_start = i + 1;
    } else if (c == ':' && depth == 1) {
      value_start = i + 1;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']' || (c == ',' && depth == 1)) {
      if (depth == 1 && !key.empty()) {
        sizes[key] = static_cast<double>(i - value_start);
        key.clear();
      }
      if (c != ',') --depth;
    }
  }
  return sizes;
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// One experiment cell: its simulated statistics and its host timings.
struct Cell {
  Status status;
  uint64_t jobs = 0;  // submissions built by make_job
  uint64_t events = 0;
  /// Canonical text of the simulated statistics (the digest input).
  std::string stats;
  double sampling_jobs_per_h = 0;
  double response_p50_s = 0;
  double locality_pct = 0;
  double occupancy_pct = 0;
  double partitions_per_job = 0;
  double records_per_job = 0;
  double setup_s = 0;
  double wall_s = 0;
  double peak_rss_mb = 0;
  // Observed scenario only.
  double report_bytes = 0;
  double timeline_bytes = 0;
  std::map<std::string, double> report_sections;
  double useful_frac = 0;
  double wasted_frac = 0;
  double queueing_frac = 0;
};

/// Checks the observability files a user of the observed cell receives and
/// reads the per-layer numbers out of them.
Status ReadObsOutputs(const std::string& report_path,
                      const std::string& timeline_path, Cell* cell) {
  DMR_ASSIGN_OR_RETURN(std::string report, ReadFile(report_path));
  DMR_ASSIGN_OR_RETURN(std::string timeline, ReadFile(timeline_path));
  cell->report_bytes = static_cast<double>(report.size());
  cell->timeline_bytes = static_cast<double>(timeline.size());
  DMR_ASSIGN_OR_RETURN(json::JsonValue parsed, json::JsonParse(report));
  DMR_RETURN_NOT_OK(json::JsonParse(timeline).status());
  cell->report_sections = TopLevelBytes(report);

  const json::JsonValue* ledger = parsed.Find("ledger");
  const json::JsonValue* cells =
      ledger != nullptr ? ledger->Find("cells") : nullptr;
  if (cells == nullptr || !cells->is_array() || cells->items.size() != 1) {
    return Status::Internal("report has no single ledger cell");
  }
  const json::JsonValue& entry = cells->items[0];
  const json::JsonValue* categories = entry.Find("categories");
  double total = entry.NumberOr("total_slot_seconds", 0.0);
  if (categories == nullptr || total <= 0.0) {
    return Status::Internal("ledger cell has no slot-time categories");
  }
  cell->useful_frac = categories->NumberOr("useful", 0.0) / total;
  cell->wasted_frac = categories->NumberOr("wasted", 0.0) / total;
  cell->queueing_frac = categories->NumberOr("queueing", 0.0) / total;
  return Status::OK();
}

Cell RunCell(const Scenario& scenario, const RunOptions& options,
             uint64_t cell_id) {
  Cell cell;
  const std::string report_path =
      options.scratch_dir + "/" + scenario.name + "-report.json";
  const std::string timeline_path =
      options.scratch_dir + "/" + scenario.name + "-timeline.json";

  const uint64_t setup_start = NowNs();
  std::unique_ptr<bench::ObsSession> session;
  if (scenario.observed) {
    bench::BenchOptions obs_options;
    obs_options.metrics_path = report_path;
    obs_options.timeline_path = timeline_path;
    session = std::make_unique<bench::ObsSession>(obs_options, scenario.name);
  }
  std::unique_ptr<testbed::Testbed> bed;
  {
    ScopedSpan span("testbed.build", cell_id);
    bed = std::make_unique<testbed::Testbed>(
        cluster::ClusterConfig::MultiUser(), scenario.scheduler,
        /*locality_wait=*/5.0);
  }
  bed->Annotate("cell", scenario.name);
  bed->Annotate("policy", "LA");
  Result<dynamic::GrowthPolicy> policy =
      dynamic::PolicyTable::BuiltIn().Find("LA");
  if (!policy.ok()) {
    cell.status = policy.status();
    return cell;
  }

  std::vector<testbed::Dataset> datasets;
  for (int u = 0; u < kUsers; ++u) {
    ScopedSpan span("tpch.dataset", cell_id);
    Result<testbed::Dataset> dataset = testbed::MakeLineItemDataset(
        &bed->fs(), kScale, /*z=*/0.0, MixSeed(options.seed, 1, u),
        "u" + std::to_string(u));
    if (!dataset.ok()) {
      cell.status = dataset.status();
      return cell;
    }
    datasets.push_back(std::move(*dataset));
  }

  workload::WorkloadDriver driver(&bed->client());
  for (int u = 0; u < kUsers; ++u) {
    workload::UserSpec user;
    user.name = "user" + std::to_string(u);
    user.think_time = scenario.think_time;
    const bool sampling = u < scenario.sampling_users;
    user.job_class = sampling ? "Sampling" : "NonSampling";
    const testbed::Dataset* dataset = &datasets[u];
    user.make_job = [&cell, dataset, policy = *policy, sampling, u,
                     seed = options.seed](
                        int iteration) -> Result<mapred::JobSubmission> {
      ScopedSpan span("sampling.make_job", cell.jobs++);
      if (!sampling) {
        return sampling::MakeSelectProjectJob(
            dataset->file, dataset->matching_per_partition, "perfbench-scan",
            "user" + std::to_string(u));
      }
      sampling::SamplingJobOptions job;
      job.job_name = "perfbench-sampling";
      job.user = "user" + std::to_string(u);
      job.sample_size = tpch::kPaperSampleSize;
      job.seed = MixSeed(seed, 2 + u, iteration);
      return sampling::MakeSamplingJob(
          dataset->file, dataset->matching_per_partition, policy, job);
    };
    driver.AddUser(std::move(user));
  }
  const uint64_t run_start = NowNs();

  Result<workload::WorkloadReport> report = [&] {
    ScopedSpan span("workload.run", cell_id);
    return driver.Run({.duration = scenario.duration, .warmup = kWarmup});
  }();
  if (report.ok()) {
    const workload::ClassReport& sampled = report->For("Sampling");
    const workload::ClassReport& scans = report->For("NonSampling");
    cell.events = bed->sim().events_fired();
    cell.sampling_jobs_per_h = sampled.throughput_jobs_per_hour;
    cell.response_p50_s = sampled.response_times.Median();
    cell.locality_pct = bed->tracker().LocalityPercent();
    cell.occupancy_pct =
        bed->monitor().slot_occupancy_percent().MeanAfter(kWarmup);
    cell.partitions_per_job = sampled.mean_partitions_per_job;
    cell.records_per_job = sampled.mean_records_per_job;
    cell.stats = Format(
        "events=%llu jobs=%llu completed=%d sampling_done=%d scan_done=%d "
        "sampling_per_h=%.17g scan_per_h=%.17g response_p50_s=%.17g "
        "response_mean_s=%.17g scan_response_p50_s=%.17g "
        "partitions_per_job=%.17g records_per_job=%.17g "
        "locality_pct=%.17g local_maps=%lld remote_maps=%lld "
        "slot_occupancy_pct=%.17g cpu_pct=%.17g disk_kbs=%.17g",
        static_cast<unsigned long long>(cell.events),
        static_cast<unsigned long long>(cell.jobs), report->total_completions,
        sampled.completions, scans.completions, cell.sampling_jobs_per_h,
        scans.throughput_jobs_per_hour, cell.response_p50_s,
        sampled.response_times.Mean(), scans.response_times.Median(),
        cell.partitions_per_job, cell.records_per_job, cell.locality_pct,
        static_cast<long long>(bed->tracker().total_local_maps()),
        static_cast<long long>(bed->tracker().total_remote_maps()),
        cell.occupancy_pct, bed->monitor().cpu_percent().MeanAfter(kWarmup),
        bed->monitor().disk_read_kbs().MeanAfter(kWarmup));
  } else {
    cell.status = report.status();
  }
  // The testbed seals its ledger and timeline cell on destruction, before
  // the session writes the report.
  bed.reset();
  if (session != nullptr) {
    ScopedSpan span("obs.seal", cell_id);
    session->Finish();
  }
  const uint64_t run_end = NowNs();
  cell.setup_s = static_cast<double>(run_start - setup_start) / 1e9;
  cell.wall_s = static_cast<double>(run_end - run_start) / 1e9;
  // Read before the output checks below, whose parse tree is the
  // benchmark's memory, not the program's.
  cell.peak_rss_mb = PeakRssMb();

  if (cell.status.ok() && scenario.observed) {
    cell.status = ReadObsOutputs(report_path, timeline_path, &cell);
  }
  return cell;
}

Outcome RunScenario(const Scenario& scenario, const RunOptions& options) {
  Outcome out;
  Tracer& tracer = Tracer::Global();
  Histogram setup_s;
  Histogram wall_s;
  Histogram traced_wall_s;
  std::string setup_samples;
  std::string wall_samples;
  uint64_t traced_jobs = 0;
  uint64_t traced_events = 0;
  Cell first;
  std::string first_digest;

  const uint64_t deadline =
      NowNs() + static_cast<uint64_t>(options.seconds * 1e9);
  uint64_t cell_id = 0;
  for (; cell_id < kMinCells || NowNs() < deadline; ++cell_id) {
    // A traced run alternates plain and traced cells, so the tracing
    // overhead is measured under the same host conditions.
    const bool traced = options.trace && cell_id % 2 == 1;
    if (traced) {
      tracer.set_enabled(true);
      ArmAllocCounting(true);
      prof::Enable();
    }
    Cell cell = RunCell(scenario, options, cell_id);
    if (traced) {
      prof::Disable();
      ArmAllocCounting(false);
      tracer.set_enabled(false);
      traced_wall_s.Add(cell.wall_s);
      traced_jobs += cell.jobs;
      traced_events += cell.events;
    } else {
      wall_s.Add(cell.wall_s);
      wall_samples += Format(" %.4f", cell.wall_s);
    }
    setup_s.Add(cell.setup_s);
    setup_samples += Format(" %.6f", cell.setup_s);

    std::string digest = cell.status.ok() ? Digest(cell.stats) : "error";
    if (cell_id == 0) {
      first = cell;
      first_digest = digest;
      out.notes.push_back("stats " + cell.stats);
      out.notes.push_back("digest " + digest);
    }
    out.attempted += cell.jobs;
    if (!cell.status.ok() || digest != first_digest) {
      out.failed += cell.jobs;
      out.notes.push_back(Format(
          "cell %llu FAILED: %s", static_cast<unsigned long long>(cell_id),
          cell.status.ok() ? ("digest " + digest + " differs").c_str()
                           : cell.status.ToString().c_str()));
    }
  }
  out.notes.push_back("cell wall_s:" + wall_samples);
  out.notes.push_back(Format("cell wall_s median=%.6f p%g=%.6f (n=%zu)",
                             wall_s.Median(), kWallPercentile,
                             wall_s.Percentile(kWallPercentile),
                             wall_s.count()));
  out.notes.push_back("cell setup_s:" + setup_samples);
  out.notes.push_back(Format(
      "cells=%llu jobs_per_cell=%llu virtual_s=%.0f",
      static_cast<unsigned long long>(cell_id),
      static_cast<unsigned long long>(first.jobs), scenario.duration));
  if (scenario.observed) {
    out.notes.push_back(
        Format("report_mb=%.6f MB (report %.0f B + timeline %.0f B)",
               (first.report_bytes + first.timeline_bytes) / 1e6,
               first.report_bytes, first.timeline_bytes));
  }

  if (!options.trace) {
    out.metrics["setup_s"] = setup_s.Median();
    out.metrics["wall_s"] = wall_s.Percentile(kWallPercentile);
    out.metrics["peak_rss_mb"] = first.peak_rss_mb;
    return out;
  }

  ProfView prof_view = ProfView::Seal();
  const auto spans = tracer.Aggregate();
  auto span = [&spans](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? Tracer::Stat{} : it->second;
  };
  const double cells = static_cast<double>(traced_wall_s.count());
  const Tracer::Stat build = span("testbed.build");
  const Tracer::Stat dataset = span("tpch.dataset");
  const Tracer::Stat make_job = span("sampling.make_job");
  const Tracer::Stat run = span("workload.run");
  const Tracer::Stat seal = span("obs.seal");
  const double jobs = static_cast<double>(traced_jobs);
  auto& m = out.metrics;
  m["testbed.build_ms"] = build.total_ns / 1e6 / cells;
  m["tpch.dataset_ms"] = dataset.total_ns / 1e6 / cells;
  m["sampling.make_job_us"] =
      make_job.total_ns / 1e3 / static_cast<double>(make_job.count);
  m["alloc.per_make_job"] =
      make_job.allocs / static_cast<double>(make_job.count);
  m["workload.run_ms"] = run.total_ns / 1e6 / cells;
  m["mapred.host_us_per_job"] = run.self_ns / 1e3 / jobs;
  m["sim.host_ns_per_event"] =
      run.total_ns / static_cast<double>(traced_events);
  m["alloc.per_job"] = (run.allocs - make_job.allocs) / jobs;
  for (const char* phase :
       {"sim.dispatch", "mapred.heartbeat", "mapred.assign_maps",
        "mapred.launch_reduce", "mapred.provider_evaluate"}) {
    m[std::string("prof.") + phase + ".self_ms"] =
        prof_view.Phase(phase).self_ms / cells;
  }
  m["prof.mapred.provider_evaluate.count"] =
      prof_view.Phase("mapred.provider_evaluate").count / cells;
  m["prof.alloc.sim.callback.spill"] =
      prof_view.AllocSiteCount("sim.callback.spill") / cells;

  m["sim.events"] = static_cast<double>(first.events);
  m["workload.jobs"] = static_cast<double>(first.jobs);
  m["workload.sampling_jobs_per_h"] = first.sampling_jobs_per_h;
  m["workload.response_p50_s"] = first.response_p50_s;
  m["mapred.locality_pct"] = first.locality_pct;
  m["cluster.slot_occupancy_pct"] = first.occupancy_pct;
  m["sampling.partitions_per_job"] = first.partitions_per_job;
  m["sampling.useful_ratio"] =
      first.records_per_job > 0
          ? static_cast<double>(tpch::kPaperSampleSize) / first.records_per_job
          : 0.0;

  if (scenario.observed) {
    const auto& sections = first.report_sections;
    double ledger = sections.count("ledger") ? sections.at("ledger") : 0;
    double paths =
        sections.count("critical_path") ? sections.at("critical_path") : 0;
    m["obs.seal_ms"] = seal.total_ns / 1e6 / cells;
    m["obs.bytes.metrics"] = first.report_bytes - ledger - paths;
    m["obs.bytes.ledger"] = ledger;
    m["obs.bytes.critical_path"] = paths;
    m["obs.bytes.timeline"] = first.timeline_bytes;
    m["ledger.useful_frac"] = first.useful_frac;
    m["ledger.wasted_frac"] = first.wasted_frac;
    m["ledger.queueing_frac"] = first.queueing_frac;
  }
  m["trace.overhead_pct"] =
      100.0 * (traced_wall_s.Percentile(kWallPercentile) /
                   wall_s.Percentile(kWallPercentile) -
               1.0);
  for (const std::string& line : tracer.Summary()) out.notes.push_back(line);
  return out;
}

}  // namespace

Outcome RunFig6ClosedLoop(const RunOptions& options) {
  return RunScenario({.name = "fig6_closed_loop",
                      .scheduler = testbed::SchedulerKind::kFifo,
                      .sampling_users = kUsers,
                      .think_time = 0.0,
                      .duration = 6.0 * 3600,
                      .observed = false},
                     options);
}

Outcome RunFig8FairObserved(const RunOptions& options) {
  return RunScenario({.name = "fig8_fair_observed",
                      .scheduler = testbed::SchedulerKind::kFair,
                      .sampling_users = 2,
                      .think_time = 30.0,
                      .duration = 6.0 * 3600,
                      .observed = true},
                     options);
}

}  // namespace dmr::perfbench
