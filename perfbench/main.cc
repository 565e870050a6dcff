/// \file
/// The repository benchmark program. Runs one workload and prints, as the
/// last line of standard output, one JSON object:
///
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
///
/// With --trace 0 the metrics are the end-to-end ones BENCHMARK.json lists;
/// with --trace 1 they are its per-layer ones (a metric whose layer does no
/// work in the workload reads 0 and is named on an "unavailable" line).
///
/// Usage:
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///             --scratch DIR
/// perfbench/run.py builds this binary and passes DIR.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>

#include "perfbench/perfbench.h"

namespace dmr::perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Keep both lists in step with BENCHMARK.json.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"testbed.build_ms", "ms"},
    {"tpch.dataset_ms", "ms"},
    {"tpch.materialize_ms", "ms"},
    {"sampling.make_job_us", "us"},
    {"alloc.per_make_job", "count"},
    {"workload.run_ms", "ms"},
    {"mapred.host_us_per_job", "us"},
    {"sim.host_ns_per_event", "ns"},
    {"alloc.per_job", "count"},
    {"prof.sim.dispatch.self_ms", "ms"},
    {"prof.mapred.heartbeat.self_ms", "ms"},
    {"prof.mapred.assign_maps.self_ms", "ms"},
    {"prof.mapred.launch_reduce.self_ms", "ms"},
    {"prof.mapred.provider_evaluate.self_ms", "ms"},
    {"prof.mapred.provider_evaluate.count", "count"},
    {"prof.alloc.sim.callback.spill", "count"},
    {"sim.events", "count"},
    {"workload.jobs", "count"},
    {"workload.sampling_jobs_per_h", "1/h"},
    {"workload.response_p50_s", "s"},
    {"mapred.locality_pct", "%"},
    {"cluster.slot_occupancy_pct", "%"},
    {"sampling.partitions_per_job", "count"},
    {"sampling.useful_ratio", "ratio"},
    {"obs.seal_ms", "ms"},
    {"obs.bytes.metrics", "B"},
    {"obs.bytes.ledger", "B"},
    {"obs.bytes.critical_path", "B"},
    {"obs.bytes.timeline", "B"},
    {"ledger.useful_frac", "ratio"},
    {"ledger.wasted_frac", "ratio"},
    {"ledger.queueing_frac", "ratio"},
    {"hive.compile_us", "us"},
    {"exec.execute_ms.p50", "ms"},
    {"exec.execute_ms.tail", "ms"},
    {"exec.cpu_ms_per_query", "ms"},
    {"exec.tasks_per_query", "count"},
    {"exec.rounds_per_query", "count"},
    {"exec.rows_scanned_per_query", "count"},
    {"exec.scan_rows_per_s", "1/s"},
    {"exec.useful_ratio", "ratio"},
    {"alloc.per_query", "count"},
    {"prof.exec.vectorized_scan.self_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

/// Why a per-layer metric has no value in a workload.
const char* Unavailable(std::string_view metric) {
  for (std::string_view prefix : {"obs.", "ledger."}) {
    if (metric.substr(0, prefix.size()) == prefix) {
      return "observability is off in this workload";
    }
  }
  for (std::string_view prefix : {"tpch.materialize", "hive.", "exec.",
                                   "alloc.per_query", "prof.exec."}) {
    if (metric.substr(0, prefix.size()) == prefix) {
      return "this workload runs no local queries";
    }
  }
  return "this workload runs no simulation";
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload fig6_closed_loop|"
               "fig8_fair_observed|local_sampling --seed N --seconds S "
               "--trace 0|1 --scratch DIR\n",
               why);
  std::exit(2);
}

/// Refuses builds whose timings would mislead: unoptimized or sanitized.
void CheckBuild() {
#if !defined(__OPTIMIZE__) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  std::fprintf(stderr, "perfbench: refusing to report from an unoptimized "
                       "or sanitizer build\n");
  std::exit(3);
#endif
  if (std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr) {
    std::fprintf(stderr, "perfbench: refusing to report from a sanitizer "
                         "build (%s)\n", PERFBENCH_CXX_FLAGS);
    std::exit(3);
  }
}

}  // namespace
}  // namespace dmr::perfbench

int main(int argc, char** argv) {
  using namespace dmr::perfbench;
  std::string workload;
  RunOptions options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string_view flag = argv[i];
    if (i + 1 >= argc) Usage("missing value");
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') Usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(options.seconds >= 0.1) ||
          options.seconds > 600) {
        Usage("bad --seconds (want 0.1..600)");
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        Usage("bad --trace (want 0 or 1)");
      }
      options.trace = value[0] == '1';
      have_trace = true;
    } else if (flag == "--scratch") {
      options.scratch_dir = value;
    } else {
      Usage("unknown flag");
    }
  }
  if (!have_seed || !have_seconds || !have_trace ||
      options.scratch_dir.empty()) {
    Usage("--seed, --seconds, --trace and --scratch are required");
  }
  Outcome (*run)(const RunOptions&) = nullptr;
  if (workload == "fig6_closed_loop") {
    run = RunFig6ClosedLoop;
  } else if (workload == "fig8_fair_observed") {
    run = RunFig8FairObserved;
  } else if (workload == "local_sampling") {
    run = RunLocalSampling;
  } else {
    Usage("unknown --workload");
  }
  CheckBuild();

  Outcome outcome = run(options);

  std::printf("# workload %s seed %llu seconds %g trace %d\n",
              workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0);
  std::printf("# build type=%s compiler=%s nproc=%ld\n", PERFBENCH_BUILD_TYPE,
              __VERSION__, sysconf(_SC_NPROCESSORS_ONLN));
  for (const std::string& note : outcome.notes) {
    std::printf("# %s\n", note.c_str());
  }
  std::printf("# error_rate=%.6f (%llu failed of %llu attempted)\n",
              outcome.attempted > 0
                  ? static_cast<double>(outcome.failed) /
                        static_cast<double>(outcome.attempted)
                  : 1.0,
              static_cast<unsigned long long>(outcome.failed),
              static_cast<unsigned long long>(outcome.attempted));

  std::string metrics;
  auto emit = [&](const MetricSpec& spec) {
    auto it = outcome.metrics.find(spec.name);
    double value = it == outcome.metrics.end() ? 0.0 : it->second;
    if (it == outcome.metrics.end()) {
      std::printf("# unavailable: %s (%s)\n", spec.name,
                  Unavailable(spec.name));
    } else if (!std::isfinite(value)) {
      std::printf("# unavailable: %s (not finite)\n", spec.name);
      value = 0.0;
    }
    std::printf("%s = %.9g %s\n", spec.name, value, spec.unit);
    if (!metrics.empty()) metrics += ", ";
    metrics += Format("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      spec.name, value, spec.unit);
  };
  if (options.trace) {
    for (const MetricSpec& spec : kPerLayer) emit(spec);
  } else {
    for (const MetricSpec& spec : kEndToEnd) emit(spec);
  }
  const bool correct = outcome.attempted > 0 && outcome.failed == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(outcome.attempted),
      static_cast<unsigned long long>(outcome.failed), metrics.c_str());
  return 0;
}
