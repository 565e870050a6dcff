/// \file
/// Extension study: the paper's future-work proposal (Section VII) — a job
/// that re-tunes its policy at runtime from cluster load and observed data
/// characteristics — against the static Table I policies. Two settings:
/// single user on an idle cluster (aggression pays) and 10 concurrent users
/// (conservatism pays). A good adaptive provider should be near the best
/// static policy in *both*. Both provider x skew grids fan out across
/// hardware threads.

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/cells.h"
#include "common/table_printer.h"
#include "dynamic/adaptive_input_provider.h"

int main(int argc, char** argv) {
  using namespace dmr;
  bench::BenchOptions options = bench::BenchOptions::Parse(argc, argv);
  bench::ObsSession obs_session(options, "ablate_adaptive");
  bench::PrintHeader(
      "Extension: runtime-adaptive policy vs static Table I policies",
      "Grover & Carey, ICDE 2012, Section VII (future work)",
      "the adaptive provider should track HA on the idle cluster and "
      "LA/C under contention, without being told which world it is in");

  const std::vector<std::string> kinds = {"Adaptive", "HA", "MA", "LA", "C"};
  const std::vector<double> zs = {0.0, 2.0};

  // The adaptive provider runs LA's job configuration but replaces its
  // provider; the static kinds keep MakeSamplingJob's.
  std::vector<bench::SingleJobCell> single_cells;
  std::vector<bench::ClosedLoopCell> multi_cells;
  for (const std::string& kind : kinds) {
    std::optional<dynamic::GrowthPolicy> growth;
    bench::ProviderFactory provider;
    if (kind == "Adaptive") {
      growth = bench::UnwrapOrDie(dynamic::PolicyTable::BuiltIn().Find("LA"),
                                  "policy");
      provider = [](const dynamic::GrowthPolicy&, uint64_t seed) {
        return std::make_shared<dynamic::AdaptiveInputProvider>(seed);
      };
    }
    for (double z : zs) {
      single_cells.push_back(
          {.cell = "adaptive-single-s40",
           .policy = kind,
           .growth = growth,
           .scale = 40,
           .z = z,
           .dataset_seed = [](int run) -> uint64_t { return 6100 + run; },
           .job_seed = [](int run) -> uint64_t { return 900 + run; },
           .job = {.job_name = "adapt-" + kind, .user = "solo"},
           .provider = provider});
      multi_cells.push_back(
          {.cell = "adaptive-multi-s100",
           .policy = kind,
           .growth = growth,
           .z = z,
           .dataset_seed = [](int u) -> uint64_t { return 6200 + 31 * u; },
           .job_seed = [](int u, int it) {
             return 7000 + 97ULL * u + 13ULL * it;
           },
           .sampling_job = "adapt-" + kind,
           .provider = provider,
           .duration = 4.0 * 3600});
    }
  }
  std::vector<bench::SingleJobResult> single =
      bench::RunCells(options, single_cells, "single-user grid");
  std::vector<bench::ClosedLoopResult> multi =
      bench::RunCells(options, multi_cells, "multi-user grid");

  bench::JsonWriter json;
  std::printf("Single user, idle cluster: response time (s)\n");
  TablePrinter single_table({"provider", "uniform (z=0)", "high skew (z=2)"});
  for (size_t k = 0; k < kinds.size(); ++k) {
    const bench::SingleJobResult* row = &single[k * zs.size()];
    single_table.AddNumericRow(
        kinds[k], {row[0].response_time, row[1].response_time}, 1);
    for (size_t z = 0; z < zs.size(); ++z) {
      json.AddCell()
          .Set("study", "ablate_adaptive")
          .Set("setting", "single_user")
          .Set("provider", kinds[k])
          .Set("z", zs[z])
          .Set("response_time_s", row[z].response_time);
    }
  }
  single_table.Print();

  std::printf("\n10 concurrent users: throughput (jobs/hour)\n");
  TablePrinter multi_table({"provider", "uniform (z=0)", "high skew (z=2)"});
  for (size_t k = 0; k < kinds.size(); ++k) {
    const bench::ClosedLoopResult* row = &multi[k * zs.size()];
    multi_table.AddNumericRow(kinds[k], {row[0].sampling_jobs_per_hour,
                                         row[1].sampling_jobs_per_hour}, 1);
    for (size_t z = 0; z < zs.size(); ++z) {
      json.AddCell()
          .Set("study", "ablate_adaptive")
          .Set("setting", "multi_user")
          .Set("provider", kinds[k])
          .Set("z", zs[z])
          .Set("throughput_jobs_per_hour", row[z].sampling_jobs_per_hour);
    }
  }
  multi_table.Print();
  bench::MaybeWriteJson(options, json);
  return 0;
}
