/// \file
/// Ablation: delay-scheduling locality wait sweep for the Fair Scheduler on
/// the heterogeneous workload. Longer waits buy locality with idle slots —
/// the dial behind the paper's Section V-F observation. The per-wait cells
/// fan out across hardware threads.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/cells.h"
#include "common/table_printer.h"

int main(int argc, char** argv) {
  using namespace dmr;
  bench::BenchOptions options = bench::BenchOptions::Parse(argc, argv);
  bench::ObsSession obs_session(options, "ablate_locality_wait");
  bench::PrintHeader(
      "Ablation: Fair Scheduler locality-wait sweep (hetero workload, LA)",
      "DESIGN.md ablation #4 (the dial behind Section V-F)",
      "wait=0 behaves like plain fair sharing (lower locality, higher "
      "occupancy); longer waits raise locality and idle more slots");

  const std::vector<double> waits = {0.0, 2.5, 5.0, 10.0, 20.0};
  std::vector<bench::ClosedLoopCell> cells;
  for (double wait : waits) {
    char cell[48];
    std::snprintf(cell, sizeof(cell), "locality-wait-%g", wait);
    cells.push_back(
        {.cell = cell,
         .policy = "LA",
         .scheduler = testbed::SchedulerKind::kFair,
         .locality_wait = wait,
         .sampling_users = 4,
         .think_time = 30.0,
         .dataset_seed = [](int u) -> uint64_t { return 6000 + 29 * u; },
         .job_seed = [](int u, int it) {
           return 88000 + 101ULL * u + 7919ULL * it;
         },
         .sampling_job = "ablate-wait-sampling",
         .scan_job = "ablate-wait-sp",
         .duration = 4.0 * 3600});
  }
  std::vector<bench::ClosedLoopResult> rows =
      bench::RunCells(options, cells, "locality-wait sweep");

  bench::JsonWriter json;
  TablePrinter table({"locality wait (s)", "locality (%)", "occupancy (%)",
                      "Sampling (jobs/h)", "NonSampling (jobs/h)"});
  for (size_t i = 0; i < waits.size(); ++i) {
    const bench::ClosedLoopResult& row = rows[i];
    table.AddNumericRow(std::to_string(waits[i]).substr(0, 4),
                        {row.locality_percent, row.slot_occupancy_percent,
                         row.sampling_jobs_per_hour,
                         row.non_sampling_jobs_per_hour},
                        1);
    json.AddCell()
        .Set("study", "ablate_locality_wait")
        .Set("locality_wait_s", waits[i])
        .Set("locality_percent", row.locality_percent)
        .Set("occupancy_percent", row.slot_occupancy_percent)
        .Set("sampling_jobs_per_hour", row.sampling_jobs_per_hour)
        .Set("non_sampling_jobs_per_hour", row.non_sampling_jobs_per_hour);
  }
  table.Print();
  bench::MaybeWriteJson(options, json);
  return 0;
}
