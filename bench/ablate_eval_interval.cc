/// \file
/// Ablation: EvaluationInterval sweep (the paper fixes 4 s, Section III-B).
/// Short intervals react quickly but would cost real evaluation overhead;
/// long intervals leave the job starved between intakes. The per-interval
/// cells fan out across hardware threads.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/cells.h"
#include "common/table_printer.h"
#include "dynamic/growth_policy.h"

int main(int argc, char** argv) {
  using namespace dmr;
  bench::BenchOptions options = bench::BenchOptions::Parse(argc, argv);
  bench::ObsSession obs_session(options, "ablate_eval_interval");
  bench::PrintHeader(
      "Ablation: evaluation interval sweep (LA policy, 20x, z=1)",
      "DESIGN.md ablation #3 (supports the paper's 4 s choice)",
      "response time grows with the interval once it dominates the wait "
      "between intakes; very short intervals give diminishing returns");

  const std::vector<double> intervals = {0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0};
  std::vector<bench::SingleJobCell> cells;
  for (double interval : intervals) {
    char cell[48];
    std::snprintf(cell, sizeof(cell), "eval-interval-%g", interval);
    cells.push_back(
        {.cell = cell,
         .policy = "LA",
         .growth = bench::UnwrapOrDie(
             dynamic::GrowthPolicy::Create("LA-sweep",
                                           "LA with custom interval", 10.0,
                                           "AS > 0 ? 0.2 * AS : 0.1 * TS",
                                           interval),
             "policy"),
         .z = 1.0,
         .dataset_seed = [](int run) -> uint64_t { return 900 + 13 * run; },
         .job_seed = [](int run) -> uint64_t { return 7100 + run; },
         .job = {.job_name = "ablate-interval"}});
  }
  std::vector<bench::SingleJobResult> rows =
      bench::RunCells(options, cells, "interval sweep");

  bench::JsonWriter json;
  TablePrinter table({"interval (s)", "mean response time (s)"});
  for (size_t i = 0; i < intervals.size(); ++i) {
    table.AddNumericRow(std::to_string(intervals[i]).substr(0, 4),
                        {rows[i].response_time}, 1);
    json.AddCell()
        .Set("study", "ablate_eval_interval")
        .Set("interval_s", intervals[i])
        .Set("mean_response_time_s", rows[i].response_time);
  }
  table.Print();
  bench::MaybeWriteJson(options, json);
  return 0;
}
