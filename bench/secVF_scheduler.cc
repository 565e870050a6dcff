/// \file
/// Reproduces the Section V-F scheduler measurements: data locality (% of
/// map tasks reading from their home node) and slot occupancy (% of map
/// slots in use) for the default FIFO scheduler vs the Fair Scheduler, on
/// the heterogeneous workload (sampling fraction 0.4, LA policy).
///
/// Paper numbers: Fair Scheduler 88 % locality / 18 % occupancy; default
/// scheduler 57 % locality / 44 % occupancy — higher locality costs
/// occupancy because delay scheduling holds slots idle waiting for local
/// work.
///
/// Extension (DESIGN.md §16): three more Fair cells re-run the workload
/// with divergent per-replica layouts (every partition's copies cycle
/// row/columnar/indexed) at layout weight 0 / 0.5 / 1.0. Weight 0 is the
/// layout-blind baseline on the same divergent data; positive weights let
/// the scheduler trade locality for a better-layout replica, which shows
/// up as recovered occupancy/throughput at a locality cost.

#include <vector>

#include "bench/bench_util.h"
#include "bench/cells.h"
#include "common/table_printer.h"

int main(int argc, char** argv) {
  using namespace dmr;
  bench::BenchOptions options = bench::BenchOptions::Parse(argc, argv);
  bench::ObsSession obs_session(options, "secVF_scheduler");
  bench::PrintHeader(
      "Section V-F: scheduler impact on locality and occupancy",
      "Grover & Carey, ICDE 2012, Section V-F",
      "Fair Scheduler: much higher locality, much lower occupancy and lower "
      "throughput than FIFO (paper: 88%/18% vs 57%/44%); layout-aware "
      "weights recover throughput on divergent-layout replicas");

  using testbed::SchedulerKind;
  const std::vector<const char*> labels = {
      "default (FIFO)", "Fair Scheduler", "Fair+layouts w=0.0",
      "Fair+layouts w=0.5", "Fair+layouts w=1.0"};
  const std::vector<bench::ClosedLoopCell> cells = {
      bench::HeteroCell(SchedulerKind::kFifo, "LA", 4),
      bench::HeteroCell(SchedulerKind::kFair, "LA", 4),
      bench::HeteroCell(SchedulerKind::kFair, "LA", 4, true, 0.0),
      bench::HeteroCell(SchedulerKind::kFair, "LA", 4, true, 0.5),
      bench::HeteroCell(SchedulerKind::kFair, "LA", 4, true, 1.0),
  };
  std::vector<bench::ClosedLoopResult> results =
      bench::RunCells(options, cells, "scheduler comparison");

  bench::JsonWriter json;
  TablePrinter table({"scheduler", "locality (%)", "slot occupancy (%)",
                      "Sampling (jobs/h)", "NonSampling (jobs/h)"});
  for (size_t i = 0; i < results.size(); ++i) {
    const bench::ClosedLoopResult& r = results[i];
    table.AddNumericRow(labels[i],
                        {r.locality_percent, r.slot_occupancy_percent,
                         r.sampling_jobs_per_hour,
                         r.non_sampling_jobs_per_hour},
                        1);
    json.AddCell()
        .Set("figure", "secVF")
        .Set("scheduler", labels[i])
        .Set("divergent_layouts", cells[i].divergent_layouts)
        .Set("layout_weight", cells[i].layout_weight)
        .Set("locality_percent", r.locality_percent)
        .Set("slot_occupancy_percent", r.slot_occupancy_percent)
        .Set("sampling_jobs_per_hour", r.sampling_jobs_per_hour)
        .Set("non_sampling_jobs_per_hour", r.non_sampling_jobs_per_hour);
  }
  table.Print();
  bench::MaybeWriteJson(options, json);
  return 0;
}
