/// \file
/// Reproduces Figure 8: the heterogeneous workload of Figure 7 re-run under
/// the Fair Scheduler (with delay scheduling). The paper's finding: the same
/// policy ordering holds, but overall throughput drops relative to FIFO
/// because delay scheduling trades slot occupancy for locality.
/// The policy x fraction grid fans out across hardware threads.

#include "bench/bench_util.h"
#include "bench/cells.h"

int main(int argc, char** argv) {
  using namespace dmr;
  bench::BenchOptions options = bench::BenchOptions::Parse(argc, argv);
  bench::ObsSession obs_session(options, "fig8_hetero_fair");
  bench::PrintHeader(
      "Figure 8: heterogeneous workload, Fair Scheduler",
      "Grover & Carey, ICDE 2012, Fig. 8 (a), (b)",
      "Same ordering as Figure 7 (conservative sampling policies lift both "
      "classes; Hadoop policy worst), with lower absolute throughput than "
      "the FIFO scheduler due to delay scheduling");
  bench::JsonWriter json;
  bench::RunHeteroFigure(options, testbed::SchedulerKind::kFair, "fig8", &json);
  bench::MaybeWriteJson(options, json);
  return 0;
}
