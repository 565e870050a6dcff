/// \file
/// Reproduces Figure 7: heterogeneous multi-user workload under the default
/// (FIFO) scheduler. A fraction (0.2..0.8) of 10 users run dynamic sampling
/// jobs under each policy; the rest run static select-project scans.
/// Reports per-class throughput (jobs/hour). The policy x fraction grid
/// fans out across hardware threads.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "bench/cells.h"

int main(int argc, char** argv) {
  using namespace dmr;
  bench::BenchOptions options = bench::BenchOptions::Parse(argc, argv);
  bench::ObsSession obs_session(options, "fig7_hetero_fifo");
  bench::PrintHeader(
      "Figure 7: heterogeneous workload, default (FIFO) scheduler",
      "Grover & Carey, ICDE 2012, Fig. 7 (a), (b)",
      "Sampling throughput rises with the sampling fraction; Non-Sampling "
      "throughput is lowest when the Sampling class runs the Hadoop policy "
      "and improves ~3x (frac 0.2) to ~8x (frac 0.8) under LA; conservative "
      "policies (C/LA) maximize both classes");
  bench::JsonWriter json;
  std::vector<std::vector<double>> non_sampling = bench::RunHeteroFigure(
      options, testbed::SchedulerKind::kFifo, "fig7", &json);

  // The paper highlights the LA-vs-Hadoop improvement factors (3x at 20 %,
  // up to 8x at 80 %).
  const std::vector<double>& la = non_sampling[1];
  const std::vector<double>& hadoop = non_sampling[4];
  std::printf("\nNon-Sampling throughput gain, LA vs Hadoop: ");
  for (size_t i = 0; i < la.size(); ++i) {
    double gain = hadoop[i] > 0 ? la[i] / hadoop[i] : 0.0;
    std::printf("frac=%.1f: %.1fx  ", 0.2 * (i + 1), gain);
  }
  std::printf("\n");
  bench::MaybeWriteJson(options, json);
  return 0;
}
