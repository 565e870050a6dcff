/// \file
/// Reproduces Figure 6: homogeneous multi-user workload. 10 concurrent users
/// all run the same predicate-based sampling query, each against a private
/// copy of the 100x LINEITEM data, on a cluster with 16 map slots per node.
/// Reports per-policy throughput (jobs/hour), mean CPU utilization (%) and
/// mean disk reads (KB/s per disk), under a uniform and a highly skewed
/// (z = 2) distribution of the matching records.
///
/// Cells (policy x skew panel) are independent simulations and fan out
/// across hardware threads; results are printed in deterministic order.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/cells.h"
#include "common/table_printer.h"

int main(int argc, char** argv) {
  using namespace dmr;
  bench::BenchOptions options = bench::BenchOptions::Parse(argc, argv);
  bench::ObsSession obs_session(options, "fig6_homogeneous");
  bench::PrintHeader(
      "Figure 6: homogeneous multi-user workload (10 users, 100x data)",
      "Grover & Carey, ICDE 2012, Fig. 6",
      "Hadoop gives the lowest throughput with the highest CPU/disk usage; "
      "throughput rises as policies get less aggressive (HA -> MA -> LA), "
      "with C slightly below LA; high skew lowers throughput and raises "
      "resource usage for dynamic policies, Hadoop unaffected");

  const std::vector<std::string> policies = {"C", "LA", "MA", "HA", "Hadoop"};
  struct Panel {
    const char* label;
    double z;
  };
  const std::vector<Panel> panels = {
      {"uniform distribution of matching records", 0.0},
      {"highly skewed distribution (z = 2)", 2.0}};

  std::vector<bench::ClosedLoopCell> cells;
  for (const Panel& panel : panels) {
    for (const std::string& policy : policies) {
      cells.push_back(
          {.cell = "multiuser-s100",
           .policy = policy,
           .z = panel.z,
           .dataset_seed = [](int u) -> uint64_t { return 9000 + 131 * u; },
           .job_seed = [](int u, int it) {
             return 100000 + 7919ULL * u + 104729ULL * it;
           },
           .sampling_job = "fig6-" + policy});
    }
  }
  std::vector<bench::ClosedLoopResult> results =
      bench::RunCells(options, cells, "figure 6 grid");

  bench::JsonWriter json;
  for (size_t panel = 0; panel < panels.size(); ++panel) {
    TablePrinter table({"policy", "throughput (jobs/h)", "CPU util (%)",
                        "disk reads (KB/s)"});
    std::printf("Figure 6 (%s)\n", panels[panel].label);
    for (size_t p = 0; p < policies.size(); ++p) {
      const bench::ClosedLoopResult& r = results[panel * policies.size() + p];
      table.AddNumericRow(policies[p], {r.sampling_jobs_per_hour,
                                        r.cpu_percent, r.disk_read_kbs}, 1);
      json.AddCell()
          .Set("figure", "fig6")
          .Set("policy", policies[p])
          .Set("z", panels[panel].z)
          .Set("throughput_jobs_per_hour", r.sampling_jobs_per_hour)
          .Set("cpu_percent", r.cpu_percent)
          .Set("disk_read_kbs", r.disk_read_kbs);
    }
    table.Print();
    std::printf("\n");
  }
  bench::MaybeWriteJson(options, json);
  return 0;
}
