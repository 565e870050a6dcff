/// \file
/// Reproduces Figure 5 of the paper: single-user response times for each
/// policy (Hadoop, HA, MA, LA, C) over dataset scales 5..100 at zero (a),
/// moderate (b) and high (c) skew, plus (d) the number of partitions
/// processed per job under moderate skew.
///
/// The policy x scale x skew grid (75 cells, 5 repeats each) fans out
/// across hardware threads; per-cell seeding is unchanged from the serial
/// driver so the tables are bit-identical at any --threads setting.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/cells.h"
#include "common/table_printer.h"
#include "tpch/dataset_catalog.h"

int main(int argc, char** argv) {
  using namespace dmr;
  bench::BenchOptions options = bench::BenchOptions::Parse(argc, argv);
  bench::ObsSession obs_session(options, "fig5_single_user");
  bench::PrintHeader(
      "Figure 5: single-user workload",
      "Grover & Carey, ICDE 2012, Fig. 5 (a)-(d)",
      "Hadoop grows ~linearly with scale; dynamic policies stay ~flat; "
      "HA <= MA < LA < C on the idle cluster; skew hurts conservative "
      "policies most; Hadoop processes every partition");

  const std::vector<std::string> policies = {"Hadoop", "HA", "MA", "LA", "C"};
  const std::vector<int>& scales = tpch::StandardScales();
  struct Panel {
    const char* label;
    double z;
  };
  const std::vector<Panel> panels = {
      {"a: zero skew", 0.0}, {"b: moderate skew", 1.0}, {"c: high skew", 2.0}};

  // Flatten panel x policy x scale into one fan-out.
  std::vector<bench::SingleJobCell> cells;
  for (const Panel& panel : panels) {
    for (const std::string& policy : policies) {
      for (int scale : scales) {
        auto dataset_seed = [scale](int run) -> uint64_t {
          return 1000 + 17 * run + scale;
        };
        cells.push_back(
            {.cell = "s" + std::to_string(scale),
             .policy = policy,
             .scale = scale,
             .z = panel.z,
             .dataset_seed = dataset_seed,
             .job_seed = [=](int run) { return dataset_seed(run) * 31 + 7; },
             .job = {.job_name = "fig5-" + policy,
                     .predicate_sql = "selectivity 0.05%, z=" +
                                      std::to_string(panel.z)}});
      }
    }
  }
  std::vector<bench::SingleJobResult> flat =
      bench::RunCells(options, cells, "figure 5 grid");

  bench::JsonWriter json;
  std::vector<std::vector<double>> partitions_z1;
  for (size_t panel = 0; panel < panels.size(); ++panel) {
    TablePrinter table({"policy", "5x", "10x", "20x", "40x", "100x"});
    std::printf("Figure 5 (%s): response time (s) vs dataset scale, z=%g\n",
                panels[panel].label, panels[panel].z);
    for (size_t p = 0; p < policies.size(); ++p) {
      std::vector<double> row_rt;
      std::vector<double> row_parts;
      for (size_t s = 0; s < scales.size(); ++s) {
        const bench::SingleJobResult& cell =
            flat[(panel * policies.size() + p) * scales.size() + s];
        row_rt.push_back(cell.response_time);
        row_parts.push_back(cell.partitions);
        json.AddCell()
            .Set("figure", "fig5")
            .Set("policy", policies[p])
            .Set("scale", scales[s])
            .Set("z", panels[panel].z)
            .Set("response_time_s", cell.response_time)
            .Set("partitions", cell.partitions);
      }
      table.AddNumericRow(policies[p], row_rt, 1);
      if (panels[panel].z == 1.0) partitions_z1.push_back(row_parts);
    }
    table.Print();
    std::printf("\n");
  }

  std::printf(
      "Figure 5 (d): partitions processed per job (moderate skew, z=1)\n");
  TablePrinter parts_table({"policy", "5x", "10x", "20x", "40x", "100x"});
  for (size_t p = 0; p < partitions_z1.size(); ++p) {
    parts_table.AddNumericRow(policies[p], partitions_z1[p], 1);
  }
  parts_table.Print();
  bench::MaybeWriteJson(options, json);
  return 0;
}
