/// \file
/// Ablation: expression-based grab limits (Table I) vs fixed grab sizes.
/// Single-user sampling on 20x data, moderate skew. Shows why the paper
/// couples the grab limit to cluster state (AS/TS): small fixed grabs
/// serialize rounds; huge fixed grabs waste work like the Hadoop policy.
/// The per-limit cells fan out across hardware threads.

#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/cells.h"
#include "common/table_printer.h"
#include "dynamic/growth_policy.h"

int main(int argc, char** argv) {
  using namespace dmr;
  bench::BenchOptions options = bench::BenchOptions::Parse(argc, argv);
  bench::ObsSession obs_session(options, "ablate_grablimit");
  bench::PrintHeader(
      "Ablation: grab-limit form (fixed sizes vs cluster-coupled "
      "expressions)",
      "DESIGN.md ablation #1 (supports the paper's Table I design)",
      "tiny fixed grabs serialize rounds (slow); unbounded grabs waste "
      "partitions; AS/TS-coupled limits sit near the knee");

  std::vector<dynamic::GrowthPolicy> policies;
  std::vector<std::string> labels;
  for (int fixed : {1, 2, 4, 8, 16, 32, 64}) {
    policies.push_back(bench::UnwrapOrDie(
        dynamic::GrowthPolicy::Create("F" + std::to_string(fixed),
                                      "fixed grab", 0.0,
                                      std::to_string(fixed)),
        "policy"));
    labels.push_back("fixed " + std::to_string(fixed));
  }
  for (const char* name : {"HA", "MA", "LA", "C", "Hadoop"}) {
    policies.push_back(bench::UnwrapOrDie(
        dynamic::PolicyTable::BuiltIn().Find(name), "policy"));
    labels.push_back(std::string("Table I: ") + name);
  }

  std::vector<bench::SingleJobCell> cells;
  for (const dynamic::GrowthPolicy& policy : policies) {
    cells.push_back(
        {.cell = "grablimit-s20",
         .policy = policy.name(),
         .growth = policy,
         .z = 1.0,
         .dataset_seed = [](int run) -> uint64_t { return 500 + 37 * run; },
         .job_seed = [](int run) -> uint64_t { return 1234 + run; },
         .job = {.job_name = "ablate-grab"}});
  }
  std::vector<bench::SingleJobResult> rows =
      bench::RunCells(options, cells, "grab-limit grid");

  bench::JsonWriter json;
  TablePrinter table({"grab limit", "response time (s)",
                      "partitions processed", "input increments"});
  for (size_t i = 0; i < rows.size(); ++i) {
    table.AddNumericRow(labels[i], {rows[i].response_time, rows[i].partitions,
                                    rows[i].increments}, 1);
    json.AddCell()
        .Set("study", "ablate_grablimit")
        .Set("grab_limit", labels[i])
        .Set("response_time_s", rows[i].response_time)
        .Set("partitions", rows[i].partitions)
        .Set("increments", rows[i].increments);
  }
  table.Print();
  bench::MaybeWriteJson(options, json);
  return 0;
}
