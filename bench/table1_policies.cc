/// \file
/// Prints Table I — the configured policies for incremental processing of
/// input — as loaded from the built-in registry, and demonstrates the
/// grab-limit expressions at a few cluster states.

#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "dynamic/growth_policy.h"

int main(int argc, char** argv) {
  using namespace dmr;
  bench::BenchOptions options = bench::BenchOptions::Parse(argc, argv);
  bench::ObsSession obs_session(options, "table1_policies");
  bench::PrintHeader("Table I: policies for incremental processing of input",
                     "Grover & Carey, ICDE 2012, Table I",
                     "five policies from Hadoop (unbounded) to C "
                     "(conservative); grab limits shown for representative "
                     "cluster states");

  const auto& table = dynamic::PolicyTable::BuiltIn();
  bench::JsonWriter json;
  TablePrinter policies({"policy", "description", "work threshold (%)",
                         "grab limit"});
  for (const auto& p : table.policies()) {
    policies.AddRow({p.name(), p.description(),
                     std::to_string(static_cast<int>(p.work_threshold_pct())),
                     p.grab_limit_text()});
    json.AddCell()
        .Set("table", "table1")
        .Set("policy", p.name())
        .Set("description", p.description())
        .Set("work_threshold_pct", p.work_threshold_pct())
        .Set("grab_limit", p.grab_limit_text());
  }
  policies.Print();

  std::printf("\nGrab limits at representative cluster states "
              "(TS = 40 total slots):\n");
  const std::vector<int> probe_as = {40, 20, 4, 0};
  TablePrinter states({"policy", "AS=40 (idle)", "AS=20", "AS=4", "AS=0"});
  for (const auto& p : table.policies()) {
    std::vector<std::string> cells = {p.name()};
    for (int as : probe_as) {
      mapred::ClusterStatus status;
      status.total_map_slots = 40;
      status.occupied_map_slots = 40 - as;
      int64_t g = p.GrabLimit(status);
      std::string text = g == std::numeric_limits<int64_t>::max()
                             ? "inf"
                             : std::to_string(g);
      json.AddCell()
          .Set("table", "table1-states")
          .Set("policy", p.name())
          .Set("available_slots", as)
          .Set("grab_limit", text);
      cells.push_back(std::move(text));
    }
    states.AddRow(cells);
  }
  states.Print();
  bench::MaybeWriteJson(options, json);
  return 0;
}
