/// \file
/// Ablation: online selectivity estimation (paper Section IV) vs blind
/// policy-paced growth. The estimator lets the provider stop adding input
/// once the expected yield of in-flight work covers the sample size; blind
/// growth keeps adding GrabLimit-sized batches until the output target is
/// actually met, over-processing partitions. The policy x skew x estimator
/// grid fans out across hardware threads.

#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/cells.h"
#include "common/table_printer.h"
#include "dynamic/sampling_input_provider.h"

int main(int argc, char** argv) {
  using namespace dmr;
  bench::BenchOptions options = bench::BenchOptions::Parse(argc, argv);
  bench::ObsSession obs_session(options, "ablate_estimator");
  bench::PrintHeader(
      "Ablation: online selectivity estimation on/off",
      "DESIGN.md ablation #2 (supports the paper's Section IV estimator)",
      "without the estimator, jobs keep adding batches until the target is "
      "met in completed output, processing more partitions and taking "
      "longer, especially for aggressive policies");

  std::vector<bench::SingleJobCell> cells;
  for (const char* policy : {"HA", "MA", "LA", "C"}) {
    for (double z : {0.0, 2.0}) {
      for (bool est : {true, false}) {
        // Swap in a provider with estimation toggled.
        auto provider = [est](const dynamic::GrowthPolicy& growth,
                              uint64_t seed) {
          dynamic::SamplingInputProvider::Options popts;
          popts.use_selectivity_estimation = est;
          return std::make_shared<dynamic::SamplingInputProvider>(growth, seed,
                                                                  popts);
        };
        cells.push_back(
            {.cell = est ? "estimator-on-s20" : "estimator-off-s20",
             .policy = policy,
             .z = z,
             .dataset_seed = [](int run) -> uint64_t { return 800 + 41 * run; },
             .job_seed = [](int run) -> uint64_t { return 4100 + run; },
             .job = {.job_name = "ablate-estimator"},
             .provider = provider});
      }
    }
  }
  std::vector<bench::SingleJobResult> rows =
      bench::RunCells(options, cells, "estimator grid");

  bench::JsonWriter json;
  TablePrinter table({"policy", "skew z", "estimator", "response (s)",
                      "partitions", "increments"});
  for (size_t i = 0; i < cells.size(); ++i) {
    const bench::SingleJobResult& r = rows[i];
    const bool est = cells[i].cell == "estimator-on-s20";
    table.AddRow({cells[i].policy,
                  std::to_string(static_cast<int>(cells[i].z)),
                  est ? "on" : "off",
                  std::to_string(r.response_time).substr(0, 6),
                  std::to_string(r.partitions).substr(0, 6),
                  std::to_string(r.increments).substr(0, 4)});
    json.AddCell()
        .Set("study", "ablate_estimator")
        .Set("policy", cells[i].policy)
        .Set("z", cells[i].z)
        .Set("estimator", est)
        .Set("response_time_s", r.response_time)
        .Set("partitions", r.partitions)
        .Set("increments", r.increments);
  }
  table.Print();
  bench::MaybeWriteJson(options, json);
  return 0;
}
