/// \file
/// Reproduces Figure 4: the distribution of matching records across the 40
/// partitions of the 5x dataset for each degree of skew (z = 0, 1, 2) at
/// 0.05 % selectivity (15,000 matching records total).
///
/// The paper's reference points: z=0 gives an equal count per partition;
/// z=1 puts ~3,128 records in the heaviest partition; z=2 puts ~8,700 in a
/// single partition.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "tpch/dataset_catalog.h"
#include "tpch/skew_model.h"

int main(int argc, char** argv) {
  using namespace dmr;
  bench::BenchOptions options = bench::BenchOptions::Parse(argc, argv);
  bench::ObsSession obs_session(options, "fig4_skew");
  bench::PrintHeader(
      "Figure 4: distribution of matching records across partitions (5x)",
      "Grover & Carey, ICDE 2012, Fig. 4",
      "z=0: equal counts (375/partition); z=1: heaviest partition ~3.1k; "
      "z=2: heaviest partition ~8.7k of 15k");

  const std::vector<double> zs = {0.0, 1.0, 2.0};
  bench::JsonWriter json;
  for (size_t zi = 0; zi < zs.size(); ++zi) {
    tpch::SkewSpec spec;
    spec.num_partitions = 40;
    spec.records_per_partition = tpch::kRecordsPerPartition;
    spec.selectivity = tpch::kPaperSelectivity;
    spec.zipf_z = zs[zi];
    spec.seed = 20120401;
    const std::vector<uint64_t> counts = bench::UnwrapOrDie(
        tpch::AssignMatchingRecords(spec), "skew model");
    std::vector<uint64_t> sorted = counts;
    std::sort(sorted.rbegin(), sorted.rend());
    uint64_t total = 0;
    for (uint64_t c : sorted) total += c;

    std::printf("z = %.0f: total matching = %llu\n", zs[zi],
                static_cast<unsigned long long>(total));
    std::printf("  top partitions: ");
    for (int i = 0; i < 8; ++i) {
      std::printf("%llu ", static_cast<unsigned long long>(sorted[i]));
    }
    std::printf("...\n");
    int empty = static_cast<int>(
        std::count(sorted.begin(), sorted.end(), uint64_t{0}));
    std::printf("  partitions with zero matches: %d / 40\n", empty);

    // A coarse ASCII rendering of the per-partition histogram.
    uint64_t max_count = sorted.front();
    std::printf("  per-partition counts (physical order):\n");
    for (int i = 0; i < 40; i += 1) {
      int bar = max_count == 0
                    ? 0
                    : static_cast<int>(50.0 * static_cast<double>(counts[i]) /
                                       static_cast<double>(max_count));
      std::printf("   p%02d %6llu |%s\n", i,
                  static_cast<unsigned long long>(counts[i]),
                  std::string(bar, '#').c_str());
      json.AddCell()
          .Set("figure", "fig4")
          .Set("z", zs[zi])
          .Set("partition", i)
          .Set("matching_records", counts[i]);
    }
    std::printf("\n");
  }
  bench::MaybeWriteJson(options, json);
  return 0;
}
