/// \file
/// Reproduces Table II: properties of the generated LINEITEM datasets at
/// scales 5, 10, 20, 40 and 100 — total records, size, partition count and
/// matching records at the paper's 0.05 % predicate selectivity.

#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "common/strings.h"
#include "common/table_printer.h"
#include "tpch/dataset_catalog.h"

int main(int argc, char** argv) {
  using namespace dmr;
  bench::BenchOptions options = bench::BenchOptions::Parse(argc, argv);
  bench::ObsSession obs_session(options, "table2_datasets");
  bench::PrintHeader(
      "Table II: test dataset properties",
      "Grover & Carey, ICDE 2012, Table II",
      "5x data = 30 M records in 40 partitions (one per disk); partitions "
      "and records scale linearly; 0.05 % selectivity = 15,000 matches at "
      "5x");

  bench::JsonWriter json;
  TablePrinter table({"scale", "records", "size", "partitions",
                      "matching records (0.05%)"});
  for (int scale : tpch::StandardScales()) {
    const tpch::DatasetProperties props = bench::UnwrapOrDie(
        tpch::PropertiesForScale(scale), "catalog");
    table.AddRow({std::to_string(scale) + "x",
                  std::to_string(props.total_records),
                  FormatBytes(props.total_bytes),
                  std::to_string(props.num_partitions),
                  std::to_string(props.matching_records)});
    json.AddCell()
        .Set("table", "table2")
        .Set("scale", scale)
        .Set("total_records", props.total_records)
        .Set("total_bytes", props.total_bytes)
        .Set("partitions", props.num_partitions)
        .Set("matching_records", props.matching_records);
  }
  table.Print();
  bench::MaybeWriteJson(options, json);
  return 0;
}
