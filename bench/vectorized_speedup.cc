/// \file
/// Measures the vectorized predicate engine against the interpreted oracle
/// over the Table III predicate suite and records the per-row throughput of
/// both engines plus the speedup as BENCH_vectorized.json (via --json=FILE).
/// Also cross-checks that both engines count the same matches — a run whose
/// engines disagree aborts.
///
/// Usage: vectorized_speedup [--threads=N] [--json=FILE]

#include <chrono>
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "exec/parallel.h"
#include "exec/vectorized.h"
#include "expr/expression.h"
#include "tpch/dataset_catalog.h"
#include "tpch/generator.h"
#include "tpch/lineitem.h"
#include "tpch/predicates.h"

namespace {

struct EngineCell {
  uint64_t rows = 0;
  uint64_t matches_interp = 0;
  uint64_t matches_vectorized = 0;
  double interp_seconds = 0.0;
  double vectorized_seconds = 0.0;
};

// This driver exists to measure *real host* per-row cost of the two
// predicate engines, so the raw clock reads are the point, not a hazard:
// the timings feed the printed speedup table only, never a digest-checked
// artifact.
// dmr-lint: allow(wall-clock) measuring real engine throughput is the point
double Seconds(std::chrono::steady_clock::time_point start) {
  // dmr-lint: allow(wall-clock) see above
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dmr;
  bench::BenchOptions options = bench::BenchOptions::Parse(argc, argv);
  bench::ObsSession obs_session(options, "vectorized_speedup");
  bench::PrintHeader(
      "Vectorized predicate engine vs interpreted oracle",
      "record-level scan cost underlying Table III / Algorithm 1",
      "identical match counts; vectorized rows/sec at least ~5x the "
      "interpreted engine on every suite predicate");

  const auto& suite = tpch::PredicateSuite();
  exec::ThreadPool pool = options.MakePool();
  auto cells = bench::UnwrapOrDie(
      exec::ParallelMap<EngineCell>(
          &pool, suite.size(),
          [&](size_t i) -> Result<EngineCell> {
            const auto& pred = suite[i];
            tpch::SkewSpec spec;
            spec.num_partitions = 8;
            spec.records_per_partition = 25000;
            spec.selectivity = tpch::kPaperSelectivity;
            spec.zipf_z = pred.zipf_z;
            spec.seed = 20120402;
            DMR_ASSIGN_OR_RETURN(auto dataset,
                                 tpch::MaterializeDatasetShared(spec, pred));
            EngineCell cell;
            cell.rows = dataset->total_records();

            // dmr-lint: allow(wall-clock) real-throughput measurement
            auto start = std::chrono::steady_clock::now();
            const auto& schema = tpch::LineItemSchema();
            for (const auto& partition : dataset->partitions) {
              for (uint32_t row = 0; row < partition.num_rows(); ++row) {
                DMR_ASSIGN_OR_RETURN(
                    bool matched,
                    expr::EvaluatePredicate(*pred.predicate, schema,
                                            partition.TupleAt(row)));
                if (matched) ++cell.matches_interp;
              }
            }
            cell.interp_seconds = Seconds(start);

            DMR_ASSIGN_OR_RETURN(
                exec::PredicateProgram program,
                exec::PredicateProgram::Compile(*pred.predicate));
            // dmr-lint: allow(wall-clock) real-throughput measurement
            start = std::chrono::steady_clock::now();
            for (const auto& partition : dataset->partitions) {
              DMR_ASSIGN_OR_RETURN(uint64_t matches,
                                   exec::CountMatches(program, partition));
              cell.matches_vectorized += matches;
            }
            cell.vectorized_seconds = Seconds(start);

            if (cell.matches_interp != cell.matches_vectorized) {
              return Status::Internal(
                  "engines disagree on '" + pred.name + "': interpreted " +
                  std::to_string(cell.matches_interp) + " vs vectorized " +
                  std::to_string(cell.matches_vectorized));
            }
            return cell;
          }),
      "engine comparison");

  bench::JsonWriter json;
  TablePrinter table({"predicate", "rows", "interp Mrows/s",
                      "vectorized Mrows/s", "speedup"});
  for (size_t i = 0; i < suite.size(); ++i) {
    const auto& pred = suite[i];
    const EngineCell& cell = cells[i];
    double interp_rps =
        static_cast<double>(cell.rows) / cell.interp_seconds;
    double vectorized_rps =
        static_cast<double>(cell.rows) / cell.vectorized_seconds;
    double speedup = vectorized_rps / interp_rps;
    char interp_buf[32], vec_buf[32], speedup_buf[32];
    std::snprintf(interp_buf, sizeof(interp_buf), "%.2f", interp_rps / 1e6);
    std::snprintf(vec_buf, sizeof(vec_buf), "%.2f", vectorized_rps / 1e6);
    std::snprintf(speedup_buf, sizeof(speedup_buf), "%.1fx", speedup);
    table.AddRow({pred.sql, std::to_string(cell.rows), interp_buf, vec_buf,
                  speedup_buf});
    json.AddCell()
        .Set("bench", "vectorized_speedup")
        .Set("predicate", pred.sql)
        .Set("name", pred.name)
        .Set("z", pred.zipf_z)
        .Set("rows", cell.rows)
        .Set("matches", cell.matches_vectorized)
        .Set("interp_rows_per_sec", interp_rps)
        .Set("vectorized_rows_per_sec", vectorized_rps)
        .Set("speedup", speedup);
  }
  table.Print();
  std::printf("\n(each engine scans the same memoized dataset; match counts "
              "are cross-checked per predicate)\n");
  bench::MaybeWriteJson(options, json);
  return 0;
}
