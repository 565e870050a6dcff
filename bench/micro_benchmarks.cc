/// \file
/// Component micro-benchmarks (google-benchmark): PRNG and Zipf sampling,
/// skew assignment, LINEITEM generation and text round-trip, predicate
/// evaluation (interpreted vs vectorized) and columnar conversion, HiveQL
/// parsing, grab-limit expression evaluation, the discrete-event kernel and
/// the processor-sharing resource.

#include <benchmark/benchmark.h>

#include <atomic>

#include "common/properties.h"
#include "common/random.h"
#include "lint/engine_v1.h"
#include "lint/lint.h"
#include "dynamic/grab_limit_expr.h"
#include "obs/flight_recorder.h"
#include "obs/timeline.h"
#include "exec/parallel.h"
#include "exec/vectorized.h"
#include "expr/expression.h"
#include "tpch/columnar.h"
#include "hive/parser.h"
#include "sim/ps_resource.h"
#include "sim/simulation.h"
#include "tpch/generator.h"
#include "tpch/lineitem.h"
#include "tpch/predicates.h"
#include "tpch/skew_model.h"

namespace dmr {
namespace {

void BM_RngNext(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.Next());
}
BENCHMARK(BM_RngNext);

void BM_ZipfNext(benchmark::State& state) {
  ZipfGenerator zipf(state.range(0), 1.0);
  Rng rng(2);
  for (auto _ : state) benchmark::DoNotOptimize(zipf.Next(&rng));
}
BENCHMARK(BM_ZipfNext)->Arg(40)->Arg(800)->Arg(8000);

void BM_AssignMatchingRecords(benchmark::State& state) {
  tpch::SkewSpec spec;
  spec.num_partitions = static_cast<int>(state.range(0));
  spec.zipf_z = 1.0;
  for (auto _ : state) {
    auto counts = tpch::AssignMatchingRecords(spec);
    benchmark::DoNotOptimize(counts);
  }
}
BENCHMARK(BM_AssignMatchingRecords)->Arg(40)->Arg(800);

void BM_GenerateRow(benchmark::State& state) {
  tpch::LineItemGenerator gen(3);
  for (auto _ : state) {
    auto row = gen.NextBaseRow();
    benchmark::DoNotOptimize(row);
  }
}
BENCHMARK(BM_GenerateRow);

void BM_RowSerde(benchmark::State& state) {
  tpch::LineItemGenerator gen(4);
  auto row = gen.NextBaseRow();
  for (auto _ : state) {
    std::string text = tpch::SerializeRow(row);
    auto parsed = tpch::ParseRow(text);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_RowSerde);

/// Rows shared by the predicate-evaluation benchmarks; big enough to
/// exercise the vectorized engine's batch loop several times over.
constexpr uint64_t kPredicateBenchRows = 8192;

std::vector<tpch::LineItemRow> PredicateBenchRows(size_t suite_index) {
  tpch::LineItemGenerator gen(5);
  const auto& pred = tpch::PredicateSuite()[suite_index];
  // ~2% matching so the selection paths see both outcomes.
  auto partition = gen.GenerateColumnarPartition(
      kPredicateBenchRows, kPredicateBenchRows / 50, pred);
  std::vector<tpch::LineItemRow> rows;
  rows.reserve(partition->num_rows());
  for (uint32_t row = 0; row < partition->num_rows(); ++row) {
    rows.push_back(partition->RowAt(row));
  }
  return rows;
}

/// Per-row tree interpretation over variant tuples (the original path and
/// correctness oracle). Arg = suite predicate index (z = 0, 1, 2).
void BM_PredicateEvalInterp(benchmark::State& state) {
  const size_t suite_index = static_cast<size_t>(state.range(0));
  const auto& pred = tpch::PredicateSuite()[suite_index];
  const auto& schema = tpch::LineItemSchema();
  std::vector<expr::Tuple> tuples;
  tuples.reserve(kPredicateBenchRows);
  for (const auto& row : PredicateBenchRows(suite_index)) {
    tuples.push_back(tpch::ToTuple(row));
  }
  for (auto _ : state) {
    uint64_t matches = 0;
    for (const auto& tuple : tuples) {
      auto v = expr::EvaluatePredicate(*pred.predicate, schema, tuple);
      if (v.ok() && *v) ++matches;
    }
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(tuples.size()));
}
BENCHMARK(BM_PredicateEvalInterp)->Arg(0)->Arg(1)->Arg(2);

/// The compiled kernel program over columnar batches. Compile and bind
/// happen once (as in the runtime, where they amortize over a partition);
/// the loop measures the per-row scan cost.
void BM_PredicateEvalVectorized(benchmark::State& state) {
  const size_t suite_index = static_cast<size_t>(state.range(0));
  const auto& pred = tpch::PredicateSuite()[suite_index];
  auto partition =
      *tpch::ColumnarPartition::FromRows(PredicateBenchRows(suite_index));
  auto program =
      std::move(exec::PredicateProgram::Compile(*pred.predicate)).ValueUnsafe();
  exec::BoundPredicate bound(&program, &partition);
  std::vector<uint32_t> matches;
  matches.reserve(partition.num_rows());
  for (auto _ : state) {
    matches.clear();
    Status status = bound.FilterAll(&matches);
    if (!status.ok()) state.SkipWithError("filter failed");
    benchmark::DoNotOptimize(matches.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(partition.num_rows()));
}
BENCHMARK(BM_PredicateEvalVectorized)->Arg(0)->Arg(1)->Arg(2);

/// Row-to-columnar conversion cost (dates packed, strings dictionary
/// encoded) — the one-off price of admission for the vectorized scan.
void BM_ColumnarConvert(benchmark::State& state) {
  auto rows = PredicateBenchRows(0);
  for (auto _ : state) {
    auto partition = tpch::ColumnarPartition::FromRows(rows);
    benchmark::DoNotOptimize(partition);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rows.size()));
}
BENCHMARK(BM_ColumnarConvert);

void BM_HiveParse(benchmark::State& state) {
  const std::string sql =
      "SELECT ORDERKEY, PARTKEY, SUPPKEY FROM lineitem "
      "WHERE DISCOUNT > 0.05 AND QUANTITY BETWEEN 10 AND 20 "
      "AND SHIPMODE IN ('AIR', 'RAIL') LIMIT 10000";
  for (auto _ : state) {
    auto stmt = hive::ParseStatement(sql);
    benchmark::DoNotOptimize(stmt);
  }
}
BENCHMARK(BM_HiveParse);

void BM_GrabLimitEval(benchmark::State& state) {
  auto expr = dynamic::GrabLimitExpr::Parse("AS > 0 ? 0.2 * AS : 0.1 * TS");
  dynamic::SlotVars vars{17, 160};
  for (auto _ : state) {
    benchmark::DoNotOptimize(expr->Evaluate(vars));
  }
}
BENCHMARK(BM_GrabLimitEval);

void BM_PropertiesParse(benchmark::State& state) {
  std::string text;
  for (int i = 0; i < 50; ++i) {
    text += "key." + std::to_string(i) + " = value" + std::to_string(i) +
            "\n";
  }
  for (auto _ : state) {
    auto props = Properties::Parse(text);
    benchmark::DoNotOptimize(props);
  }
}
BENCHMARK(BM_PropertiesParse);

/// The raw Schedule+fire hot path: one event in flight per iteration batch,
/// no cancellations. Measures callback storage + slot + heap costs.
void BM_SimSchedule(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    uint64_t fired = 0;
    for (int i = 0; i < batch; ++i) {
      sim.Schedule(static_cast<double>(i % 97), [&fired] { ++fired; });
    }
    sim.Run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_SimSchedule)->Arg(1000)->Arg(100000);

/// The reschedule pattern PsResource leans on: schedule, cancel, replace.
/// Half the scheduled events are cancelled via their handles, exercising
/// slot reuse and the batched queue purge.
void BM_SimScheduleCancel(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    uint64_t fired = 0;
    sim::EventHandle last;
    for (int i = 0; i < batch; ++i) {
      last.Cancel();
      last = sim.Schedule(static_cast<double>(i % 89), [&fired] { ++fired; });
    }
    sim.Run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_SimScheduleCancel)->Arg(1000)->Arg(100000);

/// Tombstone purge economics around the Simulation::OnCancelled thresholds.
/// Cancels push tombstone density to `pct`% of the queue against a fixed
/// pool of `live` firable events. The sweep runs only at >= 64 tombstones
/// AND >= 25% (heap) / >= 50% (calendar) density; the cells below sit just
/// either side of each boundary so the skip-on-pop vs. global-sweep
/// regimes are both measured.
void BM_SimCancelPurge(benchmark::State& state) {
  const auto kind = state.range(0) == 0 ? sim::QueueKind::kBinaryHeap
                                        : sim::QueueKind::kCalendar;
  const int pct = static_cast<int>(state.range(1));
  const int live = static_cast<int>(state.range(2));
  // Density pct means cancels / (live + cancels) == pct / 100.
  const int cancels = live * pct / (100 - pct);
  for (auto _ : state) {
    sim::SimulationOptions options;
    options.queue = kind;
    sim::Simulation sim(options);
    uint64_t fired = 0;
    for (int i = 0; i < live; ++i) {
      sim.Schedule(1.0 + static_cast<double>(i % 97), [&fired] { ++fired; });
    }
    for (int i = 0; i < cancels; ++i) {
      sim::EventHandle doomed =
          sim.Schedule(1.0 + static_cast<double>(i % 89),
                       [&fired] { ++fired; });
      doomed.Cancel();
    }
    benchmark::DoNotOptimize(sim.live_size());
    sim.Run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(live + cancels));
}
BENCHMARK(BM_SimCancelPurge)
    ->ArgNames({"queue", "pct", "live"})
    // heap (queue=0): density past 25% but only ~54 tombstones, under the
    // 64-count floor, so no sweep; then just under / just over the 25%
    // density line at scale.
    ->Args({0, 30, 128})
    ->Args({0, 20, 4096})
    ->Args({0, 30, 4096})
    // calendar (queue=1): just under / just over its 50% density line.
    ->Args({1, 40, 4096})
    ->Args({1, 60, 4096});

/// Fan-out scaling of the experiment harness: N simulation cells (each a
/// private Simulation running an event cascade) spread over the pool.
/// Compare threads=1 vs higher counts for the harness speedup.
void BM_ThreadPoolFanOut(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  constexpr int kCells = 64;
  constexpr int kEventsPerCell = 20000;
  exec::ThreadPool pool(threads);
  for (auto _ : state) {
    std::atomic<uint64_t> total{0};
    Status status = exec::ParallelFor(&pool, kCells, [&](size_t cell) {
      sim::Simulation sim;
      uint64_t fired = 0;
      for (int i = 0; i < kEventsPerCell; ++i) {
        sim.Schedule(static_cast<double>((i * 31 + cell) % 101),
                     [&fired] { ++fired; });
      }
      sim.Run();
      total.fetch_add(fired, std::memory_order_relaxed);
      return Status::OK();
    });
    if (!status.ok()) state.SkipWithError("cell failed");
    benchmark::DoNotOptimize(total.load());
  }
  state.SetItemsProcessed(state.iterations() * kCells * kEventsPerCell);
}
BENCHMARK(BM_ThreadPoolFanOut)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

/// One timeline tick over a testbed-sized probe/windowed population: the
/// recurring per-simulated-second cost a cell pays for --timeline. Arg =
/// windowed observations recorded into the open tick (the hot path that
/// scales with job throughput).
void BM_TimelineSample(benchmark::State& state) {
  const int observations = static_cast<int>(state.range(0));
  obs::TimelineOptions options;
  obs::Timeline timeline(options);
  double probe_value = 0.0;
  for (int i = 0; i < 6; ++i) {
    timeline.AddProbe("probe." + std::to_string(i), "units",
                      obs::Timeline::SeriesKind::kGauge,
                      [&probe_value] { return probe_value; });
  }
  obs::Timeline::WindowedId response =
      timeline.AddWindowed("bench.response", "sim_s");
  obs::Timeline::WindowedId wait = timeline.AddWindowed("bench.wait", "sim_s");
  double now = 0.0;
  for (auto _ : state) {
    probe_value += 1.0;
    for (int i = 0; i < observations; ++i) {
      timeline.Observe(response, 1.0 + static_cast<double>(i % 37));
      timeline.Observe(wait, 0.5 + static_cast<double>(i % 11));
    }
    now += 1.0;
    timeline.Sample(now);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TimelineSample)->Arg(0)->Arg(16)->Arg(256);

/// The flight-recorder append hot path: a fixed-size struct copy into an
/// arena-backed ring. This rides on every schedule/backup/preempt
/// decision, so it must stay in the few-ns range.
void BM_FlightRecorderAppend(benchmark::State& state) {
  sim::Arena arena;
  obs::FlightRecorder flight(128, &arena);
  double now = 0.0;
  for (auto _ : state) {
    now += 1e-3;
    flight.Append(now, obs::FlightEventKind::kSchedule, /*job=*/1,
                  /*node=*/2, /*detail=*/3, /*value=*/now);
    benchmark::DoNotOptimize(flight.appended());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlightRecorderAppend);

/// A representative source file for the lint engines: comments, string
/// literals, a raw string, nested scopes, a lambda, one suppressed hazard.
/// Repeated to the requested line count so the benchmark scales.
std::string SynthesizeLintInput(int repeats) {
  static const char* kChunk =
      "// A chunk of plausible simulator code for the linter.\n"
      "#include <string>\n"
      "#include <vector>\n"
      "struct Tally {\n"
      "  std::vector<int> counts_;\n"
      "  int Sum() const {\n"
      "    int total = 0;\n"
      "    for (int v : counts_) total += v;\n"
      "    return total;\n"
      "  }\n"
      "};\n"
      "std::string Describe(const Tally& s) {\n"
      "  /* the \"<<\" below lives in a literal */\n"
      "  std::string out = R\"(sum << goes here)\";\n"
      "  auto size = [&s] { return s.counts_.size(); };\n"
      "  out += std::to_string(size());\n"
      "  return out;\n"
      "}\n"
      "int Jitter() {\n"
      "  // dmr-lint: allow(unseeded-rng) benchmark fodder, not real code\n"
      "  return rand();\n"
      "}\n";
  std::string content;
  for (int i = 0; i < repeats; ++i) content += kChunk;
  return content;
}

/// The v2 token/scope engine over a synthetic file: the cost of linting
/// one file end to end (lex + scope tree + all checks). tier-1 runs this
/// over every file in src/, so per-file cost bounds the gate's latency.
void BM_LintFile(benchmark::State& state) {
  const std::string content =
      SynthesizeLintInput(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto findings = lint::LintContent("bench/synth.cc", content);
    benchmark::DoNotOptimize(findings.data());
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations() * content.size()));
}
BENCHMARK(BM_LintFile)->Arg(4)->Arg(32);

/// The preserved v1 line-regex engine on the same input, for a direct
/// cost comparison with the rebuild.
void BM_LintFileV1(benchmark::State& state) {
  const std::string content =
      SynthesizeLintInput(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto findings = lint::v1::LintContentV1("bench/synth.cc", content);
    benchmark::DoNotOptimize(findings.data());
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations() * content.size()));
}
BENCHMARK(BM_LintFileV1)->Arg(4)->Arg(32);

void BM_PsResourceChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    sim::PsResource disk(&sim, "disk", 80e6, 80e6);
    int done = 0;
    for (int i = 0; i < state.range(0); ++i) {
      sim.Schedule(static_cast<double>(i), [&disk, &done] {
        disk.Submit(8e6, [&done] { ++done; });
      });
    }
    sim.Run();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PsResourceChurn)->Arg(1000)->Arg(10000);

}  // namespace
}  // namespace dmr

BENCHMARK_MAIN();
