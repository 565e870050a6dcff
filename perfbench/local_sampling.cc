/// \file
/// The local_sampling workload: HiveQL sampling queries executed for real
/// on this machine, with no simulator involved. One client sends
/// `SELECT * FROM lineitem WHERE DISCOUNT > 0.10 LIMIT 40` back to back
/// (the Table III z = 1 predicate at 0.05 % selectivity), cycling through
/// the five Table I policies; `HiveCompiler` compiles each query and
/// `exec::LocalRuntime` runs it with 4 workers over one materialized
/// dataset of 32 partitions x 10 k rows. Hadoop-policy full scans sit
/// beside dynamic growth.
///
/// The run is pinned to one CPU. Every map task is a `std::async` thread of
/// some 40 us, so spread over the machine's vCPUs each wave waits on
/// cross-vCPU wake-ups and inter-processor interrupts, whose latency on a
/// shared host swung a run's batch times by more than 2x. On one
/// CPU the fan-out still pays every spawn and join, but the tasks of a wave
/// run one after another and wall time follows the work done.

#include <sched.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "dynamic/growth_policy.h"
#include "exec/local_runtime.h"
#include "expr/expression.h"
#include "hive/compiler.h"
#include "perfbench/perfbench.h"
#include "prof/prof.h"
#include "tpch/dataset_catalog.h"
#include "tpch/generator.h"
#include "tpch/lineitem.h"

namespace dmr::perfbench {
namespace {

constexpr int kPartitions = 32;
constexpr uint64_t kRowsPerPartition = 10000;
constexpr uint64_t kLimit = 40;
constexpr int kWorkers = 4;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
/// Queries per wall_s sample: 20 cycles through the five policies.
constexpr uint64_t kBatch = 100;
/// Fewest batches a run measures.
constexpr uint64_t kMinBatches = 4;
constexpr const char* kPolicies[] = {"C", "LA", "MA", "HA", "Hadoop"};
constexpr const char* kQuery =
    "SELECT * FROM lineitem WHERE DISCOUNT > 0.10 LIMIT 40";

struct Session {
  std::unique_ptr<tpch::MaterializedDataset> dataset;
  std::unique_ptr<hive::HiveCompiler> compiler;
};

/// Compiles kQuery under `policy_name`: the compiled plan and its policy.
Result<std::pair<hive::CompiledQuery, dynamic::GrowthPolicy>> Compile(
    hive::HiveCompiler* compiler, const std::string& policy_name) {
  DMR_RETURN_NOT_OK(
      compiler->Process("SET dynamic.job.policy = " + policy_name).status());
  DMR_ASSIGN_OR_RETURN(hive::HiveCompiler::SessionResult session,
                       compiler->Process(kQuery));
  if (!session.query.has_value()) {
    return Status::Internal("query compiled to no plan");
  }
  DMR_ASSIGN_OR_RETURN(dynamic::GrowthPolicy policy,
                       compiler->CurrentPolicy());
  return std::make_pair(*std::move(session.query), std::move(policy));
}

/// Materializes the dataset and checks the query compiles under every
/// policy into a full-row LIMIT k plan (so returned rows can be checked
/// against the predicate directly).
Result<Session> SetUp(uint64_t seed) {
  Session session;
  tpch::SkewSpec spec;
  spec.num_partitions = kPartitions;
  spec.records_per_partition = kRowsPerPartition;
  spec.selectivity = tpch::kPaperSelectivity;
  spec.zipf_z = 1.0;
  spec.seed = seed;
  {
    ScopedSpan span("tpch.materialize", 0);
    DMR_ASSIGN_OR_RETURN(tpch::MaterializedDataset dataset,
                         tpch::MaterializeDataset(spec));
    session.dataset =
        std::make_unique<tpch::MaterializedDataset>(std::move(dataset));
  }
  session.compiler = std::make_unique<hive::HiveCompiler>(
      &tpch::LineItemSchema(), &dynamic::PolicyTable::BuiltIn());
  for (const char* policy : kPolicies) {
    DMR_ASSIGN_OR_RETURN(auto compiled,
                         Compile(session.compiler.get(), policy));
    if (compiled.first.limit != kLimit ||
        static_cast<int>(compiled.first.projection.size()) !=
            tpch::LineItemSchema().num_columns()) {
      return Status::Internal("query did not compile to a full-row LIMIT plan");
    }
  }
  return session;
}

/// The output check: an OK status, min(k, matching rows) rows, and every
/// row accepted by the interpreted evaluator (the repository's oracle).
Status Verify(const Result<exec::LocalRunResult>& result,
              const tpch::MaterializedDataset& dataset) {
  DMR_RETURN_NOT_OK(result.status());
  const uint64_t expected = std::min(kLimit, dataset.total_matching());
  if (result->rows.size() != expected) {
    return Status::Internal(Format("returned %zu rows, expected %llu",
                                   result->rows.size(),
                                   static_cast<unsigned long long>(expected)));
  }
  for (const expr::Tuple& row : result->rows) {
    DMR_ASSIGN_OR_RETURN(bool matches,
                         expr::EvaluatePredicate(*dataset.predicate.predicate,
                                                 tpch::LineItemSchema(), row));
    if (!matches) return Status::Internal("returned a non-matching row");
  }
  return Status::OK();
}

/// Pins the calling thread, and so every thread it starts later, to the
/// highest-numbered CPU it may run on (CPU 0 takes most device
/// interrupts). Returns that CPU, or -1 if pinning failed.
int PinToOneCpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
  }
  return -1;
}

}  // namespace

Outcome RunLocalSampling(const RunOptions& options) {
  Outcome out;
  Tracer& tracer = Tracer::Global();
  tracer.set_enabled(options.trace);
  const int cpu = PinToOneCpu();
  out.notes.push_back(
      cpu < 0 ? std::string("not pinned: sched_setaffinity failed")
              : Format("pinned to CPU %d, %d workers", cpu, kWorkers));

  Histogram setup_s;
  std::string setup_samples;
  Result<Session> session = Status::Internal("not set up");
  for (int s = 0; s < kSetups; ++s) {
    session = Status::Internal("not set up");  // free the previous dataset
    const uint64_t start = NowNs();
    session = SetUp(options.seed);
    const double seconds = static_cast<double>(NowNs() - start) / 1e9;
    setup_s.Add(seconds);
    setup_samples += Format(" %.4f", seconds);
    if (!session.ok()) {
      out.attempted = 1;
      out.failed = 1;
      out.notes.push_back("set-up FAILED: " + session.status().ToString());
      return out;
    }
  }
  tracer.set_enabled(false);
  const tpch::MaterializedDataset& dataset = *session->dataset;
  hive::HiveCompiler* compiler = session->compiler.get();

  Histogram latency_ms;
  Histogram batch_s;
  Histogram traced_batch_s;
  std::string batch_samples;
  uint64_t traced_queries = 0;
  uint64_t cpu_ns = 0;
  uint64_t tasks = 0;
  uint64_t rounds = 0;
  uint64_t rows_scanned = 0;
  uint64_t rows_returned = 0;

  const uint64_t deadline =
      NowNs() + static_cast<uint64_t>(options.seconds * 1e9);
  uint64_t batch = 0;
  for (; batch < kMinBatches || NowNs() < deadline; ++batch) {
    // A traced run alternates plain and traced batches, so the tracing
    // overhead is measured under the same host conditions.
    const bool traced = options.trace && batch % 2 == 1;
    if (traced) {
      tracer.set_enabled(true);
      ArmAllocCounting(true);
      prof::Enable();
    }
    uint64_t batch_ns = 0;
    for (uint64_t q = 0; q < kBatch; ++q) {
      const uint64_t query_id = batch * kBatch + q;
      const std::string policy_name = kPolicies[query_id % 5];
      const uint64_t start = NowNs();
      Result<std::pair<hive::CompiledQuery, dynamic::GrowthPolicy>> compiled =
          Status::Internal("not compiled");
      {
        ScopedSpan span("hive.compile", query_id);
        compiled = Compile(compiler, policy_name);
      }
      Result<exec::LocalRunResult> result = Status::Internal("not run");
      const uint64_t cpu_start = traced ? ProcessCpuNs() : 0;
      if (!compiled.ok()) {
        result = compiled.status();
      } else {
        ScopedSpan span("exec.execute", query_id);
        const uint64_t seed = MixSeed(options.seed, 7, query_id);
        exec::LocalRuntime runtime({.num_threads = kWorkers, .seed = seed});
        result = runtime.Execute(compiled->first, dataset, compiled->second);
      }
      const uint64_t end = NowNs();
      const uint64_t cpu_end = traced ? ProcessCpuNs() : 0;
      batch_ns += end - start;

      out.attempted += 1;
      Status check = Verify(result, dataset);
      if (!check.ok()) {
        out.failed += 1;
        if (out.failed <= 5) {
          out.notes.push_back(Format(
              "query %llu (%s) FAILED: %s",
              static_cast<unsigned long long>(query_id), policy_name.c_str(),
              check.ToString().c_str()));
        }
      }
      if (!traced) {
        latency_ms.Add(static_cast<double>(end - start) / 1e6);
      } else if (result.ok()) {
        cpu_ns += cpu_end - cpu_start;
        traced_queries += 1;
        tasks += static_cast<uint64_t>(result->partitions_processed);
        rounds += static_cast<uint64_t>(result->provider_rounds);
        rows_scanned += result->records_scanned;
        rows_returned += result->rows.size();
      }
    }
    if (traced) {
      prof::Disable();
      ArmAllocCounting(false);
      tracer.set_enabled(false);
      traced_batch_s.Add(static_cast<double>(batch_ns) / 1e9);
    } else {
      batch_s.Add(static_cast<double>(batch_ns) / 1e9);
      batch_samples += Format(" %.4f", static_cast<double>(batch_ns) / 1e9);
    }
  }

  out.notes.push_back("batch wall_s:" + batch_samples);
  out.notes.push_back(Format("batch wall_s median=%.6f p%g=%.6f (n=%zu)",
                             batch_s.Median(), kWallPercentile,
                             batch_s.Percentile(kWallPercentile),
                             batch_s.count()));
  out.notes.push_back("setup_s samples:" + setup_samples);
  const auto [tail_q, tail_ms] = TailPercentile(latency_ms);
  out.notes.push_back(Format(
      "queries=%llu batches=%llu rows_per_query=%llu matching_rows=%llu",
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(batch),
      static_cast<unsigned long long>(
          std::min(kLimit, dataset.total_matching())),
      static_cast<unsigned long long>(dataset.total_matching())));
  out.notes.push_back(Format("query_p50_ms=%.6f ms (n=%zu)",
                             latency_ms.Median(), latency_ms.count()));
  out.notes.push_back(Format("query_tail_ms=%.6f ms (p%g, n=%zu)", tail_ms,
                             tail_q, latency_ms.count()));

  if (!options.trace) {
    out.metrics["setup_s"] = setup_s.Median();
    out.metrics["wall_s"] = batch_s.Percentile(kWallPercentile);
    out.metrics["peak_rss_mb"] = PeakRssMb();
    return out;
  }

  ProfView prof_view = ProfView::Seal();
  const auto spans = tracer.Aggregate();
  auto span = [&spans](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? Tracer::Stat{} : it->second;
  };
  const Tracer::Stat materialize = span("tpch.materialize");
  const Tracer::Stat compile = span("hive.compile");
  const Tracer::Stat execute = span("exec.execute");
  const double queries = static_cast<double>(traced_queries);
  const auto [exec_tail_q, exec_tail_ns] =
      TailPercentile(execute.durations_ns);
  auto& m = out.metrics;
  m["tpch.materialize_ms"] = materialize.durations_ns.Median() / 1e6;
  m["hive.compile_us"] =
      compile.total_ns / 1e3 / static_cast<double>(compile.count);
  m["exec.execute_ms.p50"] = execute.durations_ns.Median() / 1e6;
  m["exec.execute_ms.tail"] = exec_tail_ns / 1e6;
  m["exec.cpu_ms_per_query"] = static_cast<double>(cpu_ns) / 1e6 / queries;
  m["exec.tasks_per_query"] = static_cast<double>(tasks) / queries;
  m["exec.rounds_per_query"] = static_cast<double>(rounds) / queries;
  m["exec.rows_scanned_per_query"] =
      static_cast<double>(rows_scanned) / queries;
  m["exec.scan_rows_per_s"] =
      static_cast<double>(rows_scanned) / (execute.total_ns / 1e9);
  m["exec.useful_ratio"] = static_cast<double>(rows_returned) /
                           static_cast<double>(rows_scanned);
  m["alloc.per_query"] = execute.allocs / static_cast<double>(execute.count);
  m["prof.exec.vectorized_scan.self_ms"] =
      prof_view.Phase("exec.vectorized_scan").self_ms / queries;
  m["trace.overhead_pct"] =
      100.0 * (traced_batch_s.Percentile(kWallPercentile) /
                   batch_s.Percentile(kWallPercentile) -
               1.0);
  out.notes.push_back(Format("exec.execute_ms.tail is p%g of %zu executions",
                             exec_tail_q, execute.durations_ns.count()));
  for (const std::string& line : tracer.Summary()) out.notes.push_back(line);
  return out;
}

}  // namespace dmr::perfbench
