/// \file
/// Measures the adaptive-layout subsystem (DESIGN.md §16) end to end and
/// records BENCH_layout_pruning.json (via --json=FILE):
///
///  * Host level (the real record engines): for z = 0/1/2 and two
///    selectivities (the paper's 0.05% and a 10x-lower 0.005%) a LIMIT-k
///    sampling query runs through `LocalRuntime` unpruned (PR 3's plain
///    vectorized path), pruned by the partition zone maps (first query:
///    piggybacked per-batch indexes are registered as a side effect), and
///    pruned again (repeated query: the registered indexes narrow the scan
///    to qualifying batches). The driver records rows-skipped %, the
///    first-vs-repeated wall-time speedups over the unpruned path, and the
///    match counts + an FNV digest of the sampled rows — which must be
///    byte-identical across all variants (pruning is a physical-cost
///    optimization only; a run whose counters or sample move aborts). The
///    low-selectivity repeated cells are the ones expected to clear 5x:
///    batch skipping scales with the fraction of 1024-row batches that are
///    match-free.
///
///  * Simulated cluster (the paper's testbed): the same query shape runs
///    as a dynamic sampling job first-query style (row replicas, no
///    stats), and repeated-query style: the piggybacked index the first
///    scan left behind makes every replica effectively indexed, and each
///    split's scan fraction is the expected fraction of its 1024-row
///    batches containing at least one match, 1-(1-1024/n)^m (0 for a
///    provably match-free split, which costs only a stats read, per the
///    §16 cost model). The repeated run is also tried with the provider's
///    cheapest-first hint grab, at the base tie order and 2 shuffled tie
///    seeds. Simulated response times are virtual-time deterministic, so
///    every seed must reproduce them exactly.
///
/// The simulated cells are annotated (cell/policy/z) for --metrics, which
/// feeds the `dmr-analyze --baseline` band in tier1.sh
/// (configs/baselines/layout_pruning.json).
///
/// Usage: layout_pruning [--threads=N] [--reps=N] [--json=FILE]
///                       [--metrics=FILE]

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "dfs/file_system.h"
#include "dynamic/growth_policy.h"
#include "dynamic/sampling_input_provider.h"
#include "exec/layout_catalog.h"
#include "exec/local_runtime.h"
#include "exec/vectorized.h"
#include "hive/compiler.h"
#include "sampling/sampling_job.h"
#include "sim/simulation.h"
#include "testbed/testbed.h"
#include "tpch/dataset_catalog.h"
#include "tpch/generator.h"
#include "tpch/lineitem.h"
#include "tpch/predicates.h"

namespace {

using namespace dmr;

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t Mix(uint64_t h, uint64_t v) { return (h ^ v) * kFnvPrime; }

/// Order- and value-sensitive digest of the sampled rows: the byte-identity
/// contract covers the exact sample, not just its size.
uint64_t RowsDigest(const std::vector<expr::Tuple>& rows) {
  uint64_t h = kFnvOffset;
  for (const expr::Tuple& row : rows) {
    for (const expr::Value& value : row) {
      h = Mix(h, static_cast<uint64_t>(value.index()));
      if (const auto* i = std::get_if<int64_t>(&value)) {
        h = Mix(h, static_cast<uint64_t>(*i));
      } else if (const auto* d = std::get_if<double>(&value)) {
        h = Mix(h, std::bit_cast<uint64_t>(*d));
      } else if (const auto* s = std::get_if<std::string>(&value)) {
        for (char c : *s) h = Mix(h, static_cast<unsigned char>(c));
      } else if (const auto* b = std::get_if<bool>(&value)) {
        h = Mix(h, *b ? 1u : 0u);
      }
    }
    h = Mix(h, 0x2C);  // row separator
  }
  return h;
}

// The host-level cells measure real engine wall time — that is the point;
// timings feed the printed table and JSON only, never a digest.
// dmr-lint: allow(wall-clock) measuring real engine response time
double Seconds(std::chrono::steady_clock::time_point start) {
  // dmr-lint: allow(wall-clock) see above
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The z -> suite predicate SQL used throughout the repo's tests.
const char* SqlForZ(double z) {
  if (z == 0.0) return "SELECT * FROM lineitem WHERE QUANTITY > 50 LIMIT 100";
  if (z == 1.0) {
    return "SELECT * FROM lineitem WHERE DISCOUNT > 0.10 LIMIT 100";
  }
  return "SELECT * FROM lineitem WHERE TAX > 0.08 LIMIT 100";
}

struct HostRun {
  double wall_s = 0.0;
  exec::LocalRunResult result;
  uint64_t digest = 0;
};

Result<HostRun> RunHost(const hive::CompiledQuery& query,
                        const tpch::MaterializedDataset& dataset,
                        const dynamic::GrowthPolicy& policy,
                        const exec::LocalRunOptions& options) {
  exec::LocalRuntime runtime(options);
  // dmr-lint: allow(wall-clock) real response-time measurement
  auto start = std::chrono::steady_clock::now();
  DMR_ASSIGN_OR_RETURN(exec::LocalRunResult result,
                       runtime.Execute(query, dataset, policy));
  HostRun run;
  run.wall_s = Seconds(start);
  run.digest = RowsDigest(result.rows);
  run.result = std::move(result);
  return run;
}

/// One simulated sampling job. The "unpruned" variant is the first query:
/// row replicas, no stats, the paper's original cost model. The repeated
/// variants model the state after a first scan piggybacked its per-batch
/// index: replicas behave as indexed, a zero-matching split is provably
/// match-free (exactly what the zone maps prove for the boundary-strict
/// suite predicates — the host cells above check that equivalence on real
/// rows) and costs only the stats read, and a matching split scans only
/// the expected fraction of its 1024-row batches that contain a match.
struct SimCell {
  double response_time = 0.0;
  int splits_processed = 0;
  int64_t pruned_splits = 0;
};

Result<SimCell> RunSim(double z, const char* variant,
                       const std::string& seed_label) {
  testbed::Testbed bed(cluster::ClusterConfig::SingleUser());
  bed.Annotate("cell", "layout-s10");
  bed.Annotate("policy", variant);
  bed.Annotate("z", z);
  bed.Annotate("seed", seed_label);
  DMR_ASSIGN_OR_RETURN(
      testbed::Dataset dataset,
      testbed::MakeLineItemDataset(&bed.fs(), /*scale=*/10, z, /*seed=*/4242));
  DMR_ASSIGN_OR_RETURN(dynamic::GrowthPolicy policy,
                       dynamic::PolicyTable::BuiltIn().Find("MA"));

  sampling::SamplingJobOptions options;
  options.job_name = std::string("layout-") + variant;
  options.sample_size = tpch::kPaperSampleSize;
  options.seed = 20120402;
  options.predicate_sql = "selectivity 0.05%, z=" + std::to_string(z);
  DMR_ASSIGN_OR_RETURN(
      mapred::JobSubmission submission,
      sampling::MakeSamplingJob(dataset.file, dataset.matching_per_partition,
                                policy, options));

  const bool repeated = std::strcmp(variant, "unpruned") != 0;
  const bool hints = std::strcmp(variant, "repeated+hints") == 0;
  if (repeated) {
    // Edit a private copy of the submission's split table, then submit it.
    mapred::SplitTable input = *submission.input;
    for (mapred::SplitId id = 0; id < input.size(); ++id) {
      // The first scan's piggybacked index is available at every replica.
      for (mapred::SplitLocation& loc : input.mutable_locations(id)) {
        loc.layout = dfs::ReplicaLayout::kIndexed;
      }
      mapred::InputSplit& split = input.mutable_row(id);
      if (split.num_matching == 0) {
        split.scan_fraction = 0.0;
        split.hint_selectivity = 0.0;
      } else {
        // Expected fraction of the split's 1024-row batches containing at
        // least one of its m uniformly placed matches among n rows — the
        // portion an index-guided repeated scan must still read.
        const double n = static_cast<double>(split.num_records);
        const double m = static_cast<double>(split.num_matching);
        const double batch = static_cast<double>(exec::kVectorBatchRows);
        split.scan_fraction =
            std::clamp(1.0 - std::pow(1.0 - batch / n, m), 0.0, 1.0);
        split.hint_selectivity = m / n;
      }
    }
    submission.input =
        std::make_shared<const mapred::SplitTable>(std::move(input));
  }
  if (hints) {
    dynamic::SamplingInputProvider::Options popts;
    popts.use_split_hints = true;
    submission.input_provider =
        std::make_shared<dynamic::SamplingInputProvider>(policy, options.seed,
                                                         popts);
  }
  DMR_ASSIGN_OR_RETURN(mapred::JobStats stats,
                       bed.RunJobToCompletion(std::move(submission)));
  SimCell cell;
  cell.response_time = stats.response_time();
  cell.splits_processed = stats.splits_processed;
  cell.pruned_splits = bed.tracker().total_pruned_splits();
  return cell;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  // Driver flag, stripped before the shared parser.
  int reps = 7;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--reps=", 7) == 0) {
      reps = std::atoi(arg + 7);
      if (reps < 1 || reps > 100) {
        std::fprintf(stderr, "bad --reps value: %s (want 1..100)\n", arg + 7);
        return 2;
      }
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  bench::BenchOptions options = bench::BenchOptions::Parse(argc, argv);
  bench::ObsSession obs_session(options, "layout_pruning");
  bench::PrintHeader(
      "Adaptive layout: zone-map pruning + piggybacked indexing",
      "DESIGN.md §16 (Richter et al. piggybacked indexing over the paper's "
      "sampling scans)",
      "identical match counts and sample digests pruned vs unpruned; "
      "repeated low-selectivity query >= 5x faster than the unpruned "
      "vectorized path; simulated response times identical across tie "
      "seeds");

  const std::vector<double> zs = {0.0, 1.0, 2.0};
  // The paper's selectivity plus a 10x-lower one: with ~1 match per
  // partition most 1024-row batches are provably match-free, which is
  // where index-guided skipping pays off hardest.
  const std::vector<double> sels = {tpch::kPaperSelectivity,
                                    tpch::kPaperSelectivity / 10.0};
  const int host_threads = options.threads > 0 ? options.threads : 4;

  hive::HiveCompiler compiler(&tpch::LineItemSchema(),
                              &dynamic::PolicyTable::BuiltIn());
  bench::JsonWriter json;
  TablePrinter table({"z", "sel %", "variant", "wall ms", "rows phys",
                      "skipped %", "idx build/hit", "matches",
                      "sample digest"});
  bool ok = true;
  double low_sel_best_speedup = 0.0;

  struct Variant {
    const char* name;
    bool pruned;
    bool repeated;
  };
  const std::vector<Variant> variants = {
      {"unpruned-first", false, false},
      {"unpruned-repeated", false, true},
      {"pruned-first", true, false},
      {"pruned-repeated", true, true},
  };

  for (double z : zs) {
  for (double sel : sels) {
    tpch::SkewSpec spec;
    spec.num_partitions = 16;
    spec.records_per_partition = 50000;
    spec.selectivity = sel;
    spec.zipf_z = z;
    spec.seed = 20120402;
    auto pred = bench::UnwrapOrDie(tpch::PredicateForSkew(z), "predicate");
    auto dataset = bench::UnwrapOrDie(tpch::MaterializeDatasetShared(spec,
                                                                     pred),
                                      "dataset");
    auto compiled = compiler.Process(SqlForZ(z));
    bench::CheckOk(compiled.status(), "compile");
    const hive::CompiledQuery& query = *compiled->query;
    auto policy = bench::UnwrapOrDie(
        dynamic::PolicyTable::BuiltIn().Find("LA"), "policy");

    // reps repetitions of the 4-variant cycle; each pruned cycle starts
    // from a fresh catalog so "first" really is the index-building scan.
    std::vector<std::vector<double>> walls(variants.size());
    std::optional<HostRun> reference;
    std::vector<HostRun> last(variants.size());
    for (int rep = 0; rep < reps; ++rep) {
      exec::LayoutCatalog catalog;
      for (size_t v = 0; v < variants.size(); ++v) {
        exec::LocalRunOptions opts;
        opts.num_threads = host_threads;
        opts.engine = exec::Engine::kVectorized;
        opts.layout_catalog = variants[v].pruned ? &catalog : nullptr;
        HostRun run =
            bench::UnwrapOrDie(RunHost(query, *dataset, policy, opts),
                               "host run");
        walls[v].push_back(run.wall_s);
        if (!reference.has_value()) reference = run;
        // The byte-identity contract: every variant, every repetition.
        if (run.digest != reference->digest ||
            run.result.candidate_records !=
                reference->result.candidate_records ||
            run.result.records_scanned != reference->result.records_scanned ||
            run.result.rows.size() != reference->result.rows.size()) {
          std::fprintf(stderr,
                       "FAIL: z=%g sel=%g %s diverged from the unpruned "
                       "oracle "
                       "(digest %016llx vs %016llx, matches %llu vs %llu)\n",
                       z, sel, variants[v].name,
                       static_cast<unsigned long long>(run.digest),
                       static_cast<unsigned long long>(reference->digest),
                       static_cast<unsigned long long>(
                           run.result.candidate_records),
                       static_cast<unsigned long long>(
                           reference->result.candidate_records));
          ok = false;
        }
        last[v] = std::move(run);
      }
    }

    const double unpruned_ms = Median(walls[0]) * 1000.0;
    for (size_t v = 0; v < variants.size(); ++v) {
      const HostRun& run = last[v];
      const double wall_ms = Median(walls[v]) * 1000.0;
      const double skipped_pct =
          run.result.records_scanned > 0
              ? 100.0 *
                    static_cast<double>(run.result.records_scanned -
                                        run.result.rows_physically_scanned) /
                    static_cast<double>(run.result.records_scanned)
              : 0.0;
      const double speedup = wall_ms > 0.0 ? unpruned_ms / wall_ms : 0.0;
      if (sel < tpch::kPaperSelectivity && variants[v].pruned &&
          variants[v].repeated) {
        low_sel_best_speedup = std::max(low_sel_best_speedup, speedup);
      }
      char wall_buf[32], sel_buf[32], skip_buf[32], idx_buf[32],
          digest_buf[32];
      std::snprintf(wall_buf, sizeof(wall_buf), "%.3f", wall_ms);
      std::snprintf(sel_buf, sizeof(sel_buf), "%.3f", sel * 100.0);
      std::snprintf(skip_buf, sizeof(skip_buf), "%.1f", skipped_pct);
      std::snprintf(idx_buf, sizeof(idx_buf), "%llu/%llu",
                    static_cast<unsigned long long>(run.result.index_builds),
                    static_cast<unsigned long long>(run.result.index_hits));
      std::snprintf(digest_buf, sizeof(digest_buf), "%016llx",
                    static_cast<unsigned long long>(run.digest));
      table.AddRow({std::to_string(static_cast<int>(z)), sel_buf,
                    variants[v].name, wall_buf,
                    std::to_string(run.result.rows_physically_scanned),
                    skip_buf, idx_buf,
                    std::to_string(run.result.candidate_records),
                    digest_buf});
      json.AddCell()
          .Set("bench", "layout_pruning")
          .Set("z", z)
          .Set("selectivity", sel)
          .Set("variant", variants[v].name)
          .Set("wall_ms", wall_ms)
          .Set("speedup_vs_unpruned", speedup)
          .Set("records_scanned", run.result.records_scanned)
          .Set("rows_physically_scanned",
               run.result.rows_physically_scanned)
          .Set("rows_skipped_pct", skipped_pct)
          .Set("partitions_pruned", run.result.partitions_pruned)
          .Set("batches_pruned", run.result.batches_pruned)
          .Set("index_builds", run.result.index_builds)
          .Set("index_hits", run.result.index_hits)
          .Set("matches", run.result.candidate_records)
          .Set("sample_rows", static_cast<uint64_t>(run.result.rows.size()))
          .Set("sample_digest", digest_buf);
    }
  }
  }
  table.Print();
  std::printf("\n(matches and sample digests must agree for every variant "
              "of a (z, sel) row; wall times are medians over %d "
              "repetitions)\n",
              reps);
  std::printf("low-selectivity repeated-query speedup vs unpruned: %.1fx "
              "(best over z)\n\n",
              low_sel_best_speedup);

  // Simulated cluster cells: base tie order + 2 shuffled seeds. Virtual
  // time is deterministic, so each (z, variant) triple must produce the
  // same response time at every seed. Skipped when --shuffle-ties was
  // given on the command line (the seed is then process-global and swept
  // by the caller instead — tier1 does this for the digest-invariance
  // stage).
  const bool sweep_seeds = !options.shuffle_ties.has_value();
  const std::vector<std::pair<std::string, std::optional<uint64_t>>> seeds =
      sweep_seeds
          ? std::vector<std::pair<std::string, std::optional<uint64_t>>>{
                {"base", std::nullopt}, {"11", 11}, {"23", 23}}
          : std::vector<std::pair<std::string, std::optional<uint64_t>>>{
                {"cli", options.shuffle_ties}};
  const std::vector<const char*> sim_variants = {"unpruned", "repeated",
                                                 "repeated+hints"};
  TablePrinter sim_table({"z", "variant", "seed", "response time (s)",
                          "splits", "pruned splits"});
  for (double z : zs) {
    for (const char* variant : sim_variants) {
      std::optional<SimCell> first;
      for (const auto& [label, seed] : seeds) {
        if (sweep_seeds) sim::Simulation::SetGlobalTieShuffle(seed);
        SimCell cell =
            bench::UnwrapOrDie(RunSim(z, variant, label), "sim cell");
        char rt_buf[32];
        std::snprintf(rt_buf, sizeof(rt_buf), "%.3f", cell.response_time);
        sim_table.AddRow({std::to_string(static_cast<int>(z)), variant,
                          label, rt_buf,
                          std::to_string(cell.splits_processed),
                          std::to_string(cell.pruned_splits)});
        json.AddCell()
            .Set("bench", "layout_pruning_sim")
            .Set("z", z)
            .Set("variant", variant)
            .Set("seed", label)
            .Set("response_time_s", cell.response_time)
            .Set("splits_processed", cell.splits_processed)
            .Set("pruned_splits", cell.pruned_splits);
        if (!first.has_value()) {
          first = cell;
        } else if (cell.response_time != first->response_time ||
                   cell.splits_processed != first->splits_processed ||
                   cell.pruned_splits != first->pruned_splits) {
          std::fprintf(stderr,
                       "FAIL: z=%g %s seed=%s diverged (response %.6f vs "
                       "%.6f)\n",
                       z, variant, label.c_str(), cell.response_time,
                       first->response_time);
          ok = false;
        }
      }
    }
  }
  if (sweep_seeds) sim::Simulation::SetGlobalTieShuffle(std::nullopt);
  sim_table.Print();
  std::printf("\n(virtual-time response times must be identical across tie "
              "seeds; pruned splits cost only the stats read)\n");

  bench::MaybeWriteJson(options, json);
  if (!ok) {
    std::fprintf(stderr, "\nlayout pruning perturbed a digest-checked "
                 "quantity\n");
    return 1;
  }
  return 0;
}
