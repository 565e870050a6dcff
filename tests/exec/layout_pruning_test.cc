/// \file
/// Differential tests for the adaptive-layout path (DESIGN.md §16): zone-map
/// pruning and piggybacked indexing must be invisible to everything except
/// physical cost. A 200-case seeded fuzzer compares pruned and unpruned runs
/// of both engines, in both trim modes, against the interpreted oracle; a
/// dedicated test pins down that a repeated predicate is strictly cheaper
/// once the piggybacked index has landed.

#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "exec/layout_catalog.h"
#include "exec/local_runtime.h"
#include "exec/vectorized.h"
#include "hive/compiler.h"
#include "tpch/dataset_catalog.h"
#include "tpch/generator.h"
#include "tpch/lineitem.h"

namespace dmr::exec {
namespace {

class LayoutPruningTest : public ::testing::Test {
 protected:
  LayoutPruningTest()
      : compiler_(&tpch::LineItemSchema(), &dynamic::PolicyTable::BuiltIn()) {}

  tpch::MaterializedDataset MakeData(int partitions, uint64_t records,
                                     double selectivity, double z,
                                     uint64_t seed) {
    tpch::SkewSpec spec;
    spec.num_partitions = partitions;
    spec.records_per_partition = records;
    spec.selectivity = selectivity;
    spec.zipf_z = z;
    spec.seed = seed;
    auto dataset = tpch::MaterializeDataset(spec);
    EXPECT_TRUE(dataset.ok()) << dataset.status().ToString();
    return *std::move(dataset);
  }

  hive::CompiledQuery Compile(const std::string& sql) {
    auto result = compiler_.Process(sql);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return *result->query;
  }

  dynamic::GrowthPolicy Policy(const char* name) {
    return *dynamic::PolicyTable::BuiltIn().Find(name);
  }

  hive::HiveCompiler compiler_;
};

/// Expects two runs to agree on everything the pruning contract freezes:
/// the exact result rows (values and order), the logical record counters
/// and the provider behaviour — only physical-cost counters may differ.
void ExpectSameOutcome(const LocalRunResult& a, const LocalRunResult& b,
                       const std::string& what) {
  EXPECT_EQ(a.rows, b.rows) << what;
  EXPECT_EQ(a.records_scanned, b.records_scanned) << what;
  EXPECT_EQ(a.candidate_records, b.candidate_records) << what;
  EXPECT_EQ(a.partitions_processed, b.partitions_processed) << what;
  EXPECT_EQ(a.provider_rounds, b.provider_rounds) << what;
}

/// 200 seeded random cases: dataset shape x suite predicate x LIMIT x trim
/// mode. For each case the interpreted engine is the oracle; the vectorized
/// engine must reproduce it unpruned, pruned-first (fresh catalog, indexes
/// registered) and pruned-repeated (catalog warm, indexes consulted).
TEST_F(LayoutPruningTest, DifferentialFuzzPrunedVsOracle) {
  // Predicates over every zone-map slot kind the compiler prunes with:
  // int64, double, date and dictionary columns, plus compound shapes.
  const char* predicates[] = {
      "QUANTITY > 50",
      "DISCOUNT > 0.10",
      "TAX > 0.08",
      "QUANTITY > 30 AND DISCOUNT > 0.05",
      "QUANTITY > 62 OR TAX > 0.07",
      "SHIPDATE > '1998-09-01'",
      "RETURNFLAG = 'Z'",
      "QUANTITY BETWEEN 48 AND 50 AND TAX > 0.05",
      "EXTENDEDPRICE > 90000.0",
      "LINENUMBER IN (8, 9)",
  };
  Rng rng(0xD1CE5EEDULL);
  for (int c = 0; c < 200; ++c) {
    const int partitions = static_cast<int>(rng.NextInRange(1, 5));
    const uint64_t records = static_cast<uint64_t>(rng.NextInRange(64, 2500));
    const double selectivity = 0.02 * rng.NextDouble();
    const double z = static_cast<double>(rng.NextBounded(3));
    const uint64_t data_seed = rng.Next();
    const char* pred = predicates[rng.NextBounded(std::size(predicates))];
    const uint64_t limit = rng.NextBounded(4) == 0
                               ? 0  // full select-project scan
                               : static_cast<uint64_t>(
                                     rng.NextInRange(1, 150));
    const uint64_t run_seed = rng.Next();
    const sampling::SampleMode mode = rng.NextBounded(2) == 0
                                          ? sampling::SampleMode::kFirstK
                                          : sampling::SampleMode::kReservoir;

    std::string sql = std::string("SELECT * FROM lineitem WHERE ") + pred;
    if (limit > 0) sql += " LIMIT " + std::to_string(limit);
    SCOPED_TRACE("case " + std::to_string(c) + ": " + sql + " over " +
                 std::to_string(partitions) + "x" + std::to_string(records) +
                 " z=" + std::to_string(z));

    auto data = MakeData(partitions, records, selectivity, z, data_seed);
    auto query = Compile(sql);
    auto policy = Policy("LA");

    LocalRunOptions base;
    base.num_threads = 2;
    base.seed = run_seed;
    base.sample_mode = mode;

    LocalRunOptions interpreted = base;
    interpreted.engine = Engine::kInterpreted;
    auto oracle = LocalRuntime(interpreted).Execute(query, data, policy);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();

    LocalRunOptions vectorized = base;
    vectorized.engine = Engine::kVectorized;
    auto unpruned = LocalRuntime(vectorized).Execute(query, data, policy);
    ASSERT_TRUE(unpruned.ok()) << unpruned.status().ToString();
    ExpectSameOutcome(*oracle, *unpruned, "vectorized vs oracle");

    LayoutCatalog catalog;
    LocalRunOptions pruned = vectorized;
    pruned.layout_catalog = &catalog;
    auto first = LocalRuntime(pruned).Execute(query, data, policy);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    ExpectSameOutcome(*oracle, *first, "pruned-first vs oracle");

    auto repeated = LocalRuntime(pruned).Execute(query, data, policy);
    ASSERT_TRUE(repeated.ok()) << repeated.status().ToString();
    ExpectSameOutcome(*oracle, *repeated, "pruned-repeated vs oracle");
    // Whatever the index skipped must never exceed what exists, and the
    // logical counters must not notice the physical savings.
    EXPECT_LE(repeated->rows_physically_scanned,
              repeated->records_scanned);
  }
}

/// Once the first scan has piggybacked the per-batch index, a repeated
/// low-selectivity predicate must get strictly cheaper: fewer rows
/// physically scanned, with the index consulted — and identical output.
TEST_F(LayoutPruningTest, RepeatedPredicateStrictlyCheaperAfterIndexLands) {
  auto data = MakeData(8, 5000, 0.001, 1.0, /*seed=*/20120402);
  auto query = Compile(
      "SELECT * FROM lineitem WHERE DISCOUNT > 0.10 LIMIT 50");
  auto policy = Policy("LA");

  LayoutCatalog catalog;
  LocalRunOptions options;
  options.num_threads = 2;
  options.engine = Engine::kVectorized;
  options.layout_catalog = &catalog;

  auto first = LocalRuntime(options).Execute(query, data, policy);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_GT(first->index_builds, 0u);
  EXPECT_EQ(first->index_hits, 0u);

  auto repeated = LocalRuntime(options).Execute(query, data, policy);
  ASSERT_TRUE(repeated.ok()) << repeated.status().ToString();
  ExpectSameOutcome(*first, *repeated, "repeated vs first");
  EXPECT_GT(repeated->index_hits, 0u);
  EXPECT_EQ(repeated->index_builds, 0u);
  EXPECT_LT(repeated->rows_physically_scanned,
            first->rows_physically_scanned);
  EXPECT_GT(repeated->batches_pruned, 0u);
}

/// BuildZoneMap's column-major fold must agree exactly with the
/// incrementally maintained partition-level map (the row-major fold).
TEST_F(LayoutPruningTest, ColumnMajorBuildMatchesIncrementalMap) {
  auto data = MakeData(1, 3000, 0.01, 0.0, /*seed=*/99);
  const tpch::ColumnarPartition& part = data.partitions[0];
  const tpch::ZoneMap& incremental = part.zone_map();
  tpch::ZoneMap rebuilt = part.BuildZoneMap(0, part.num_rows());
  for (int s = 0; s < tpch::ZoneMap::kI64Slots; ++s) {
    EXPECT_EQ(rebuilt.i64_min[s], incremental.i64_min[s]);
    EXPECT_EQ(rebuilt.i64_max[s], incremental.i64_max[s]);
  }
  for (int s = 0; s < tpch::ZoneMap::kF64Slots; ++s) {
    EXPECT_EQ(rebuilt.f64_min[s], incremental.f64_min[s]);
    EXPECT_EQ(rebuilt.f64_max[s], incremental.f64_max[s]);
  }
  for (int s = 0; s < tpch::ZoneMap::kDateSlots; ++s) {
    EXPECT_EQ(rebuilt.date_min[s], incremental.date_min[s]);
    EXPECT_EQ(rebuilt.date_max[s], incremental.date_max[s]);
  }
  for (int s = 0; s < tpch::ZoneMap::kDictSlots; ++s) {
    EXPECT_EQ(rebuilt.dict_present[s], incremental.dict_present[s]);
  }
}

/// A column-subset map stays sound for predicates over other columns: the
/// unfolded slots are invalid and the evaluator must answer kMaybe, never
/// a false kNoMatch/kAllMatch.
TEST_F(LayoutPruningTest, SubsetZoneMapIsSoundForOtherPredicates) {
  auto data = MakeData(1, 2048, 0.01, 0.0, /*seed=*/7);
  const tpch::ColumnarPartition& part = data.partitions[0];

  auto quantity_query = Compile(
      "SELECT * FROM lineitem WHERE QUANTITY < 1000 LIMIT 5");
  auto program = PredicateProgram::Compile(*quantity_query.predicate);
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  // Fold only the columns a DISCOUNT predicate consults.
  auto discount_query = Compile(
      "SELECT * FROM lineitem WHERE DISCOUNT > 0.10 LIMIT 5");
  auto discount_program = PredicateProgram::Compile(
      *discount_query.predicate);
  ASSERT_TRUE(discount_program.ok());
  tpch::ZoneMap subset = part.BuildZoneMap(
      0, part.num_rows(), discount_program->ZoneMapColumnsUsed());

  // Every QUANTITY is far below 1000, so against a full map the verdict is
  // decidable (kAllMatch); against the subset map its slot is invalid and
  // the evaluator must refuse to decide.
  BoundPredicate bound(&*program, &part);
  EXPECT_EQ(bound.EvaluateZoneMap(part.zone_map()), PruneVerdict::kAllMatch);
  EXPECT_EQ(bound.EvaluateZoneMap(subset), PruneVerdict::kMaybe);

  // The subset map still decides for its own predicate exactly as the full
  // map does.
  BoundPredicate discount_bound(&*discount_program, &part);
  EXPECT_EQ(discount_bound.EvaluateZoneMap(subset),
            discount_bound.EvaluateZoneMap(part.zone_map()));
}

}  // namespace
}  // namespace dmr::exec
