#include "exec/local_runtime.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <variant>
#include <vector>

#include "hive/compiler.h"
#include "tpch/dataset_catalog.h"
#include "tpch/lineitem.h"
#include "tpch/predicates.h"

namespace dmr::exec {
namespace {

class LocalRuntimeTest : public ::testing::Test {
 protected:
  LocalRuntimeTest()
      : compiler_(&tpch::LineItemSchema(),
                  &dynamic::PolicyTable::BuiltIn()) {}

  tpch::MaterializedDataset MakeData(int partitions, uint64_t records,
                                     double selectivity, double z,
                                     uint64_t seed = 5) {
    tpch::SkewSpec spec;
    spec.num_partitions = partitions;
    spec.records_per_partition = records;
    spec.selectivity = selectivity;
    spec.zipf_z = z;
    spec.seed = seed;
    auto dataset = tpch::MaterializeDataset(spec);
    EXPECT_TRUE(dataset.ok());
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

TEST_F(LocalRuntimeTest, SampleSatisfiesPredicateAndSize) {
  auto data = MakeData(12, 10000, 0.01, 1.0);  // 1200 matching
  auto query = Compile(
      "SELECT * FROM lineitem WHERE DISCOUNT > 0.10 LIMIT 100");
  LocalRuntime runtime({.num_threads = 4});
  auto result = runtime.Execute(query, data, Policy("LA"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 100u);
  for (const auto& row : result->rows) {
    auto matches = expr::EvaluatePredicate(*query.predicate,
                                           tpch::LineItemSchema(), row);
    ASSERT_TRUE(matches.ok());
    EXPECT_TRUE(*matches);
  }
}

TEST_F(LocalRuntimeTest, StopsEarlyWhenEnoughFound) {
  auto data = MakeData(20, 5000, 0.05, 0.0);  // plenty of matches everywhere
  auto query =
      Compile("SELECT ORDERKEY FROM lineitem WHERE QUANTITY > 50 LIMIT 50");
  LocalRuntime runtime({.num_threads = 4});
  auto result = runtime.Execute(query, data, Policy("C"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 50u);
  EXPECT_LT(result->partitions_processed, 20);
}

TEST_F(LocalRuntimeTest, ScansEverythingWhenMatchesAreScarce) {
  auto data = MakeData(6, 2000, 0.0, 0.0);  // zero matching records
  auto query =
      Compile("SELECT ORDERKEY FROM lineitem WHERE QUANTITY > 50 LIMIT 10");
  LocalRuntime runtime({.num_threads = 2});
  auto result = runtime.Execute(query, data, Policy("LA"));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->rows.empty());
  EXPECT_EQ(result->partitions_processed, 6);
  EXPECT_EQ(result->records_scanned, 12000u);
}

TEST_F(LocalRuntimeTest, PartialSampleWhenMatchesShortOfK) {
  auto data = MakeData(5, 4000, 0.005, 0.0);  // 100 matching total
  auto query =
      Compile("SELECT ORDERKEY FROM lineitem WHERE QUANTITY > 50 LIMIT 500");
  LocalRuntime runtime({.num_threads = 4});
  auto result = runtime.Execute(query, data, Policy("HA"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 100u);
  EXPECT_EQ(result->partitions_processed, 5);
}

TEST_F(LocalRuntimeTest, ProjectionSelectsRequestedColumns) {
  auto data = MakeData(4, 1000, 0.01, 0.0);
  auto query = Compile(
      "SELECT SUPPKEY, SHIPMODE FROM lineitem WHERE QUANTITY > 50 LIMIT 5");
  LocalRuntime runtime({.num_threads = 2});
  auto result = runtime.Execute(query, data, Policy("LA"));
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->rows.empty());
  for (const auto& row : result->rows) {
    ASSERT_EQ(row.size(), 2u);
    EXPECT_EQ(expr::TypeOf(row[0]), expr::ValueType::kInt64);
    EXPECT_EQ(expr::TypeOf(row[1]), expr::ValueType::kString);
  }
}

TEST_F(LocalRuntimeTest, FullScanWithoutLimitReturnsAllMatches) {
  auto data = MakeData(8, 2500, 0.01, 1.0);  // 200 matching
  auto query = Compile("SELECT ORDERKEY FROM lineitem WHERE DISCOUNT > 0.10");
  LocalRuntime runtime({.num_threads = 4});
  auto result = runtime.Execute(query, data, Policy("LA"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 200u);
  EXPECT_EQ(result->partitions_processed, 8);
}

TEST_F(LocalRuntimeTest, NoWhereClauseSamplesAnything) {
  auto data = MakeData(4, 1000, 0.0, 0.0);
  auto query = Compile("SELECT ORDERKEY FROM lineitem LIMIT 7");
  LocalRuntime runtime({.num_threads = 2});
  auto result = runtime.Execute(query, data, Policy("LA"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 7u);
  EXPECT_LT(result->partitions_processed, 4);  // one partition suffices
}

TEST_F(LocalRuntimeTest, SelectivityEstimateConvergesOnUniformData) {
  auto data = MakeData(16, 20000, 0.002, 0.0);
  auto query =
      Compile("SELECT ORDERKEY FROM lineitem WHERE QUANTITY > 50 LIMIT 200");
  LocalRuntime runtime({.num_threads = 4});
  auto result = runtime.Execute(query, data, Policy("C"));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 200u);
  EXPECT_NEAR(result->estimated_selectivity, 0.002, 0.001);
}

TEST_F(LocalRuntimeTest, ReservoirModeStillSatisfiesPredicate) {
  auto data = MakeData(10, 5000, 0.01, 1.0);
  auto query =
      Compile("SELECT * FROM lineitem WHERE DISCOUNT > 0.10 LIMIT 40");
  LocalRuntime runtime(
      {.num_threads = 4, .sample_mode = sampling::SampleMode::kReservoir});
  auto result = runtime.Execute(query, data, Policy("MA"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 40u);
  for (const auto& row : result->rows) {
    EXPECT_TRUE(*expr::EvaluatePredicate(*query.predicate,
                                         tpch::LineItemSchema(), row));
  }
}

TEST_F(LocalRuntimeTest, DeterministicForSeed) {
  auto data = MakeData(10, 2000, 0.01, 1.0);
  auto query =
      Compile("SELECT ORDERKEY FROM lineitem WHERE DISCOUNT > 0.10 LIMIT 30");
  LocalRuntime a({.num_threads = 3, .seed = 99});
  LocalRuntime b({.num_threads = 3, .seed = 99});
  auto ra = a.Execute(query, data, Policy("LA"));
  auto rb = b.Execute(query, data, Policy("LA"));
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  ASSERT_EQ(ra->rows.size(), rb->rows.size());
  EXPECT_EQ(ra->partitions_processed, rb->partitions_processed);
  for (size_t i = 0; i < ra->rows.size(); ++i) {
    EXPECT_EQ(std::get<int64_t>(ra->rows[i][0]),
              std::get<int64_t>(rb->rows[i][0]));
  }
}

TEST_F(LocalRuntimeTest, FailingMapTaskFailsTheQueryOnBothEngines) {
  // QUANTITY / (QUANTITY - QUANTITY) divides by zero on every row, so every
  // map task fails; the pool must return that Status rather than a sample.
  auto data = MakeData(6, 500, 0.01, 0.0);
  auto query = Compile("SELECT ORDERKEY FROM lineitem LIMIT 10");
  query.predicate = expr::Bin(
      expr::BinaryOp::kGt,
      expr::Bin(expr::BinaryOp::kDiv, expr::Col("QUANTITY"),
                expr::Bin(expr::BinaryOp::kSub, expr::Col("QUANTITY"),
                          expr::Col("QUANTITY"))),
      expr::Lit(1.0));
  for (Engine engine : {Engine::kInterpreted, Engine::kVectorized}) {
    LocalRuntime runtime({.num_threads = 4, .engine = engine});
    auto result = runtime.Execute(query, data, Policy("LA"));
    EXPECT_FALSE(result.ok()) << EngineToString(engine);
  }
}

class LocalPolicySweepTest : public ::testing::TestWithParam<const char*> {};

TEST_P(LocalPolicySweepTest, EveryPolicyDeliversTheSample) {
  tpch::SkewSpec spec;
  spec.num_partitions = 12;
  spec.records_per_partition = 5000;
  spec.selectivity = 0.01;
  spec.zipf_z = 2.0;
  spec.seed = 31;
  auto data = *tpch::MaterializeDataset(spec);

  hive::HiveCompiler compiler(&tpch::LineItemSchema(),
                              &dynamic::PolicyTable::BuiltIn());
  auto compiled =
      compiler.Process("SELECT * FROM lineitem WHERE TAX > 0.08 LIMIT 150");
  ASSERT_TRUE(compiled.ok());
  LocalRuntime runtime({.num_threads = 4});
  auto policy = *dynamic::PolicyTable::BuiltIn().Find(GetParam());
  auto result = runtime.Execute(*compiled->query, data, policy);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 150u);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, LocalPolicySweepTest,
                         ::testing::Values("Hadoop", "HA", "MA", "LA", "C"));

/// The p-quantile of the chi-square distribution with `dof` degrees of
/// freedom, from the standard normal p-quantile (Wilson-Hilferty).
double ChiSquareQuantile(double dof, double normal_quantile) {
  const double h = 2.0 / (9.0 * dof);
  const double root = 1.0 - h + normal_quantile * std::sqrt(h);
  return dof * root * root * root;
}

/// The footnote's reservoir is uniform over the whole candidate list, across
/// partitions and at every skew. The Hadoop policy grants every split in
/// round one, so the candidates are exactly the first k matches of each
/// partition (found here with the oracle, EvaluatePredicate), and over S
/// seeds each must be returned about S*k/C times. The chi-square statistic
/// of those counts stays below the 0.9999 quantile for C-1 degrees of
/// freedom. First-k in place of the reservoir lands far above it at z = 1
/// and 2; at z = 0 it passes too, since every partition then has k matches
/// and the provider's seeded grant order picks one uniformly.
TEST(ReservoirAcrossPartitionsTest, UniformOverCandidatesAtEverySkew) {
  constexpr int kSeeds = 2000;
  constexpr uint64_t kK = 10;
  constexpr double kNormalQuantile9999 = 3.719;
  hive::HiveCompiler compiler(&tpch::LineItemSchema(),
                              &dynamic::PolicyTable::BuiltIn());
  const dynamic::GrowthPolicy hadoop =
      *dynamic::PolicyTable::BuiltIn().Find("Hadoop");
  for (double z : {0.0, 1.0, 2.0}) {
    SCOPED_TRACE("z=" + std::to_string(z));
    tpch::SkewSpec spec;
    spec.num_partitions = 8;
    spec.records_per_partition = 2000;
    spec.selectivity = 0.01;  // 160 matches, spread by Zipf(z)
    spec.zipf_z = z;
    spec.seed = 11;
    auto data = tpch::MaterializeDataset(spec);
    ASSERT_TRUE(data.ok()) << data.status().ToString();
    auto predicate = tpch::PredicateForSkew(z);
    ASSERT_TRUE(predicate.ok());
    auto compiled = compiler.Process("SELECT ORDERKEY FROM lineitem WHERE " +
                                     predicate->sql + " LIMIT " +
                                     std::to_string(kK));
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    const hive::CompiledQuery& query = *compiled->query;

    // ORDERKEY identifies a returned row: check it is unique first.
    std::unordered_set<int64_t> keys;
    std::unordered_map<int64_t, size_t> candidate_index;
    for (const tpch::ColumnarPartition& part : data->partitions) {
      uint64_t taken = 0;
      for (uint32_t row = 0; row < part.num_rows(); ++row) {
        const int64_t key =
            std::get<int64_t>(part.ValueAt(tpch::kOrderKey, row));
        ASSERT_TRUE(keys.insert(key).second) << "duplicate ORDERKEY " << key;
        auto matched = expr::EvaluatePredicate(
            *query.predicate, tpch::LineItemSchema(), part.TupleAt(row));
        ASSERT_TRUE(matched.ok());
        if (*matched && taken < kK) {
          ++taken;
          candidate_index.emplace(key, candidate_index.size());
        }
      }
    }
    const size_t num_candidates = candidate_index.size();
    ASSERT_GT(num_candidates, 2 * kK);

    std::vector<int> hits(num_candidates, 0);
    for (int s = 0; s < kSeeds; ++s) {
      LocalRuntime runtime(
          {.num_threads = 4,
           .sample_mode = sampling::SampleMode::kReservoir,
           .seed = static_cast<uint64_t>(1000 + s)});
      auto result = runtime.Execute(query, *data, hadoop);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ASSERT_EQ(result->provider_rounds, 1);
      ASSERT_EQ(result->candidate_records, num_candidates);
      ASSERT_EQ(result->rows.size(), kK);
      for (const expr::Tuple& row : result->rows) {
        auto it = candidate_index.find(std::get<int64_t>(row[0]));
        ASSERT_NE(it, candidate_index.end())
            << "returned a row outside the candidate set";
        ++hits[it->second];
      }
    }
    const double expected = static_cast<double>(kSeeds) * kK /
                            static_cast<double>(num_candidates);
    double chi_square = 0.0;
    for (int h : hits) chi_square += (h - expected) * (h - expected) / expected;
    EXPECT_LT(chi_square,
              ChiSquareQuantile(static_cast<double>(num_candidates - 1),
                                kNormalQuantile9999))
        << num_candidates << " candidates";
  }
}

}  // namespace
}  // namespace dmr::exec
