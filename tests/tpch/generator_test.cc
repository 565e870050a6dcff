#include "tpch/generator.h"

#include <gtest/gtest.h>

#include "expr/expression.h"
#include "tpch/dataset_catalog.h"
#include "tpch/lineitem.h"
#include "tpch/predicates.h"

namespace dmr::tpch {
namespace {

bool Matches(const SkewPredicate& pred, const LineItemRow& row) {
  auto result = expr::EvaluatePredicate(*pred.predicate, LineItemSchema(),
                                        ToTuple(row));
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() && *result;
}

TEST(PredicateSuiteTest, HasThreeSkewLevels) {
  const auto& suite = PredicateSuite();
  ASSERT_EQ(suite.size(), 3u);
  EXPECT_DOUBLE_EQ(suite[0].zipf_z, 0.0);
  EXPECT_DOUBLE_EQ(suite[1].zipf_z, 1.0);
  EXPECT_DOUBLE_EQ(suite[2].zipf_z, 2.0);
}

TEST(PredicateSuiteTest, LookupBySkew) {
  EXPECT_TRUE(PredicateForSkew(1.0).ok());
  EXPECT_TRUE(PredicateForSkew(0.5).status().IsNotFound());
}

TEST(PredicateSuiteTest, GenerationHooksAreConsistentWithPredicates) {
  Rng rng(21);
  LineItemGenerator gen(22);
  for (const auto& pred : PredicateSuite()) {
    for (int i = 0; i < 300; ++i) {
      LineItemRow row = gen.NextBaseRow();
      pred.make_matching(&rng, &row);
      EXPECT_TRUE(Matches(pred, row)) << pred.name;
      pred.make_non_matching(&rng, &row);
      EXPECT_FALSE(Matches(pred, row)) << pred.name;
    }
  }
}

TEST(GeneratorTest, BaseRowsAreTpchShaped) {
  LineItemGenerator gen(31);
  for (int i = 0; i < 500; ++i) {
    LineItemRow row = gen.NextBaseRow();
    EXPECT_GT(row.orderkey, 0);
    EXPECT_GE(row.quantity, 1);
    EXPECT_LE(row.quantity, 50);
    EXPECT_GE(row.discount, 0.0);
    EXPECT_LE(row.discount, 0.10 + 1e-9);
    EXPECT_GE(row.tax, 0.0);
    EXPECT_LE(row.tax, 0.08 + 1e-9);
    EXPECT_EQ(row.shipdate.size(), 10u);
    EXPECT_FALSE(row.shipmode.empty());
  }
}

TEST(GeneratorTest, OrderKeysIncrease) {
  LineItemGenerator gen(32);
  int64_t prev = 0;
  for (int i = 0; i < 100; ++i) {
    LineItemRow row = gen.NextBaseRow();
    EXPECT_GT(row.orderkey, prev);
    prev = row.orderkey;
  }
}

TEST(GeneratorTest, PartitionHasExactMatchingCount) {
  LineItemGenerator gen(33);
  const auto& pred = PredicateSuite()[1];
  auto part = *gen.GenerateColumnarPartition(5000, 37, pred);
  ASSERT_EQ(part.num_rows(), 5000u);
  int matching = 0;
  for (uint32_t i = 0; i < part.num_rows(); ++i) {
    if (Matches(pred, part.RowAt(i))) ++matching;
  }
  EXPECT_EQ(matching, 37);
}

TEST(GeneratorTest, ZeroMatchingPartition) {
  LineItemGenerator gen(34);
  const auto& pred = PredicateSuite()[2];
  auto part = *gen.GenerateColumnarPartition(1000, 0, pred);
  for (uint32_t i = 0; i < part.num_rows(); ++i) {
    EXPECT_FALSE(Matches(pred, part.RowAt(i)));
  }
}

TEST(GeneratorTest, AllMatchingPartition) {
  LineItemGenerator gen(35);
  const auto& pred = PredicateSuite()[0];
  auto part = *gen.GenerateColumnarPartition(500, 500, pred);
  for (uint32_t i = 0; i < part.num_rows(); ++i) {
    EXPECT_TRUE(Matches(pred, part.RowAt(i)));
  }
}

TEST(GeneratorTest, RejectsMatchingAboveRecords) {
  LineItemGenerator gen(36);
  EXPECT_TRUE(gen.GenerateColumnarPartition(10, 11, PredicateSuite()[0])
                  .status()
                  .IsInvalidArgument());
}

TEST(GeneratorTest, MatchingRowsAreSpreadThroughPartition) {
  LineItemGenerator gen(37);
  const auto& pred = PredicateSuite()[0];
  auto part = *gen.GenerateColumnarPartition(10000, 100, pred);
  int first_half = 0;
  for (uint32_t i = 0; i < 5000; ++i) {
    if (Matches(pred, part.RowAt(i))) ++first_half;
  }
  // Uniform placement: expect ~50 in each half, not all clumped.
  EXPECT_GT(first_half, 25);
  EXPECT_LT(first_half, 75);
}

TEST(MaterializeDatasetTest, BuildsConsistentDataset) {
  SkewSpec spec;
  spec.num_partitions = 10;
  spec.records_per_partition = 2000;
  spec.selectivity = 0.01;
  spec.zipf_z = 1.0;
  spec.seed = 77;
  auto dataset = *MaterializeDataset(spec);
  ASSERT_EQ(dataset.partitions.size(), 10u);
  EXPECT_EQ(dataset.total_records(), 20000u);
  EXPECT_EQ(dataset.total_matching(), 200u);

  // Ground truth per partition must match the materialized rows.
  for (size_t p = 0; p < dataset.partitions.size(); ++p) {
    const ColumnarPartition& part = dataset.partitions[p];
    EXPECT_EQ(part.num_rows(), 2000u);
    uint64_t matching = 0;
    for (uint32_t i = 0; i < part.num_rows(); ++i) {
      if (Matches(dataset.predicate, part.RowAt(i))) ++matching;
    }
    EXPECT_EQ(matching, dataset.matching_per_partition[p]) << "partition " << p;
  }
}

TEST(MaterializeDatasetTest, UsesPredicatePairedWithSkew) {
  SkewSpec spec;
  spec.num_partitions = 4;
  spec.records_per_partition = 100;
  spec.selectivity = 0.05;
  spec.zipf_z = 2.0;
  spec.seed = 5;
  auto dataset = *MaterializeDataset(spec);
  EXPECT_EQ(dataset.predicate.name, PredicateSuite()[2].name);
}

TEST(MaterializeDatasetTest, UnknownSkewIsRejected) {
  SkewSpec spec;
  spec.num_partitions = 4;
  spec.records_per_partition = 100;
  spec.zipf_z = 0.7;  // no paired predicate
  EXPECT_TRUE(MaterializeDataset(spec).status().IsNotFound());
}

TEST(CatalogTest, TableTwoProperties) {
  auto props = *PropertiesForScale(5);
  EXPECT_EQ(props.total_records, 30000000u);   // paper Table II
  EXPECT_EQ(props.num_partitions, 40);
  EXPECT_EQ(props.matching_records, 15000u);
  auto big = *PropertiesForScale(100);
  EXPECT_EQ(big.num_partitions, 800);
  EXPECT_EQ(big.total_records, 600000000u);
}

TEST(CatalogTest, RejectsNonPositiveScale) {
  EXPECT_TRUE(PropertiesForScale(0).status().IsInvalidArgument());
  EXPECT_TRUE(PropertiesForScale(-3).status().IsInvalidArgument());
}

TEST(CatalogTest, StandardScalesMatchPaper) {
  EXPECT_EQ(StandardScales(), (std::vector<int>{5, 10, 20, 40, 100}));
}

}  // namespace
}  // namespace dmr::tpch
