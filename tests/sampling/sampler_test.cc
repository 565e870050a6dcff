#include "sampling/sampler.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "expr/expression.h"
#include "tpch/generator.h"
#include "tpch/lineitem.h"
#include "tpch/predicates.h"

namespace dmr::sampling {
namespace {

using expr::Bin;
using expr::BinaryOp;
using expr::Col;
using expr::Lit;

expr::Tuple RowWithQuantity(int64_t q) {
  tpch::LineItemRow row;
  row.quantity = q;
  return tpch::ToTuple(row);
}

expr::ExprPtr QuantityOver50() {
  return Bin(BinaryOp::kGt, Col("QUANTITY"), Lit(int64_t{50}));
}

TEST(SamplingMapperTest, EmitsOnlyMatches) {
  SamplingMapper mapper(QuantityOver50(), &tpch::LineItemSchema(), 10);
  std::vector<expr::Tuple> out;
  EXPECT_FALSE(*mapper.Map(RowWithQuantity(10), &out));
  EXPECT_TRUE(*mapper.Map(RowWithQuantity(60), &out));
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(mapper.records_seen(), 2u);
  EXPECT_EQ(mapper.records_matched(), 1u);
  EXPECT_EQ(mapper.emitted(), 1u);
}

TEST(SamplingMapperTest, CapsEmissionAtK) {
  // Algorithm 1: each map outputs at most k pairs, but keeps scanning (and
  // counting matches) past the cap.
  SamplingMapper mapper(QuantityOver50(), &tpch::LineItemSchema(), 3);
  std::vector<expr::Tuple> out;
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(*mapper.Map(RowWithQuantity(99), &out));
  }
  EXPECT_EQ(out.size(), 3u);
  EXPECT_EQ(mapper.emitted(), 3u);
  EXPECT_EQ(mapper.records_matched(), 10u);
  EXPECT_EQ(mapper.records_seen(), 10u);
}

TEST(SamplingMapperTest, PropagatesEvaluationErrors) {
  auto bad = Bin(BinaryOp::kGt, Col("NOPE"), Lit(int64_t{1}));
  SamplingMapper mapper(bad, &tpch::LineItemSchema(), 10);
  std::vector<expr::Tuple> out;
  EXPECT_FALSE(mapper.Map(RowWithQuantity(1), &out).ok());
}

TEST(SamplingReducerTest, KeepsFirstK) {
  SamplingReducer reducer(3, SampleMode::kFirstK);
  for (int64_t i = 0; i < 10; ++i) reducer.Add(RowWithQuantity(i));
  auto sample = reducer.Finish();
  ASSERT_EQ(sample.size(), 3u);
  for (int64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(std::get<int64_t>(sample[i][tpch::kQuantity]), i);
  }
}

TEST(SamplingReducerTest, FewerThanKKeepsAll) {
  SamplingReducer reducer(100, SampleMode::kFirstK);
  reducer.Add(RowWithQuantity(1));
  reducer.Add(RowWithQuantity(2));
  EXPECT_EQ(reducer.Finish().size(), 2u);
}

TEST(SamplingReducerTest, FinishResets) {
  SamplingReducer reducer(2, SampleMode::kFirstK);
  reducer.Add(RowWithQuantity(1));
  EXPECT_EQ(reducer.Finish().size(), 1u);
  EXPECT_EQ(reducer.candidates_seen(), 0u);
  EXPECT_EQ(reducer.Finish().size(), 0u);
}

TEST(SamplingReducerTest, ReservoirKeepsExactlyK) {
  SamplingReducer reducer(5, SampleMode::kReservoir, /*seed=*/3);
  for (int64_t i = 0; i < 1000; ++i) reducer.Add(RowWithQuantity(i));
  EXPECT_EQ(reducer.Finish().size(), 5u);
}

/// Chi-square statistic of per-position inclusion counts against a uniform
/// k-of-n sample, which includes each position with probability k / n.
double InclusionChiSquare(const std::vector<int>& hits, int k, int trials) {
  const double expected =
      static_cast<double>(k) * trials / static_cast<double>(hits.size());
  double chi_square = 0.0;
  for (int h : hits) chi_square += (h - expected) * (h - expected) / expected;
  return chi_square;
}

TEST(SamplingReducerTest, ReservoirIsUnbiased) {
  // Footnote 1: "one could do a 'random' k instead". Over 2,000 seeds, a
  // 100-candidate stream and k = 10, each position is expected in 200
  // samples. The statistic must stay below the 0.9995 quantile of the
  // chi-square distribution with 99 degrees of freedom; first-k, or any
  // bias toward early or late candidates, lands far above it.
  constexpr int kTrials = 2000;
  constexpr int kStream = 100;
  constexpr int kK = 10;
  constexpr double kChiSquare99Quantile9995 = 151.93;
  std::vector<int> tuple_hits(kStream, 0);
  std::vector<int> ref_hits(kStream, 0);
  for (int t = 0; t < kTrials; ++t) {
    SamplingReducer tuples(kK, SampleMode::kReservoir, 1000 + t);
    RefSamplingReducer refs(kK, SampleMode::kReservoir, 1000 + t);
    for (int64_t i = 0; i < kStream; ++i) {
      tuples.Add(RowWithQuantity(i));
      refs.Add(RowRef{0, static_cast<uint32_t>(i)});
    }
    for (const auto& row : tuples.Finish()) {
      ++tuple_hits[std::get<int64_t>(row[tpch::kQuantity])];
    }
    for (const RowRef& ref : refs.Finish()) ++ref_hits[ref.row];
  }
  EXPECT_LT(InclusionChiSquare(tuple_hits, kK, kTrials),
            kChiSquare99Quantile9995);
  EXPECT_LT(InclusionChiSquare(ref_hits, kK, kTrials),
            kChiSquare99Quantile9995);
}

TEST(SamplingReducerTest, FirstKNeverPicksLateCandidates) {
  SamplingReducer reducer(5, SampleMode::kFirstK);
  for (int64_t i = 0; i < 100; ++i) reducer.Add(RowWithQuantity(i));
  for (const auto& row : reducer.Finish()) {
    EXPECT_LT(std::get<int64_t>(row[tpch::kQuantity]), 5);
  }
}

TEST(MapReducePipelineTest, EndToEndOverGeneratedPartition) {
  // Algorithm 1 + Algorithm 2 over real generated data.
  tpch::LineItemGenerator gen(5);
  const auto& pred = tpch::PredicateSuite()[0];
  auto part = *gen.GenerateColumnarPartition(20000, 120, pred);

  const uint64_t k = 50;
  SamplingMapper mapper(pred.predicate, &tpch::LineItemSchema(), k);
  std::vector<expr::Tuple> candidates;
  for (uint32_t row = 0; row < part.num_rows(); ++row) {
    ASSERT_TRUE(mapper.Map(part.TupleAt(row), &candidates).ok());
  }
  EXPECT_EQ(mapper.records_matched(), 120u);
  EXPECT_EQ(candidates.size(), k);  // capped

  SamplingReducer reducer(k, SampleMode::kFirstK);
  for (auto& c : candidates) reducer.Add(std::move(c));
  auto sample = reducer.Finish();
  ASSERT_EQ(sample.size(), k);
  for (const auto& row : sample) {
    auto ok = expr::EvaluatePredicate(*pred.predicate,
                                      tpch::LineItemSchema(), row);
    ASSERT_TRUE(ok.ok());
    EXPECT_TRUE(*ok);
  }
}

}  // namespace
}  // namespace dmr::sampling
