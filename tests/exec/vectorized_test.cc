/// \file
/// Differential tests for the vectorized predicate engine: the interpreted
/// evaluator is the oracle. Covers the hand-written kernel matrix, LIKE
/// edge patterns, a seeded expression fuzzer (200 randomized well-typed
/// predicates), engine parity through LocalRuntime, the positional
/// reducer, the batch mapper, and the memoized dataset cache under
/// concurrency (suite names carry "Vectorized" so the TSan preset picks
/// them up).

#include "exec/vectorized.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "exec/local_runtime.h"
#include "exec/parallel.h"
#include "expr/expression.h"
#include "hive/compiler.h"
#include "sampling/sampler.h"
#include "tpch/columnar.h"
#include "tpch/generator.h"
#include "tpch/lineitem.h"
#include "tpch/predicates.h"

namespace dmr::exec {
namespace {

using expr::Bin;
using expr::BinaryOp;
using expr::Col;
using expr::ExprPtr;
using expr::Lit;
using expr::Value;

ExprPtr Like(ExprPtr operand, std::string pattern, bool negated = false) {
  return std::make_shared<expr::LikeExpr>(std::move(operand),
                                          std::move(pattern), negated);
}

ExprPtr Between(ExprPtr operand, ExprPtr lo, ExprPtr hi) {
  return std::make_shared<expr::BetweenExpr>(std::move(operand),
                                             std::move(lo), std::move(hi));
}

ExprPtr In(ExprPtr operand, std::vector<ExprPtr> candidates) {
  return std::make_shared<expr::InExpr>(std::move(operand),
                                        std::move(candidates));
}

ExprPtr Not(ExprPtr operand) {
  return std::make_shared<expr::NotExpr>(std::move(operand));
}

/// A small partition with both matching and non-matching rows of the suite
/// predicate, so comparisons see both outcomes.
class VectorizedParityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    tpch::LineItemGenerator gen(20120402);
    partition_ = new tpch::ColumnarPartition(*gen.GenerateColumnarPartition(
        512, 32, tpch::PredicateSuite()[0]));
    tuples_ = new std::vector<expr::Tuple>();
    tuples_->reserve(partition_->num_rows());
    for (uint32_t row = 0; row < partition_->num_rows(); ++row) {
      tuples_->push_back(partition_->TupleAt(row));
    }
  }

  static void TearDownTestSuite() {
    delete partition_;
    delete tuples_;
    partition_ = nullptr;
    tuples_ = nullptr;
  }

  /// Evaluates `e` per row with the interpreter and over the partition with
  /// the compiled program, and requires identical outcomes — identical
  /// match lists when both succeed, or failure on both sides.
  void ExpectParity(const ExprPtr& e) {
    SCOPED_TRACE(e->ToString());
    std::vector<uint32_t> expected;
    bool interp_failed = false;
    const auto& schema = tpch::LineItemSchema();
    for (uint32_t i = 0; i < tuples_->size(); ++i) {
      auto v = expr::EvaluatePredicate(*e, schema, (*tuples_)[i]);
      if (!v.ok()) {
        interp_failed = true;
        break;
      }
      if (*v) expected.push_back(i);
    }
    auto compiled = PredicateProgram::Compile(*e);
    if (!compiled.ok()) {
      // The documented deviation: the vectorized engine rejects ill-typed
      // expressions at compile time, which the interpreter only notices on
      // the rows it evaluates. A compile rejection is only acceptable when
      // the interpreter failed too.
      EXPECT_TRUE(interp_failed)
          << "vectorized rejected what the interpreter accepts: "
          << compiled.status().ToString();
      return;
    }
    auto program = std::move(compiled).ValueUnsafe();
    BoundPredicate bound(&program, partition_);
    std::vector<uint32_t> actual;
    Status status = bound.FilterAll(&actual);
    if (interp_failed) {
      EXPECT_FALSE(status.ok())
          << "interpreter failed but the vectorized engine succeeded";
      return;
    }
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(actual, expected);
  }

  static tpch::ColumnarPartition* partition_;
  static std::vector<expr::Tuple>* tuples_;
};

tpch::ColumnarPartition* VectorizedParityTest::partition_ = nullptr;
std::vector<expr::Tuple>* VectorizedParityTest::tuples_ = nullptr;

TEST_F(VectorizedParityTest, SuitePredicatesMatchInterpreter) {
  for (const auto& pred : tpch::PredicateSuite()) {
    ExpectParity(pred.predicate);
  }
}

TEST_F(VectorizedParityTest, NumericComparisonsAllOpsAndKinds) {
  const BinaryOp cmps[] = {BinaryOp::kEq, BinaryOp::kNe, BinaryOp::kLt,
                           BinaryOp::kLe, BinaryOp::kGt, BinaryOp::kGe};
  for (BinaryOp cmp : cmps) {
    ExpectParity(Bin(cmp, Col("QUANTITY"), Lit(Value(int64_t{25}))));
    ExpectParity(Bin(cmp, Col("DISCOUNT"), Lit(Value(0.05))));
    ExpectParity(Bin(cmp, Lit(Value(int64_t{25})), Col("QUANTITY")));
    // int column vs double literal exercises the coercion path.
    ExpectParity(Bin(cmp, Col("QUANTITY"), Lit(Value(25.5))));
    // Column vs column, same and mixed kinds.
    ExpectParity(Bin(cmp, Col("QUANTITY"), Col("LINENUMBER")));
    ExpectParity(Bin(cmp, Col("DISCOUNT"), Col("TAX")));
    ExpectParity(Bin(cmp, Col("QUANTITY"), Col("TAX")));
  }
}

TEST_F(VectorizedParityTest, StringAndDateComparisons) {
  const BinaryOp cmps[] = {BinaryOp::kEq, BinaryOp::kNe, BinaryOp::kLt,
                           BinaryOp::kLe, BinaryOp::kGt, BinaryOp::kGe};
  for (BinaryOp cmp : cmps) {
    ExpectParity(Bin(cmp, Col("RETURNFLAG"), Lit(Value(std::string("R")))));
    ExpectParity(Bin(cmp, Lit(Value(std::string("AIR"))), Col("SHIPMODE")));
    ExpectParity(
        Bin(cmp, Col("SHIPDATE"), Lit(Value(std::string("1995-06-17")))));
    // Column vs column across dictionaries and dates.
    ExpectParity(Bin(cmp, Col("RETURNFLAG"), Col("LINESTATUS")));
    ExpectParity(Bin(cmp, Col("SHIPDATE"), Col("RECEIPTDATE")));
    ExpectParity(Bin(cmp, Col("SHIPMODE"), Col("SHIPDATE")));
  }
  // A literal that is not canonical 'YYYY-MM-DD' cannot use the packed
  // fast path; the generic string kernel must agree with the interpreter.
  ExpectParity(Bin(BinaryOp::kGt, Col("SHIPDATE"),
                   Lit(Value(std::string("1995-6")))));
  ExpectParity(Bin(BinaryOp::kNe, Col("SHIPDATE"), Lit(Value(std::string("")))));
}

TEST_F(VectorizedParityTest, ArithmeticAndNegation) {
  ExpectParity(Bin(BinaryOp::kGt,
                   Bin(BinaryOp::kAdd, Bin(BinaryOp::kMul, Col("QUANTITY"),
                                           Lit(Value(int64_t{2}))),
                       Lit(Value(int64_t{1}))),
                   Lit(Value(int64_t{60}))));
  ExpectParity(Bin(BinaryOp::kLt,
                   Bin(BinaryOp::kSub, Col("EXTENDEDPRICE"),
                       Bin(BinaryOp::kMul, Col("TAX"), Lit(Value(1000.0)))),
                   Lit(Value(20000.0))));
  ExpectParity(Bin(BinaryOp::kGt,
                   Bin(BinaryOp::kDiv, Col("QUANTITY"), Lit(Value(2.0))),
                   Col("LINENUMBER")));
  ExpectParity(Bin(BinaryOp::kLt,
                   std::make_shared<expr::NegateExpr>(Col("QUANTITY")),
                   Lit(Value(int64_t{-25}))));
  ExpectParity(Bin(BinaryOp::kGe,
                   Bin(BinaryOp::kAdd, Col("DISCOUNT"), Col("TAX")),
                   Lit(Value(0.1))));
}

TEST_F(VectorizedParityTest, LogicShortCircuitAndNot) {
  ExprPtr cheap = Bin(BinaryOp::kGt, Col("QUANTITY"), Lit(Value(int64_t{25})));
  ExprPtr mid = Bin(BinaryOp::kLt, Col("DISCOUNT"), Lit(Value(0.05)));
  ExprPtr rare = Bin(BinaryOp::kEq, Col("RETURNFLAG"),
                     Lit(Value(std::string("R"))));
  ExpectParity(Bin(BinaryOp::kAnd, cheap, mid));
  ExpectParity(Bin(BinaryOp::kOr, cheap, mid));
  ExpectParity(Bin(BinaryOp::kAnd, Bin(BinaryOp::kOr, cheap, rare),
                   Bin(BinaryOp::kAnd, mid, Not(rare))));
  ExpectParity(Not(Bin(BinaryOp::kOr, Not(cheap), Not(mid))));
  // Literal sides: the interpreter short-circuits without evaluating the
  // other operand; the compiler prunes the same way.
  ExpectParity(Bin(BinaryOp::kAnd, Lit(Value(false)), cheap));
  ExpectParity(Bin(BinaryOp::kAnd, Lit(Value(true)), cheap));
  ExpectParity(Bin(BinaryOp::kOr, Lit(Value(true)), rare));
  ExpectParity(Bin(BinaryOp::kOr, Lit(Value(false)), rare));
  // Comparing boolean sub-results exercises the kCmpBool kernel.
  ExpectParity(Bin(BinaryOp::kEq, cheap, mid));
  ExpectParity(Bin(BinaryOp::kNe, cheap, rare));
}

TEST_F(VectorizedParityTest, BetweenOnEveryOperandKind) {
  ExpectParity(Between(Col("QUANTITY"), Lit(Value(int64_t{10})),
                       Lit(Value(int64_t{20}))));
  ExpectParity(Between(Col("DISCOUNT"), Lit(Value(0.02)), Lit(Value(0.07))));
  ExpectParity(Between(Col("SHIPDATE"), Lit(Value(std::string("1994-01-01"))),
                       Lit(Value(std::string("1995-12-31")))));
  ExpectParity(Between(Col("SHIPMODE"), Lit(Value(std::string("AIR"))),
                       Lit(Value(std::string("RAIL")))));
  // Empty range: lower bound above upper bound.
  ExpectParity(Between(Col("QUANTITY"), Lit(Value(int64_t{30})),
                       Lit(Value(int64_t{10}))));
  // Computed operand.
  ExpectParity(Between(Bin(BinaryOp::kMul, Col("QUANTITY"),
                           Lit(Value(int64_t{2}))),
                       Lit(Value(int64_t{20})), Lit(Value(int64_t{40}))));
}

TEST_F(VectorizedParityTest, InListsAcrossKinds) {
  ExpectParity(In(Col("QUANTITY"), {Lit(Value(int64_t{1})),
                                    Lit(Value(int64_t{25})),
                                    Lit(Value(int64_t{50}))}));
  ExpectParity(In(Col("DISCOUNT"), {Lit(Value(0.0)), Lit(Value(0.05))}));
  // Mixed numeric candidate kinds against an int column.
  ExpectParity(In(Col("QUANTITY"), {Lit(Value(25.0)), Lit(Value(int64_t{30}))}));
  ExpectParity(In(Col("SHIPMODE"), {Lit(Value(std::string("AIR"))),
                                    Lit(Value(std::string("RAIL"))),
                                    Lit(Value(std::string("TRUCK")))}));
  ExpectParity(In(Col("SHIPDATE"), {Lit(Value(std::string("1994-01-01"))),
                                    Lit(Value(std::string("1995-06-17")))}));
  // Non-canonical date candidates can never equal a stored canonical date;
  // both engines must agree they contribute nothing.
  ExpectParity(In(Col("SHIPDATE"), {Lit(Value(std::string("1995-6-17"))),
                                    Lit(Value(std::string("")))}));
  // Empty list is constant false.
  ExpectParity(In(Col("QUANTITY"), {}));
  // A column-dependent candidate forces the OR-chain fallback.
  ExpectParity(In(Col("QUANTITY"), {Lit(Value(int64_t{5})),
                                    Col("LINENUMBER")}));
}

TEST_F(VectorizedParityTest, LikeEdgePatterns) {
  const char* dict_patterns[] = {"%%", "",   "_",    "%",     "R",
                                 "R%", "%R", "_IR",  "AI_",   "%A%",
                                 "%_", "__", "TRUCK", "%RUCK", "T%K"};
  for (const char* pattern : dict_patterns) {
    ExpectParity(Like(Col("SHIPMODE"), pattern));
    ExpectParity(Like(Col("SHIPMODE"), pattern, /*negated=*/true));
    ExpectParity(Like(Col("RETURNFLAG"), pattern));
  }
  const char* date_patterns[] = {"%%", "", "_", "199%", "%-06-%",
                                 "____-__-__", "1994-__-1_", "%7"};
  for (const char* pattern : date_patterns) {
    ExpectParity(Like(Col("SHIPDATE"), pattern));
    ExpectParity(Like(Col("SHIPDATE"), pattern, /*negated=*/true));
  }
}

TEST_F(VectorizedParityTest, DivisionByZeroFailsOnBothEngines) {
  // Column-dependent zero denominator: every evaluated lane divides by
  // zero, which the interpreter reports per row and the vectorized engine
  // reports from the batch kernel.
  ExpectParity(Bin(BinaryOp::kGt,
                   Bin(BinaryOp::kDiv, Col("QUANTITY"),
                       Bin(BinaryOp::kSub, Col("QUANTITY"), Col("QUANTITY"))),
                   Lit(Value(1.0))));
}

TEST_F(VectorizedParityTest, FilterRangeMatchesFilterAllSlice) {
  const auto& pred = tpch::PredicateSuite()[0];
  auto program =
      std::move(PredicateProgram::Compile(*pred.predicate)).ValueUnsafe();
  BoundPredicate bound(&program, partition_);
  std::vector<uint32_t> all;
  ASSERT_TRUE(bound.FilterAll(&all).ok());
  // A range crossing batch boundaries selects exactly the slice of `all`.
  const uint32_t begin = 100, end = 400;
  std::vector<uint32_t> ranged;
  ASSERT_TRUE(bound.FilterRange(begin, end, &ranged).ok());
  std::vector<uint32_t> expected;
  for (uint32_t row : all) {
    if (row >= begin && row < end) expected.push_back(row);
  }
  EXPECT_EQ(ranged, expected);
}

TEST(VectorizedCompileTest, RejectsIllTypedAndUnknownColumns) {
  // Unknown column.
  EXPECT_FALSE(PredicateProgram::Compile(
                   *Bin(BinaryOp::kGt, Col("NO_SUCH_COLUMN"),
                        Lit(Value(int64_t{1}))))
                   .ok());
  // Number vs string comparison is a static type error.
  EXPECT_FALSE(PredicateProgram::Compile(
                   *Bin(BinaryOp::kGt, Col("QUANTITY"),
                        Lit(Value(std::string("abc")))))
                   .ok());
  // Arithmetic on a string column cannot be coerced.
  EXPECT_FALSE(PredicateProgram::Compile(
                   *Bin(BinaryOp::kGt,
                        Bin(BinaryOp::kAdd, Col("SHIPMODE"),
                            Lit(Value(int64_t{1}))),
                        Lit(Value(int64_t{1}))))
                   .ok());
  // A numeric root is not a predicate.
  EXPECT_FALSE(PredicateProgram::Compile(
                   *Bin(BinaryOp::kAdd, Col("QUANTITY"),
                        Lit(Value(int64_t{1}))))
                   .ok());
}

TEST(VectorizedCompileTest, SuiteProgramsCompileAndDisassemble) {
  for (const auto& pred : tpch::PredicateSuite()) {
    auto program = PredicateProgram::Compile(*pred.predicate);
    ASSERT_TRUE(program.ok()) << pred.sql;
    EXPECT_GT(program->num_instructions(), 0u);
    EXPECT_FALSE(program->ToString().empty());
  }
}

/// Generates random well-typed predicates over LINEITEM. Divisions only
/// ever see non-zero literal denominators and multiplications are kept
/// bounded, so no generated expression can fail at evaluation time — any
/// divergence between the engines is a real bug.
class ExprFuzzer {
 public:
  explicit ExprFuzzer(uint64_t seed) : rng_(seed) {}

  ExprPtr RandomPredicate() { return RandomBool(0); }

 private:
  ExprPtr RandomBool(int depth) {
    if (depth < 3 && rng_.NextBernoulli(0.35)) {
      ExprPtr l = RandomBool(depth + 1);
      ExprPtr r = RandomBool(depth + 1);
      switch (rng_.NextBounded(3)) {
        case 0: return Bin(BinaryOp::kAnd, std::move(l), std::move(r));
        case 1: return Bin(BinaryOp::kOr, std::move(l), std::move(r));
        default: return Not(std::move(l));
      }
    }
    switch (rng_.NextBounded(6)) {
      case 0: return NumericCompare(depth);
      case 1: return StringCompare();
      case 2: return RandomBetween();
      case 3: return RandomIn();
      case 4: return RandomLike();
      default:
        // Boolean equality over two leaf comparisons (kCmpBool kernel).
        return Bin(rng_.NextBernoulli(0.5) ? BinaryOp::kEq : BinaryOp::kNe,
                   NumericCompare(3), StringCompare());
    }
  }

  ExprPtr NumericCompare(int depth) {
    return Bin(RandomCmp(), RandomNumeric(depth), RandomNumeric(depth));
  }

  ExprPtr StringCompare() {
    int col = StringColumn();
    if (rng_.NextBernoulli(0.3)) {
      return Bin(RandomCmp(), Col(ColumnName(col)),
                 Col(ColumnName(StringColumn())));
    }
    ExprPtr lit = Lit(Value(StringLiteralFor(col)));
    if (rng_.NextBernoulli(0.5)) {
      return Bin(RandomCmp(), Col(ColumnName(col)), std::move(lit));
    }
    return Bin(RandomCmp(), std::move(lit), Col(ColumnName(col)));
  }

  ExprPtr RandomBetween() {
    if (rng_.NextBernoulli(0.6)) {
      return Between(RandomNumeric(2), NumericLiteral(), NumericLiteral());
    }
    int col = StringColumn();
    return Between(Col(ColumnName(col)), Lit(Value(StringLiteralFor(col))),
                   Lit(Value(StringLiteralFor(col))));
  }

  ExprPtr RandomIn() {
    uint64_t n = rng_.NextBounded(5);  // empty lists included
    std::vector<ExprPtr> candidates;
    if (rng_.NextBernoulli(0.6)) {
      ExprPtr operand = Col(ColumnName(NumericColumn()));
      for (uint64_t i = 0; i < n; ++i) candidates.push_back(NumericLiteral());
      if (n > 0 && rng_.NextBernoulli(0.2)) {
        // Column-dependent candidate: forces the OR-chain fallback.
        candidates.push_back(Col(ColumnName(NumericColumn())));
      }
      return In(std::move(operand), std::move(candidates));
    }
    int col = StringColumn();
    for (uint64_t i = 0; i < n; ++i) {
      candidates.push_back(Lit(Value(StringLiteralFor(col))));
    }
    return In(Col(ColumnName(col)), std::move(candidates));
  }

  ExprPtr RandomLike() {
    static const char* kPatterns[] = {
        "%%", "",   "_",    "%",    "R",     "R%",         "%R",
        "_IR", "AI_", "%A%", "%_",  "__",    "T%K",        "199%",
        "%-06-%", "____-__-__", "1994-__-1_", "%7", "%IR%", "N"};
    int col = StringColumn();
    return Like(Col(ColumnName(col)),
                kPatterns[rng_.NextBounded(std::size(kPatterns))],
                rng_.NextBernoulli(0.3));
  }

  ExprPtr RandomNumeric(int depth) {
    if (depth >= 2 || rng_.NextBernoulli(0.55)) return NumericAtom();
    switch (rng_.NextBounded(5)) {
      case 0:
        return Bin(BinaryOp::kAdd, RandomNumeric(depth + 1),
                   RandomNumeric(depth + 1));
      case 1:
        return Bin(BinaryOp::kSub, RandomNumeric(depth + 1),
                   RandomNumeric(depth + 1));
      case 2:
        // Bounded product: atom times a small literal.
        return Bin(BinaryOp::kMul, NumericAtom(),
                   Lit(Value(static_cast<int64_t>(rng_.NextInRange(1, 8)))));
      case 3:
        // Non-zero literal denominator only — division cannot fail.
        return Bin(BinaryOp::kDiv, RandomNumeric(depth + 1),
                   Lit(Value(0.5 + rng_.NextDouble() * 4.0)));
      default:
        return std::make_shared<expr::NegateExpr>(NumericAtom());
    }
  }

  ExprPtr NumericAtom() {
    if (rng_.NextBernoulli(0.6)) return Col(ColumnName(NumericColumn()));
    return NumericLiteral();
  }

  ExprPtr NumericLiteral() {
    if (rng_.NextBernoulli(0.5)) {
      return Lit(Value(static_cast<int64_t>(rng_.NextInRange(-5, 60))));
    }
    return Lit(Value(rng_.NextDouble() * 1.2));
  }

  int NumericColumn() {
    static const int kCols[] = {tpch::kOrderKey,  tpch::kPartKey,
                                tpch::kSuppKey,   tpch::kLineNumber,
                                tpch::kQuantity,  tpch::kExtendedPrice,
                                tpch::kDiscount,  tpch::kTax};
    return kCols[rng_.NextBounded(std::size(kCols))];
  }

  int StringColumn() {
    static const int kCols[] = {tpch::kReturnFlag, tpch::kLineStatus,
                                tpch::kShipDate,   tpch::kCommitDate,
                                tpch::kReceiptDate, tpch::kShipInstruct,
                                tpch::kShipMode,   tpch::kComment};
    return kCols[rng_.NextBounded(std::size(kCols))];
  }

  std::string ColumnName(int col) {
    return tpch::LineItemSchema().column(col).name;
  }

  std::string StringLiteralFor(int col) {
    switch (col) {
      case tpch::kReturnFlag: {
        static const char* kVals[] = {"R", "A", "N", "Z", ""};
        return kVals[rng_.NextBounded(std::size(kVals))];
      }
      case tpch::kLineStatus: {
        static const char* kVals[] = {"O", "F", "X"};
        return kVals[rng_.NextBounded(std::size(kVals))];
      }
      case tpch::kShipDate:
      case tpch::kCommitDate:
      case tpch::kReceiptDate: {
        // Canonical dates, non-canonical shapes and non-dates.
        static const char* kVals[] = {"1994-01-01", "1995-06-17",
                                      "1992-03-08", "1998-12-01",
                                      "1995-6-17",  "",
                                      "zzz",        "1994"};
        return kVals[rng_.NextBounded(std::size(kVals))];
      }
      case tpch::kShipMode: {
        static const char* kVals[] = {"AIR",   "RAIL", "SHIP", "TRUCK",
                                      "MAIL",  "FOB",  "REG AIR", "BARGE"};
        return kVals[rng_.NextBounded(std::size(kVals))];
      }
      case tpch::kShipInstruct: {
        static const char* kVals[] = {"DELIVER IN PERSON", "COLLECT COD",
                                      "NONE", "TAKE BACK RETURN", "??"};
        return kVals[rng_.NextBounded(std::size(kVals))];
      }
      default: {
        static const char* kVals[] = {"final", "requests", "the", ""};
        return kVals[rng_.NextBounded(std::size(kVals))];
      }
    }
  }

  BinaryOp RandomCmp() {
    static const BinaryOp kCmps[] = {BinaryOp::kEq, BinaryOp::kNe,
                                     BinaryOp::kLt, BinaryOp::kLe,
                                     BinaryOp::kGt, BinaryOp::kGe};
    return kCmps[rng_.NextBounded(std::size(kCmps))];
  }

  Rng rng_;
};

TEST_F(VectorizedParityTest, FuzzedExpressionsMatchInterpreter) {
  ExprFuzzer fuzzer(0xF022A11EDULL);
  for (int i = 0; i < 200; ++i) {
    ExprPtr e = fuzzer.RandomPredicate();
    SCOPED_TRACE("fuzz #" + std::to_string(i));
    ExpectParity(e);
  }
}

/// End-to-end parity: LocalRuntime must produce identical samples on both
/// engines, for both trim modes, on skewed data.
class VectorizedRuntimeTest : public ::testing::Test {
 protected:
  VectorizedRuntimeTest()
      : compiler_(&tpch::LineItemSchema(), &dynamic::PolicyTable::BuiltIn()) {}

  hive::CompiledQuery Compile(const std::string& sql) {
    auto result = compiler_.Process(sql);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return *result->query;
  }

  void ExpectEnginesAgree(const std::string& sql,
                          sampling::SampleMode mode) {
    tpch::SkewSpec spec;
    spec.num_partitions = 10;
    spec.records_per_partition = 4000;
    spec.selectivity = 0.01;
    spec.zipf_z = 1.0;
    spec.seed = 29;
    auto data = *tpch::MaterializeDataset(spec);
    auto query = Compile(sql);
    auto policy = *dynamic::PolicyTable::BuiltIn().Find("LA");

    LocalRuntime interpreted({.num_threads = 4,
                              .sample_mode = mode,
                              .seed = 99,
                              .engine = Engine::kInterpreted});
    LocalRuntime vectorized({.num_threads = 4,
                             .sample_mode = mode,
                             .seed = 99,
                             .engine = Engine::kVectorized});
    auto ri = interpreted.Execute(query, data, policy);
    auto rv = vectorized.Execute(query, data, policy);
    ASSERT_TRUE(ri.ok()) << ri.status().ToString();
    ASSERT_TRUE(rv.ok()) << rv.status().ToString();
    EXPECT_EQ(ri->records_scanned, rv->records_scanned);
    EXPECT_EQ(ri->candidate_records, rv->candidate_records);
    EXPECT_EQ(ri->partitions_processed, rv->partitions_processed);
    ASSERT_EQ(ri->rows.size(), rv->rows.size());
    for (size_t i = 0; i < ri->rows.size(); ++i) {
      EXPECT_EQ(ri->rows[i], rv->rows[i]) << "row " << i;
    }
  }

  hive::HiveCompiler compiler_;
};

TEST_F(VectorizedRuntimeTest, IdenticalSamplesFirstK) {
  ExpectEnginesAgree(
      "SELECT * FROM lineitem WHERE DISCOUNT > 0.10 LIMIT 100",
      sampling::SampleMode::kFirstK);
}

TEST_F(VectorizedRuntimeTest, IdenticalSamplesReservoir) {
  ExpectEnginesAgree(
      "SELECT * FROM lineitem WHERE DISCOUNT > 0.10 LIMIT 100",
      sampling::SampleMode::kReservoir);
}

TEST_F(VectorizedRuntimeTest, IdenticalProjectionAndFullScan) {
  ExpectEnginesAgree(
      "SELECT ORDERKEY, SHIPMODE FROM lineitem WHERE DISCOUNT > 0.10 LIMIT 50",
      sampling::SampleMode::kFirstK);
  ExpectEnginesAgree("SELECT ORDERKEY FROM lineitem WHERE DISCOUNT > 0.10",
                     sampling::SampleMode::kFirstK);
  ExpectEnginesAgree("SELECT ORDERKEY FROM lineitem LIMIT 9",
                     sampling::SampleMode::kFirstK);
}

TEST(VectorizedReducerTest, RefReducerSelectsSameCandidates) {
  // Feeding candidate i as both a tuple and a RowRef with the same seed
  // must select the same positions: the reservoir consumes the RNG stream
  // identically regardless of the value type.
  for (auto mode :
       {sampling::SampleMode::kFirstK, sampling::SampleMode::kReservoir}) {
    sampling::SamplingReducer tuples(25, mode, 42);
    sampling::RefSamplingReducer refs(25, mode, 42);
    for (uint32_t i = 0; i < 1000; ++i) {
      tuples.Add(expr::Tuple{expr::Value(static_cast<int64_t>(i))});
      refs.Add(sampling::RowRef{i / 100, i % 100});
    }
    EXPECT_EQ(tuples.candidates_seen(), refs.candidates_seen());
    auto tuple_sample = tuples.Finish();
    auto ref_sample = refs.Finish();
    ASSERT_EQ(tuple_sample.size(), ref_sample.size());
    for (size_t i = 0; i < tuple_sample.size(); ++i) {
      uint32_t tuple_id = static_cast<uint32_t>(
          std::get<int64_t>(tuple_sample[i][0]));
      EXPECT_EQ(tuple_id, ref_sample[i].partition * 100 + ref_sample[i].row);
    }
  }
}

TEST(VectorizedMapperTest, MapMatchesMirrorsPerRowMap) {
  const auto& pred = tpch::PredicateSuite()[0];
  tpch::LineItemGenerator gen(9);
  auto part = *gen.GenerateColumnarPartition(400, 40, pred);
  const auto& schema = tpch::LineItemSchema();
  const uint64_t k = 25;

  sampling::SamplingMapper per_row(pred.predicate, &schema, k);
  std::vector<expr::Tuple> emitted;
  std::vector<uint32_t> match_rows;
  for (uint32_t i = 0; i < part.num_rows(); ++i) {
    auto matched = per_row.Map(part.TupleAt(i), &emitted);
    ASSERT_TRUE(matched.ok());
    if (*matched) match_rows.push_back(i);
  }

  sampling::SamplingMapper batch(nullptr, &schema, k);
  std::vector<sampling::RowRef> refs;
  batch.MapMatches(part.num_rows(), match_rows, /*partition=*/3, &refs);

  EXPECT_EQ(batch.records_seen(), per_row.records_seen());
  EXPECT_EQ(batch.records_matched(), per_row.records_matched());
  EXPECT_EQ(batch.emitted(), per_row.emitted());
  ASSERT_EQ(refs.size(), emitted.size());
  for (size_t i = 0; i < refs.size(); ++i) {
    EXPECT_EQ(refs[i].partition, 3u);
    EXPECT_EQ(refs[i].row, match_rows[i]);
    EXPECT_EQ(part.TupleAt(refs[i].row), emitted[i]);
  }
}

TEST(VectorizedCacheTest, SharedDatasetIsMemoized) {
  tpch::SkewSpec spec;
  spec.num_partitions = 3;
  spec.records_per_partition = 600;
  spec.selectivity = 0.01;
  spec.zipf_z = 1.0;
  spec.seed = 7771;
  auto first = tpch::MaterializeDatasetShared(spec);
  auto second = tpch::MaterializeDatasetShared(spec);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get());

  // Any key ingredient change misses the cache.
  tpch::SkewSpec other = spec;
  other.seed = 7772;
  auto third = tpch::MaterializeDatasetShared(other);
  ASSERT_TRUE(third.ok());
  EXPECT_NE(first->get(), third->get());

  // The memoized dataset matches a fresh materialization exactly.
  auto fresh = tpch::MaterializeDataset(spec);
  ASSERT_TRUE(fresh.ok());
  ASSERT_EQ((*first)->partitions.size(), fresh->partitions.size());
  for (size_t p = 0; p < fresh->partitions.size(); ++p) {
    const tpch::ColumnarPartition& memo = (*first)->partitions[p];
    ASSERT_EQ(memo.num_rows(), fresh->partitions[p].num_rows());
    for (uint32_t i = 0; i < memo.num_rows(); ++i) {
      EXPECT_EQ(tpch::SerializeRow(memo.RowAt(i)),
                tpch::SerializeRow(fresh->partitions[p].RowAt(i)));
    }
  }
}

TEST(VectorizedCacheTest, ConcurrentCallersShareOneGeneration) {
  tpch::SkewSpec spec;
  spec.num_partitions = 4;
  spec.records_per_partition = 2000;
  spec.selectivity = 0.01;
  spec.zipf_z = 2.0;
  spec.seed = 424242;  // unique to this test: first caller generates

  ThreadPool pool(8);
  auto datasets = ParallelMap<std::shared_ptr<const tpch::MaterializedDataset>>(
      &pool, 32,
      [&](size_t) -> Result<std::shared_ptr<const tpch::MaterializedDataset>> {
        return tpch::MaterializeDatasetShared(spec);
      });
  ASSERT_TRUE(datasets.ok()) << datasets.status().ToString();
  ASSERT_EQ(datasets->size(), 32u);
  for (const auto& dataset : *datasets) {
    EXPECT_EQ(dataset.get(), (*datasets)[0].get());
  }
  EXPECT_EQ((*datasets)[0]->total_records(), 8000u);
}

}  // namespace
}  // namespace dmr::exec
