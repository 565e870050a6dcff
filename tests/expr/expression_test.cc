#include "expr/expression.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "expr/value.h"

namespace dmr::expr {
namespace {

Schema TestSchema() {
  return Schema({{"ID", ValueType::kInt64},
                 {"PRICE", ValueType::kDouble},
                 {"NAME", ValueType::kString},
                 {"ACTIVE", ValueType::kBool}});
}

Tuple TestRow() { return Tuple{int64_t{7}, 19.5, std::string("widget"), true}; }

Result<bool> Eval(const ExprPtr& e) {
  Schema schema = TestSchema();
  Tuple row = TestRow();
  return EvaluatePredicate(*e, schema, row);
}

TEST(ValueTest, TypeOfMatchesAlternatives) {
  EXPECT_EQ(TypeOf(Value(int64_t{1})), ValueType::kInt64);
  EXPECT_EQ(TypeOf(Value(1.5)), ValueType::kDouble);
  EXPECT_EQ(TypeOf(Value(std::string("x"))), ValueType::kString);
  EXPECT_EQ(TypeOf(Value(true)), ValueType::kBool);
}

TEST(ValueTest, CompareNumericCoercion) {
  EXPECT_EQ(*CompareValues(Value(int64_t{2}), Value(2.0)), 0);
  EXPECT_EQ(*CompareValues(Value(int64_t{2}), Value(2.5)), -1);
  EXPECT_EQ(*CompareValues(Value(3.5), Value(int64_t{3})), 1);
}

TEST(ValueTest, CompareStrings) {
  EXPECT_EQ(*CompareValues(Value(std::string("abc")),
                           Value(std::string("abd"))), -1);
  EXPECT_EQ(*CompareValues(Value(std::string("1998-01-01")),
                           Value(std::string("1997-12-31"))), 1);
}

TEST(ValueTest, CompareMismatchedTypesErrors) {
  EXPECT_FALSE(CompareValues(Value(std::string("x")), Value(1.0)).ok());
  EXPECT_FALSE(CompareValues(Value(true), Value(int64_t{1})).ok());
}

TEST(ValueTest, SchemaLookupIsCaseInsensitive) {
  Schema schema = TestSchema();
  EXPECT_EQ(schema.FindColumn("price"), 1);
  EXPECT_EQ(schema.FindColumn("PRICE"), 1);
  EXPECT_EQ(schema.FindColumn("nonexistent"), -1);
}

TEST(ExpressionTest, ColumnRefReadsRow) {
  Schema schema = TestSchema();
  Tuple row = TestRow();
  auto v = Col("NAME")->Evaluate(schema, row);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(std::get<std::string>(*v), "widget");
}

TEST(ExpressionTest, UnknownColumnErrors) {
  Schema schema = TestSchema();
  Tuple row = TestRow();
  EXPECT_TRUE(Col("NOPE")->Evaluate(schema, row).status().IsNotFound());
}

TEST(ExpressionTest, Comparisons) {
  EXPECT_TRUE(*Eval(Bin(BinaryOp::kGt, Col("PRICE"), Lit(10.0))));
  EXPECT_FALSE(*Eval(Bin(BinaryOp::kLt, Col("PRICE"), Lit(10.0))));
  EXPECT_TRUE(*Eval(Bin(BinaryOp::kEq, Col("ID"), Lit(int64_t{7}))));
  EXPECT_TRUE(*Eval(Bin(BinaryOp::kNe, Col("ID"), Lit(int64_t{8}))));
  EXPECT_TRUE(*Eval(Bin(BinaryOp::kGe, Col("ID"), Lit(int64_t{7}))));
  EXPECT_TRUE(*Eval(Bin(BinaryOp::kLe, Col("ID"), Lit(7.5))));
}

TEST(ExpressionTest, LogicalOperators) {
  auto t = Lit(true);
  auto f = Lit(false);
  EXPECT_TRUE(*Eval(Bin(BinaryOp::kAnd, t, t)));
  EXPECT_FALSE(*Eval(Bin(BinaryOp::kAnd, t, f)));
  EXPECT_TRUE(*Eval(Bin(BinaryOp::kOr, f, t)));
  EXPECT_FALSE(*Eval(Bin(BinaryOp::kOr, f, f)));
  EXPECT_TRUE(*Eval(std::make_shared<NotExpr>(f)));
}

TEST(ExpressionTest, ShortCircuitSkipsErrors) {
  // FALSE AND <error> must not evaluate the right side.
  auto bad = Bin(BinaryOp::kGt, Col("MISSING"), Lit(1.0));
  EXPECT_FALSE(*Eval(Bin(BinaryOp::kAnd, Lit(false), bad)));
  EXPECT_TRUE(*Eval(Bin(BinaryOp::kOr, Lit(true), bad)));
}

TEST(ExpressionTest, ArithmeticIntAndDouble) {
  Schema schema = TestSchema();
  Tuple row = TestRow();
  auto sum = Bin(BinaryOp::kAdd, Col("ID"), Lit(int64_t{3}));
  EXPECT_EQ(std::get<int64_t>(*sum->Evaluate(schema, row)), 10);
  auto mul = Bin(BinaryOp::kMul, Col("PRICE"), Lit(2.0));
  EXPECT_DOUBLE_EQ(std::get<double>(*mul->Evaluate(schema, row)), 39.0);
  auto div = Bin(BinaryOp::kDiv, Lit(int64_t{7}), Lit(int64_t{2}));
  EXPECT_DOUBLE_EQ(std::get<double>(*div->Evaluate(schema, row)), 3.5);
}

TEST(ExpressionTest, DivisionByZeroErrors) {
  Schema schema = TestSchema();
  Tuple row = TestRow();
  auto div = Bin(BinaryOp::kDiv, Lit(1.0), Lit(0.0));
  EXPECT_FALSE(div->Evaluate(schema, row).ok());
}

TEST(ExpressionTest, NegateExpr) {
  Schema schema = TestSchema();
  Tuple row = TestRow();
  auto neg = std::make_shared<NegateExpr>(Col("ID"));
  EXPECT_EQ(std::get<int64_t>(*neg->Evaluate(schema, row)), -7);
  auto negd = std::make_shared<NegateExpr>(Col("PRICE"));
  EXPECT_DOUBLE_EQ(std::get<double>(*negd->Evaluate(schema, row)), -19.5);
}

TEST(ExpressionTest, BetweenIsInclusive) {
  auto mk = [](double lo, double hi) {
    return std::make_shared<BetweenExpr>(Col("PRICE"), Lit(lo), Lit(hi));
  };
  EXPECT_TRUE(*Eval(mk(19.5, 19.5)));
  EXPECT_TRUE(*Eval(mk(10.0, 20.0)));
  EXPECT_FALSE(*Eval(mk(20.0, 30.0)));
  EXPECT_FALSE(*Eval(mk(0.0, 19.4)));
}

TEST(ExpressionTest, InList) {
  auto in = std::make_shared<InExpr>(
      Col("ID"), std::vector<ExprPtr>{Lit(int64_t{1}), Lit(int64_t{7})});
  EXPECT_TRUE(*Eval(in));
  auto not_in = std::make_shared<InExpr>(
      Col("ID"), std::vector<ExprPtr>{Lit(int64_t{1}), Lit(int64_t{2})});
  EXPECT_FALSE(*Eval(not_in));
  auto empty = std::make_shared<InExpr>(Col("ID"), std::vector<ExprPtr>{});
  EXPECT_FALSE(*Eval(empty));
}

TEST(ExpressionTest, LikePatterns) {
  auto like = [](const char* pattern, bool negated = false) {
    return std::make_shared<LikeExpr>(Col("NAME"), pattern, negated);
  };
  EXPECT_TRUE(*Eval(like("widget")));
  EXPECT_TRUE(*Eval(like("wid%")));
  EXPECT_TRUE(*Eval(like("%get")));
  EXPECT_TRUE(*Eval(like("%dge%")));
  EXPECT_TRUE(*Eval(like("w_dget")));
  EXPECT_FALSE(*Eval(like("gadget")));
  EXPECT_TRUE(*Eval(like("gadget", /*negated=*/true)));
}

TEST(ExpressionTest, LikeRequiresString) {
  auto like = std::make_shared<LikeExpr>(Col("ID"), "7");
  EXPECT_FALSE(Eval(like).ok());
}

TEST(LikeMatchTest, EdgeCases) {
  EXPECT_TRUE(LikeMatch("", ""));
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_FALSE(LikeMatch("", "_"));
  EXPECT_TRUE(LikeMatch("abc", "%%%"));
  EXPECT_TRUE(LikeMatch("aXbXc", "a%b%c"));
  EXPECT_FALSE(LikeMatch("ab", "a_b"));
  EXPECT_TRUE(LikeMatch("aab", "%ab"));
}

TEST(ExpressionTest, PredicateMustBeBoolean) {
  auto numeric = Bin(BinaryOp::kAdd, Lit(int64_t{1}), Lit(int64_t{2}));
  EXPECT_FALSE(Eval(numeric).ok());
}

TEST(ExpressionTest, ToStringRendersSql) {
  auto e = Bin(BinaryOp::kAnd, Bin(BinaryOp::kGt, Col("PRICE"), Lit(10.0)),
               std::make_shared<LikeExpr>(Col("NAME"), "w%"));
  // A double literal keeps its decimal point, so it re-parses as a double.
  EXPECT_EQ(e->ToString(), "((PRICE > 10.0) AND (NAME LIKE 'w%'))");
}

TEST(ExpressionTest, DoublesRenderAsShortestPlainDecimals) {
  EXPECT_EQ(ValueToString(Value(0.1)), "0.1");
  EXPECT_EQ(ValueToString(Value(0.0)), "0.0");
  EXPECT_EQ(ValueToString(Value(-2.5)), "-2.5");
  EXPECT_EQ(ValueToString(Value(1e-8)), "0.00000001");
  EXPECT_EQ(ValueToString(Value(1e23)), "1" + std::string(23, '0') + ".0");
  EXPECT_EQ(ValueToString(Value(2.0 / 3.0)), "0.6666666666666666");
  // Every finite double reads back exactly, however large or small.
  for (double d : {0.1234567, 1234567.5, 1e23, 5e-324, 2.2250738585072014e-308,
                   1.7976931348623157e308, -123456789012345680.0}) {
    const std::string text = ValueToString(Value(d));
    EXPECT_EQ(text.find_first_of("eE"), std::string::npos) << text;
    EXPECT_NE(text.find('.'), std::string::npos) << text;
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), d) << text;
  }
}

TEST(ExpressionTest, RowNarrowerThanSchemaErrors) {
  Schema schema = TestSchema();
  Tuple short_row{int64_t{1}};
  EXPECT_TRUE(
      Col("NAME")->Evaluate(schema, short_row).status().IsInternal());
}

}  // namespace
}  // namespace dmr::expr
