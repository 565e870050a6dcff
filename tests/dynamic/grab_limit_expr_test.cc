#include "dynamic/grab_limit_expr.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

namespace dmr::dynamic {
namespace {

double Eval(const std::string& text, double as, double ts) {
  auto expr = GrabLimitExpr::Parse(text);
  EXPECT_TRUE(expr.ok()) << text << ": " << expr.status().ToString();
  return expr->Evaluate({as, ts});
}

TEST(GrabLimitExprTest, Literals) {
  EXPECT_DOUBLE_EQ(Eval("42", 0, 0), 42.0);
  EXPECT_DOUBLE_EQ(Eval("2.5", 0, 0), 2.5);
  EXPECT_DOUBLE_EQ(Eval("-3", 0, 0), -3.0);
}

TEST(GrabLimitExprTest, Variables) {
  EXPECT_DOUBLE_EQ(Eval("AS", 17, 40), 17.0);
  EXPECT_DOUBLE_EQ(Eval("TS", 17, 40), 40.0);
  EXPECT_DOUBLE_EQ(Eval("as", 5, 9), 5.0);  // case-insensitive
  EXPECT_DOUBLE_EQ(Eval("ts", 5, 9), 9.0);
}

TEST(GrabLimitExprTest, Infinity) {
  EXPECT_TRUE(std::isinf(Eval("INF", 0, 0)));
  EXPECT_TRUE(std::isinf(Eval("infinity", 0, 0)));
}

TEST(GrabLimitExprTest, Arithmetic) {
  EXPECT_DOUBLE_EQ(Eval("1 + 2 * 3", 0, 0), 7.0);
  EXPECT_DOUBLE_EQ(Eval("(1 + 2) * 3", 0, 0), 9.0);
  EXPECT_DOUBLE_EQ(Eval("10 - 4 - 3", 0, 0), 3.0);  // left associative
  EXPECT_DOUBLE_EQ(Eval("8 / 2 / 2", 0, 0), 2.0);
  EXPECT_DOUBLE_EQ(Eval("0.5 * TS", 0, 40), 20.0);
  EXPECT_DOUBLE_EQ(Eval("-AS + 1", 4, 0), -3.0);
}

TEST(GrabLimitExprTest, MaxMin) {
  EXPECT_DOUBLE_EQ(Eval("max(3, 7)", 0, 0), 7.0);
  EXPECT_DOUBLE_EQ(Eval("min(3, 7)", 0, 0), 3.0);
  EXPECT_DOUBLE_EQ(Eval("max(0.5 * TS, AS)", 30, 40), 30.0);
  EXPECT_DOUBLE_EQ(Eval("max(0.5 * TS, AS)", 10, 40), 20.0);
  EXPECT_DOUBLE_EQ(Eval("min(max(AS, 1), TS)", 0, 8), 1.0);
}

TEST(GrabLimitExprTest, Comparisons) {
  EXPECT_DOUBLE_EQ(Eval("3 > 2", 0, 0), 1.0);
  EXPECT_DOUBLE_EQ(Eval("2 > 3", 0, 0), 0.0);
  EXPECT_DOUBLE_EQ(Eval("2 >= 2", 0, 0), 1.0);
  EXPECT_DOUBLE_EQ(Eval("2 <= 1", 0, 0), 0.0);
  EXPECT_DOUBLE_EQ(Eval("2 == 2", 0, 0), 1.0);
  EXPECT_DOUBLE_EQ(Eval("2 != 2", 0, 0), 0.0);
}

TEST(GrabLimitExprTest, Ternary) {
  EXPECT_DOUBLE_EQ(Eval("AS > 0 ? 0.5 * AS : 0.2 * TS", 10, 40), 5.0);
  EXPECT_DOUBLE_EQ(Eval("AS > 0 ? 0.5 * AS : 0.2 * TS", 0, 40), 8.0);
  EXPECT_DOUBLE_EQ(Eval("1 ? 2 : 3", 0, 0), 2.0);
  EXPECT_DOUBLE_EQ(Eval("0 ? 2 : 3", 0, 0), 3.0);
  // Nested / right-associative.
  EXPECT_DOUBLE_EQ(Eval("AS > 10 ? 1 : AS > 5 ? 2 : 3", 7, 0), 2.0);
  EXPECT_DOUBLE_EQ(Eval("AS > 10 ? 1 : AS > 5 ? 2 : 3", 2, 0), 3.0);
}

TEST(GrabLimitExprTest, AndOrKeywords) {
  EXPECT_DOUBLE_EQ(Eval("AS > 0 and TS > 0 ? 1 : 0", 1, 1), 1.0);
  EXPECT_DOUBLE_EQ(Eval("AS > 0 and TS > 0 ? 1 : 0", 1, 0), 0.0);
  EXPECT_DOUBLE_EQ(Eval("AS > 0 or TS > 0 ? 1 : 0", 0, 1), 1.0);
}

TEST(GrabLimitExprTest, PaperTableOne) {
  // All five Table I expressions parse and behave per the paper.
  EXPECT_TRUE(std::isinf(Eval("INF", 0, 40)));
  EXPECT_DOUBLE_EQ(Eval("max(0.5 * TS, AS)", 40, 40), 40.0);
  EXPECT_DOUBLE_EQ(Eval("AS > 0 ? 0.5 * AS : 0.2 * TS", 0, 160), 32.0);
  EXPECT_DOUBLE_EQ(Eval("AS > 0 ? 0.2 * AS : 0.1 * TS", 0, 160), 16.0);
  EXPECT_DOUBLE_EQ(Eval("0.1 * AS", 0, 160), 0.0);
}

TEST(GrabLimitExprTest, DivisionByZeroIsInfinity) {
  EXPECT_TRUE(std::isinf(Eval("1 / 0", 0, 0)));
}

TEST(GrabLimitExprTest, TextIsPreserved) {
  auto expr = GrabLimitExpr::Parse("0.1 * AS");
  ASSERT_TRUE(expr.ok());
  EXPECT_EQ(expr->text(), "0.1 * AS");
}

TEST(GrabLimitExprTest, SyntaxErrors) {
  EXPECT_TRUE(GrabLimitExpr::Parse("").status().IsParseError());
  EXPECT_TRUE(GrabLimitExpr::Parse("AS +").status().IsParseError());
  EXPECT_TRUE(GrabLimitExpr::Parse("max(1)").status().IsParseError());
  EXPECT_TRUE(GrabLimitExpr::Parse("max(1, 2").status().IsParseError());
  EXPECT_TRUE(GrabLimitExpr::Parse("(1 + 2").status().IsParseError());
  EXPECT_TRUE(GrabLimitExpr::Parse("FOO * 2").status().IsParseError());
  EXPECT_TRUE(GrabLimitExpr::Parse("1 ? 2").status().IsParseError());
  EXPECT_TRUE(GrabLimitExpr::Parse("1 2").status().IsParseError());
  EXPECT_TRUE(GrabLimitExpr::Parse("1..5").status().IsParseError());
  EXPECT_TRUE(GrabLimitExpr::Parse("@").status().IsParseError());
}

std::string Repeat(const std::string& piece, int n) {
  std::string out;
  out.reserve(piece.size() * static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) out += piece;
  return out;
}

TEST(GrabLimitExprTest, DeepInputIsAParseErrorNotACrash) {
  // Policy files are outside input: nesting and tree height are capped, so
  // none of these may overflow the stack (in parsing, evaluation or the
  // tree's destructor), while ordinary nesting still parses.
  EXPECT_DOUBLE_EQ(Eval(Repeat("(", 100) + "AS" + Repeat(")", 100), 7, 9),
                   7.0);
  EXPECT_DOUBLE_EQ(Eval(Repeat("-", 100) + "3", 0, 0), 3.0);
  EXPECT_DOUBLE_EQ(Eval("1" + Repeat("+1", 199), 0, 0), 200.0);
  const std::string nested_parens =
      Repeat("(", 10000) + "1" + Repeat(")", 10000);
  const std::string leading_minus = Repeat("-", 50000) + "1";
  const std::string flat_sum = "1" + Repeat("+1", 199999);
  for (const std::string* text : {&nested_parens, &leading_minus, &flat_sum}) {
    auto expr = GrabLimitExpr::Parse(*text);
    EXPECT_TRUE(expr.status().IsParseError()) << text->substr(0, 20);
    EXPECT_NE(expr.status().ToString().find("nests deeper"),
              std::string::npos)
        << expr.status().ToString();
  }
}

}  // namespace
}  // namespace dmr::dynamic
