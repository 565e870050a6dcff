#include "hive/parser.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "common/random.h"
#include "hive/lexer.h"

namespace dmr::hive {
namespace {

/// The parsed statement, or nullopt after failing the test: a failed parse
/// is never dereferenced, so one bad case cannot end the binary.
std::optional<SelectStatement> MustSelect(const std::string& sql) {
  auto stmt = ParseSelect(sql);
  EXPECT_TRUE(stmt.ok()) << sql << " -> " << stmt.status().ToString();
  if (!stmt.ok()) return std::nullopt;
  return *std::move(stmt);
}

TEST(LexerTest, TokenKinds) {
  auto tokens = *Tokenize("SELECT a1, 'str''ing', 42, 3.14 >= <> !=;");
  ASSERT_GE(tokens.size(), 10u);
  EXPECT_TRUE(tokens[0].IsKeyword("select"));
  EXPECT_EQ(tokens[1].kind, TokenKind::kIdent);
  EXPECT_EQ(tokens[1].text, "a1");
  EXPECT_EQ(tokens[3].kind, TokenKind::kString);
  EXPECT_EQ(tokens[3].text, "str'ing");  // escaped quote
  EXPECT_EQ(tokens[5].kind, TokenKind::kInteger);
  EXPECT_EQ(tokens[5].integer, 42);
  EXPECT_EQ(tokens[7].kind, TokenKind::kDecimal);
  EXPECT_DOUBLE_EQ(tokens[7].decimal, 3.14);
  EXPECT_TRUE(tokens[8].IsOp(">="));
  EXPECT_TRUE(tokens[9].IsOp("<>"));
}

TEST(LexerTest, CommentsAreSkipped) {
  auto tokens = *Tokenize("SELECT -- a comment\n x");
  ASSERT_EQ(tokens.size(), 3u);  // SELECT, x, end
  EXPECT_EQ(tokens[1].text, "x");
}

TEST(LexerTest, Errors) {
  EXPECT_TRUE(Tokenize("'unterminated").status().IsParseError());
  EXPECT_TRUE(Tokenize("1.2.3").status().IsParseError());
  EXPECT_TRUE(Tokenize("a @ b").status().IsParseError());
}

TEST(ParserTest, MinimalSelect) {
  std::optional<SelectStatement> s = MustSelect("SELECT * FROM lineitem");
  ASSERT_TRUE(s.has_value());
  EXPECT_TRUE(s->columns.empty());
  EXPECT_EQ(s->table, "lineitem");
  EXPECT_EQ(s->where, nullptr);
  EXPECT_FALSE(s->limit.has_value());
}

TEST(ParserTest, PaperQueryTemplate) {
  std::optional<SelectStatement> s = MustSelect(
      "SELECT ORDERKEY, PARTKEY, SUPPKEY FROM LINEITEM "
      "WHERE DISCOUNT > 0.10 LIMIT 10000;");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->columns,
            (std::vector<std::string>{"ORDERKEY", "PARTKEY", "SUPPKEY"}));
  EXPECT_EQ(s->table, "LINEITEM");
  ASSERT_NE(s->where, nullptr);
  EXPECT_EQ(s->where->ToString(), "(DISCOUNT > 0.1)");
  EXPECT_EQ(s->limit, 10000u);
}

TEST(ParserTest, KeywordsAreCaseInsensitive) {
  std::optional<SelectStatement> s =
      MustSelect("select x from t where x > 1 limit 5");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->columns[0], "x");
  EXPECT_EQ(s->limit, 5u);
}

TEST(ParserTest, OperatorPrecedence) {
  std::optional<SelectStatement> s = MustSelect(
      "SELECT a FROM t WHERE a > 1 + 2 * 3 AND b = 1 OR c = 2");
  ASSERT_TRUE(s.has_value());
  // ((a > (1 + (2*3))) AND (b = 1)) OR (c = 2)
  EXPECT_EQ(s->where->ToString(),
            "(((a > (1 + (2 * 3))) AND (b = 1)) OR (c = 2))");
}

TEST(ParserTest, NotBetweenInLike) {
  std::optional<SelectStatement> s = MustSelect(
      "SELECT a FROM t WHERE a BETWEEN 1 AND 5 AND b NOT IN (1, 2) "
      "AND c LIKE 'x%' AND d NOT LIKE '%y' AND NOT e = 1");
  ASSERT_TRUE(s.has_value());
  EXPECT_NE(s->where, nullptr);
  std::string text = s->where->ToString();
  EXPECT_NE(text.find("BETWEEN"), std::string::npos);
  EXPECT_NE(text.find("(NOT (b IN"), std::string::npos);
  EXPECT_NE(text.find("LIKE 'x%'"), std::string::npos);
  EXPECT_NE(text.find("NOT LIKE '%y'"), std::string::npos);
}

TEST(ParserTest, ParenthesizedExpressions) {
  std::optional<SelectStatement> s =
      MustSelect("SELECT a FROM t WHERE (a = 1 OR b = 2) AND c = 3");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->where->ToString(), "(((a = 1) OR (b = 2)) AND (c = 3))");
}

TEST(ParserTest, NegativeNumbersAndArithmetic) {
  std::optional<SelectStatement> s =
      MustSelect("SELECT a FROM t WHERE a * -2 < b - 1");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->where->ToString(), "((a * -(2)) < (b - 1))");
}

TEST(ParserTest, BooleanLiterals) {
  std::optional<SelectStatement> s =
      MustSelect("SELECT a FROM t WHERE TRUE OR false");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->where->ToString(), "(true OR false)");
}

TEST(ParserTest, ToStringRoundTrips) {
  // The rendered text names the predicate that ran (EXPLAIN, the JobConf's
  // sampling.predicate): it must parse back to a statement that renders
  // identically, quotes and every digit of a literal included.
  const struct {
    const char* sql;
    const char* rendered;
  } kCases[] = {
      {"SELECT ORDERKEY, SUPPKEY FROM LINEITEM WHERE (TAX > 0.08) LIMIT 100",
       "SELECT ORDERKEY, SUPPKEY FROM LINEITEM WHERE (TAX > 0.08) LIMIT 100"},
      {"SELECT * FROM lineitem WHERE SHIPMODE = 'it''s'",
       "SELECT * FROM lineitem WHERE (SHIPMODE = 'it''s')"},
      {"SELECT * FROM lineitem WHERE COMMENT LIKE '%o''clock%' LIMIT 5",
       "SELECT * FROM lineitem WHERE (COMMENT LIKE '%o''clock%') LIMIT 5"},
      {"SELECT * FROM lineitem WHERE DISCOUNT > 0.1234567",
       "SELECT * FROM lineitem WHERE (DISCOUNT > 0.1234567)"},
      {"SELECT * FROM lineitem WHERE PRICE < 1234567.5 OR TAX > 0.00000001",
       "SELECT * FROM lineitem WHERE ((PRICE < 1234567.5) OR "
       "(TAX > 0.00000001))"},
      {"SELECT a FROM t WHERE a > 10.0 AND b = 10",
       "SELECT a FROM t WHERE ((a > 10.0) AND (b = 10))"},
      // NOT binds looser than a comparison, so a NOT operand keeps its
      // parentheses.
      {"SELECT a FROM t WHERE (NOT a) = b",
       "SELECT a FROM t WHERE ((NOT a) = b)"},
  };
  for (const auto& c : kCases) {
    std::optional<SelectStatement> s = MustSelect(c.sql);
    if (!s) continue;  // MustSelect failed the test; try the next case
    EXPECT_EQ(s->ToString(), c.rendered);
    std::optional<SelectStatement> again = MustSelect(s->ToString());
    if (!again) continue;
    EXPECT_EQ(again->ToString(), s->ToString()) << c.sql;
  }
}

TEST(ParserTest, SetStatement) {
  auto stmt = *ParseStatement("SET dynamic.job.policy = LA;");
  auto* set = std::get_if<SetStatement>(&stmt);
  ASSERT_NE(set, nullptr);
  EXPECT_EQ(set->key, "dynamic.job.policy");
  EXPECT_EQ(set->value, "LA");
}

TEST(ParserTest, SetWithNumericAndStringValues) {
  auto a = *ParseStatement("SET x = 42");
  EXPECT_EQ(std::get<SetStatement>(a).value, "42");
  auto b = *ParseStatement("SET y = 'hello world'");
  EXPECT_EQ(std::get<SetStatement>(b).value, "hello world");
}

TEST(ParserTest, ExplainStatement) {
  auto stmt = *ParseStatement("EXPLAIN SELECT a FROM t LIMIT 3");
  auto* explain = std::get_if<ExplainStatement>(&stmt);
  ASSERT_NE(explain, nullptr);
  EXPECT_EQ(explain->select.limit, 3u);
}

TEST(ParserTest, SyntaxErrors) {
  EXPECT_FALSE(ParseStatement("SELECT FROM t").ok());
  EXPECT_FALSE(ParseStatement("SELECT a t").ok());
  EXPECT_FALSE(ParseStatement("SELECT a FROM").ok());
  EXPECT_FALSE(ParseStatement("SELECT a FROM t WHERE").ok());
  EXPECT_FALSE(ParseStatement("SELECT a FROM t LIMIT").ok());
  EXPECT_FALSE(ParseStatement("SELECT a FROM t LIMIT 0").ok());
  EXPECT_FALSE(ParseStatement("SELECT a FROM t LIMIT -5").ok());
  EXPECT_FALSE(ParseStatement("SELECT a FROM t extra").ok());
  EXPECT_FALSE(ParseStatement("SET = 5").ok());
  EXPECT_FALSE(ParseStatement("SELECT a, FROM t").ok());
  EXPECT_FALSE(ParseStatement("SELECT a FROM t WHERE a NOT 5").ok());
  EXPECT_FALSE(ParseStatement("SELECT a FROM t WHERE a LIKE 5").ok());
  EXPECT_FALSE(ParseStatement("SELECT a FROM t WHERE a BETWEEN 1").ok());
  EXPECT_FALSE(ParseStatement("").ok());
}

std::string Repeat(const std::string& piece, int n) {
  std::string out;
  out.reserve(piece.size() * static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) out += piece;
  return out;
}

TEST(ParserTest, DeepWhereIsAParseErrorNotACrash) {
  // Queries are outside input: nesting and tree height are capped, so none
  // of these may overflow the stack (in parsing, or in any later recursive
  // walk or destructor of the tree), while ordinary nesting still parses.
  const std::string prefix = "SELECT a FROM t WHERE ";
  MustSelect(prefix + Repeat("(", 100) + "a = 1" + Repeat(")", 100));
  MustSelect(prefix + Repeat("NOT ", 100) + "a = 1");
  MustSelect(prefix + "a = 1" + Repeat(" AND a = 1", 199));
  MustSelect(prefix + "a = " + Repeat("- ", 100) + "1");  // "--" is a comment
  const std::string nested_parens =
      prefix + Repeat("(", 10000) + "a = 1" + Repeat(")", 10000);
  const std::string many_nots = prefix + Repeat("NOT ", 100000) + "a = 1";
  const std::string and_chain = prefix + "a = 1" + Repeat(" AND a = 1", 299999);
  for (const std::string* sql : {&nested_parens, &many_nots, &and_chain}) {
    auto stmt = ParseSelect(*sql);
    EXPECT_TRUE(stmt.status().IsParseError()) << sql->substr(0, 40);
    EXPECT_NE(stmt.status().ToString().find("nests deeper"),
              std::string::npos)
        << stmt.status().ToString();
  }
}

TEST(ParserTest, ParseSelectRejectsNonSelect) {
  EXPECT_TRUE(ParseSelect("SET a = b").status().IsInvalidArgument());
}

/// Seeded mutational fuzzing of the HiveQL front end. Every input must come
/// back as a statement or a ParseError (never a crash, hang or sanitizer
/// report), and every accepted SELECT or EXPLAIN must render to text that
/// parses again and renders identically.
class ParserFuzzTest : public ::testing::Test {
 protected:
  const std::string& Pick(const std::vector<std::string>& words) {
    return words[rng_.NextBounded(words.size())];
  }

  std::string Mutate(std::string text, const std::vector<std::string>& seeds) {
    const int edits = 1 + static_cast<int>(rng_.NextBounded(2));
    for (int e = 0; e < edits; ++e) {
      size_t pos = rng_.NextBounded(text.size() + 1);
      if (rng_.NextBounded(2) == 0) {  // snap to a token boundary
        pos = std::min(text.find(' ', pos), text.size());
      }
      switch (rng_.NextBounded(7)) {
        case 0:
          text.insert(pos, Pick(kDictionary));
          break;
        case 1:
        case 2:
          text.insert(pos, " " + Pick(kDictionary) + " ");
          break;
        case 3:
          text.erase(pos, rng_.NextBounded(8));
          break;
        case 4:
          if (!text.empty()) {
            text[rng_.NextBounded(text.size())] =
                static_cast<char>(rng_.NextBounded(256));
          }
          break;
        case 5: {  // replace the word at pos
          const size_t begin = text.rfind(' ', pos == 0 ? 0 : pos - 1);
          const size_t from = begin == std::string::npos ? 0 : begin + 1;
          const size_t end = std::min(text.find(' ', from), text.size());
          text.replace(from, end - from, Pick(kDictionary));
          break;
        }
        default: {  // splice in a slice of another seed
          const std::string& other = Pick(seeds);
          const size_t from = rng_.NextBounded(other.size());
          text.insert(pos, other.substr(from, rng_.NextBounded(40)));
          break;
        }
      }
    }
    return text;
  }

  /// The text a statement renders to; empty for SET, which has none.
  static std::string Render(const Statement& stmt) {
    if (const auto* select = std::get_if<SelectStatement>(&stmt)) {
      return select->ToString();
    }
    if (const auto* explain = std::get_if<ExplainStatement>(&stmt)) {
      return "EXPLAIN " + explain->select.ToString();
    }
    return "";
  }

  inline static const std::vector<std::string> kDictionary = {
      "''", "'", "'it''s'", "0.1234567", "1234567.5", "0.00000001", "10.0",
      "0.1", "10", "1e-08", "9223372036854775807", "9223372036854775808",
      std::string(400, '9') + ".5", "0." + std::string(400, '0') + "1",
      "(", ")", "((", "))", "(((", ")))", "NOT", "NOT NOT", "AND", "OR",
      "IN", "BETWEEN", "LIKE", "SELECT", "FROM", "WHERE", "LIMIT", "EXPLAIN",
      "SET", "TRUE", "FALSE", "*", "-", "- -", "--", "+", "/", ",", ";", ".",
      "=", "<>", "!=", "<=", "%", "_", "\n"};

  Rng rng_{20120402};
};

TEST_F(ParserFuzzTest, MutatedStatementsParseOrFailAndRoundTrip) {
  const std::vector<std::string> seeds = {
      // The paper's query template and the benchmark's query.
      "SELECT ORDERKEY, PARTKEY, SUPPKEY FROM LINEITEM "
      "WHERE DISCOUNT > 0.10 LIMIT 10000;",
      "SELECT * FROM lineitem WHERE DISCOUNT > 0.10 LIMIT 40",
      "SET dynamic.job.policy = LA;",
      "EXPLAIN SELECT ORDERKEY FROM lineitem WHERE TAX > 0.08 LIMIT 10",
      "SELECT a FROM t WHERE b IN (1, 2.5, 'x', -3) AND c NOT IN ('y')",
      "SELECT a FROM t WHERE a BETWEEN -1 AND 1.5 OR b NOT BETWEEN 2 AND 3",
      "SELECT * FROM t WHERE SHIPMODE LIKE '%o''clock%' AND c NOT LIKE 'w%'",
      "SELECT a, b FROM t WHERE NOT (a = 1) OR NOT b * -2 >= (c - 0.5) / 4",
  };
  int accepted = 0;
  int rendered = 0;
  int refused = 0;
  for (int i = 0; i < 5000; ++i) {
    const std::string input = Mutate(Pick(seeds), seeds);
    Result<Statement> stmt = ParseStatement(input);
    if (!stmt.ok()) {
      ++refused;
      EXPECT_TRUE(stmt.status().IsParseError())
          << stmt.status().ToString() << "\ninput: " << input;
      continue;
    }
    ++accepted;
    const std::string text = Render(*stmt);
    if (text.empty()) continue;
    ++rendered;
    Result<Statement> again = ParseStatement(text);
    ASSERT_TRUE(again.ok()) << again.status().ToString() << "\ninput: "
                            << input << "\nrendered: " << text;
    EXPECT_EQ(Render(*again), text) << "input: " << input;
  }
  // Both paths ran: the fuzzer neither only breaks nor only keeps inputs.
  EXPECT_GT(rendered, 250) << accepted << " accepted, " << refused
                           << " refused";
  EXPECT_GT(refused, 1000) << accepted << " accepted";
}

}  // namespace
}  // namespace dmr::hive
