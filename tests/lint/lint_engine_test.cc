/// \file
/// Tests for the v2-only behavior of the lint engine: the statement-scoped
/// suppression rules, the required-justification rule, token-level
/// behavior, and the baseline gate used by tier-1.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "lint/lint.h"

namespace dmr::lint {
namespace {

std::string FixturePath(const std::string& name) {
  return std::string(DMR_SOURCE_DIR) + "/tests/lint/fixtures/" + name;
}

/// (check id, line) pairs of the unsuppressed findings, in report order.
std::vector<std::pair<std::string, int>> Hits(
    const std::vector<Finding>& findings) {
  std::vector<std::pair<std::string, int>> hits;
  for (const Finding& f : findings) {
    if (!f.suppressed) hits.emplace_back(f.check, f.line);
  }
  return hits;
}

using Expected = std::vector<std::pair<std::string, int>>;

// --- statement-scoped suppressions ----------------------------------------

TEST(SuppressionTest, AllowCoversTheFollowingStatement) {
  auto findings = LintPath(FixturePath("allow_statement.cc"));
  EXPECT_TRUE(Hits(findings).empty());
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].line, 11);  // line-above form, wrapped statement
  EXPECT_EQ(findings[1].line, 17);  // trailing form, wrapped statement
  for (const Finding& f : findings) {
    EXPECT_EQ(f.check, "wall-clock");
    EXPECT_TRUE(f.suppressed);
    EXPECT_FALSE(f.justification.empty());
  }
}

TEST(SuppressionTest, AllowWithoutJustificationIsRejected) {
  auto findings = LintPath(FixturePath("allow_no_justification.cc"));
  EXPECT_EQ(Hits(findings), (Expected{{"lint-allow", 6},
                                      {"unseeded-rng", 7},
                                      {"lint-allow", 9},
                                      {"unseeded-rng", 9}}));
  for (const Finding& f : findings) {
    EXPECT_EQ(f.severity, Severity::kError);
    EXPECT_FALSE(f.suppressed) << "a bare allow must not suppress anything";
  }
  EXPECT_EQ(CountActionable(findings, Severity::kError), 4);
}

// --- token-level behavior -------------------------------------------------

TEST(TokenizerTest, RawStringContentsAreNotCode) {
  auto findings = LintContent(
      "probe.cc",
      "#include <string>\n"
      "std::string A() { return R\"(call rand() and srand() here)\"; }\n");
  EXPECT_TRUE(findings.empty());
}

TEST(TokenizerTest, BlockCommentsAreNotCode) {
  auto findings = LintContent(
      "probe.cc",
      "/* rand() in prose\n   more rand() */\n"
      "int A() { return 7; }\n");
  EXPECT_TRUE(findings.empty());
}

// --- the baseline gate ----------------------------------------------------

TEST(BaselineTest, RoundTripMatchesExactly) {
  auto findings = LintPath(FixturePath("unseeded_rng.cc"));
  std::string baseline = BaselineToJson(findings, Severity::kWarning);
  std::string error;
  EXPECT_TRUE(
      CompareBaseline(findings, Severity::kWarning, baseline, &error)
          .empty());
  EXPECT_TRUE(error.empty());
}

TEST(BaselineTest, NewFindingsBlock) {
  auto findings = LintPath(FixturePath("unseeded_rng.cc"));
  // An empty baseline means every current finding is new.
  std::string empty = BaselineToJson({}, Severity::kWarning);
  std::string error;
  auto deltas = CompareBaseline(findings, Severity::kWarning, empty, &error);
  ASSERT_FALSE(deltas.empty());
  EXPECT_NE(deltas[0].find("new"), std::string::npos);
}

TEST(BaselineTest, DoctoredBaselineBlocks) {
  // A baseline claiming findings that no longer exist (or that never
  // existed) must fail too, so the recorded debt can only shrink.
  auto findings = LintPath(FixturePath("unseeded_rng.cc"));
  std::string doctored = BaselineToJson(findings, Severity::kWarning);
  auto pos = doctored.find("\"count\": 3");
  ASSERT_NE(pos, std::string::npos) << doctored;
  doctored.replace(pos, 10, "\"count\": 9");
  std::string error;
  auto deltas =
      CompareBaseline(findings, Severity::kWarning, doctored, &error);
  ASSERT_FALSE(deltas.empty());
  EXPECT_NE(deltas[0].find("stale"), std::string::npos);
}

TEST(BaselineTest, StaleEntryBlocks) {
  auto findings = LintPath(FixturePath("unseeded_rng.cc"));
  std::string baseline = BaselineToJson(findings, Severity::kWarning);
  std::string error;
  // The code was fixed (no findings) but the baseline still records debt.
  auto deltas = CompareBaseline({}, Severity::kWarning, baseline, &error);
  ASSERT_FALSE(deltas.empty());
  EXPECT_NE(deltas[0].find("stale"), std::string::npos);
}

TEST(BaselineTest, MalformedBaselineReports) {
  std::string error;
  auto deltas =
      CompareBaseline({}, Severity::kWarning, "{not json", &error);
  EXPECT_EQ(deltas.size(), 1u);
  EXPECT_FALSE(error.empty());
}

TEST(BaselineTest, SuppressedFindingsStayOutOfTheBaseline) {
  auto findings = LintPath(FixturePath("suppressed.cc"));
  ASSERT_EQ(findings.size(), 2u);
  for (const Finding& f : findings) ASSERT_TRUE(f.suppressed);
  std::string baseline = BaselineToJson(findings, Severity::kWarning);
  EXPECT_EQ(baseline, BaselineToJson({}, Severity::kWarning))
      << "suppressed findings are audited in-line, not banked as debt";
}

}  // namespace
}  // namespace dmr::lint
