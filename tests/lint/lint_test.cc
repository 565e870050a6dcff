#include "lint/lint.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/json.h"

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

TEST(LintFixtureTest, WallClock) {
  auto findings = LintPath(FixturePath("wall_clock.cc"));
  EXPECT_EQ(Hits(findings), (Expected{{"wall-clock", 5},
                                      {"wall-clock", 8},
                                      {"wall-clock", 11}}));
  for (const Finding& f : findings) {
    EXPECT_EQ(f.severity, Severity::kError);
  }
}

TEST(LintFixtureTest, RawHostTimer) {
  auto findings = LintPath(FixturePath("raw_host_timer.cc"));
  EXPECT_EQ(Hits(findings), (Expected{{"raw-host-timer", 5},
                                      {"raw-host-timer", 8},
                                      {"raw-host-timer", 12}}));
  for (const Finding& f : findings) {
    EXPECT_EQ(f.severity, Severity::kWarning);
  }
}

TEST(LintFixtureTest, RawHostTimerSuppressedPair) {
  auto findings = LintPath(FixturePath("raw_host_timer_suppressed.cc"));
  EXPECT_TRUE(Hits(findings).empty());
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].line, 5);   // trailing-comment form
  EXPECT_EQ(findings[1].line, 9);   // line-above form
  for (const Finding& f : findings) {
    EXPECT_TRUE(f.suppressed);
    EXPECT_NE(f.justification.find("form"), std::string::npos);
  }
}

TEST(LintFixtureTest, RawHostTimerExemptsTheProfSeam) {
  // prof/prof.cc is the sanctioned home for raw monotonic reads.
  auto findings = LintContent(
      "src/prof/prof.cc",
      "#include <chrono>\n"
      "using namespace std::chrono;\n"
      "long N() { return steady_clock::now().time_since_epoch().count(); }\n");
  EXPECT_TRUE(findings.empty());
}

TEST(LintFixtureTest, UnseededRng) {
  auto findings = LintPath(FixturePath("unseeded_rng.cc"));
  EXPECT_EQ(Hits(findings), (Expected{{"unseeded-rng", 6},
                                      {"unseeded-rng", 9},
                                      {"unseeded-rng", 12}}));
}

TEST(LintFixtureTest, UnorderedOutputAnchorsToTheLoop) {
  auto findings = LintPath(FixturePath("unordered_output.cc"));
  EXPECT_EQ(Hits(findings), (Expected{{"unordered-output", 8}}));
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].severity, Severity::kWarning);
  EXPECT_NE(findings[0].message.find("stats"), std::string::npos);
}

TEST(LintFixtureTest, TimelineExporterUnorderedProbeIteration) {
  auto findings = LintPath(FixturePath("timeline_unordered.cc"));
  EXPECT_EQ(Hits(findings), (Expected{{"unordered-output", 11}}));
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("probes"), std::string::npos);
}

TEST(LintFixtureTest, PointerOutput) {
  auto findings = LintPath(FixturePath("pointer_output.cc"));
  EXPECT_EQ(Hits(findings), (Expected{{"pointer-output", 6},
                                      {"pointer-output", 11}}));
}

TEST(LintFixtureTest, CheckSideEffect) {
  auto findings = LintPath(FixturePath("check_side_effect.cc"));
  EXPECT_EQ(Hits(findings), (Expected{{"check-side-effect", 7},
                                      {"check-side-effect", 10}}));
}

TEST(LintFixtureTest, IgnoredStatus) {
  auto findings = LintPath(FixturePath("ignored_status.cc"));
  EXPECT_EQ(Hits(findings), (Expected{{"ignored-status", 7}}));
}

TEST(LintFixtureTest, ArenaAlloc) {
  auto findings = LintPath(FixturePath("arena_alloc.cc"));
  EXPECT_EQ(Hits(findings), (Expected{{"arena-alloc", 8},
                                      {"arena-alloc", 10},
                                      {"arena-alloc", 12}}));
  // The dmr-lint: allow() form covers the trailing duplicate.
  ASSERT_EQ(findings.size(), 4u);
  EXPECT_TRUE(findings[3].suppressed);
  for (const Finding& f : findings) {
    EXPECT_EQ(f.severity, Severity::kError);
  }
}

TEST(LintFixtureTest, ArenaAllocExemptsTheKernelItself) {
  // The slot pool / slab internals are the one sanctioned home for raw
  // allocation of these types.
  auto findings =
      LintContent("src/sim/simulation.cc", "auto* s = new EventSlot;\n");
  EXPECT_TRUE(findings.empty());
}

TEST(LintFixtureTest, ZoneMapUnorderedIteration) {
  auto findings = LintPath(FixturePath("zone_map_unordered.cc"));
  EXPECT_EQ(Hits(findings), (Expected{{"zone-map-unordered", 17}}));
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].severity, Severity::kError);
  EXPECT_NE(findings[0].message.find("parts"), std::string::npos);
}

TEST(LintFixtureTest, ZoneMapOrderedCounterpartIsClean) {
  // Same fold over std::map: key-ordered iteration, no hazard.
  auto findings = LintPath(FixturePath("zone_map_ordered.cc"));
  EXPECT_TRUE(findings.empty());
}

TEST(LintFixtureTest, CleanFileHasNoFindings) {
  auto findings = LintPath(FixturePath("clean.cc"));
  EXPECT_TRUE(findings.empty());
}

TEST(LintFixtureTest, SuppressionsCoverBothForms) {
  auto findings = LintPath(FixturePath("suppressed.cc"));
  EXPECT_TRUE(Hits(findings).empty());
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].line, 6);   // trailing-comment form
  EXPECT_EQ(findings[1].line, 10);  // line-above form
  for (const Finding& f : findings) {
    EXPECT_TRUE(f.suppressed);
    EXPECT_NE(f.justification.find("form"), std::string::npos);
  }
  EXPECT_EQ(CountActionable(findings, Severity::kNote), 0);
}

TEST(LintTest, AllowForAnotherCheckDoesNotSuppress) {
  auto findings = LintContent(
      "wrong_allow.cc",
      "#include <cstdlib>\n"
      "int A() { return rand(); }  // dmr-lint: allow(wall-clock) wrong "
      "check on purpose\n");
  EXPECT_EQ(Hits(findings), (Expected{{"unseeded-rng", 2}}));
}

TEST(LintTest, MultipleIdsInOneAllow) {
  auto findings = LintContent(
      "multi_allow.cc",
      "// dmr-lint: allow(unseeded-rng, wall-clock) both at once\n"
      "int A() { return rand() + int(clock()); }\n");
  EXPECT_TRUE(Hits(findings).empty());
  EXPECT_EQ(findings.size(), 2u);
}

TEST(LintTest, CountActionableRespectsTheFloor) {
  auto findings = LintContent(
      "mixed.cc",
      "#include <unordered_map>\n"
      "#include <string>\n"
      "std::string R(const std::unordered_map<int, int>& m) {\n"
      "  std::string out;\n"
      "  for (const auto& [k, v] : m) out += std::to_string(k);\n"
      "  return out;\n"
      "}\n");
  ASSERT_EQ(Hits(findings), (Expected{{"unordered-output", 5}}));
  EXPECT_EQ(CountActionable(findings, Severity::kWarning), 1);
  EXPECT_EQ(CountActionable(findings, Severity::kError), 0);
}

TEST(LintTest, JsonReportParsesAndCounts) {
  auto findings = LintPath(FixturePath("suppressed.cc"));
  auto more = LintPath(FixturePath("wall_clock.cc"));
  findings.insert(findings.end(), more.begin(), more.end());
  auto doc = json::JsonParse(FindingsToJson(findings));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const json::JsonValue* list = doc.ValueOrDie().Find("findings");
  ASSERT_NE(list, nullptr);
  EXPECT_EQ(list->items.size(), 5u);
  const json::JsonValue* counts = doc.ValueOrDie().Find("counts");
  ASSERT_NE(counts, nullptr);
  EXPECT_EQ(counts->NumberOr("errors", -1), 3);
  EXPECT_EQ(counts->NumberOr("suppressed", -1), 2);
}

TEST(LintTest, EveryBuiltinCheckHasIdSeverityAndMessage) {
  for (const CheckDef& check : BuiltinChecks()) {
    EXPECT_NE(check.id, nullptr);
    EXPECT_STRNE(check.id, "");
    EXPECT_NE(check.message, nullptr);
    EXPECT_FALSE(check.patterns.empty()) << check.id;
  }
}

}  // namespace
}  // namespace dmr::lint
