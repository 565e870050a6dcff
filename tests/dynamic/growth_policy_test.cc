#include "dynamic/growth_policy.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"

namespace dmr::dynamic {
namespace {

mapred::ClusterStatus Status40(int available) {
  mapred::ClusterStatus s;
  s.total_map_slots = 40;
  s.occupied_map_slots = 40 - available;
  return s;
}

TEST(GrowthPolicyTest, CreateValidates) {
  EXPECT_TRUE(GrowthPolicy::Create("", "", 0, "AS").status()
                  .IsInvalidArgument());
  EXPECT_TRUE(GrowthPolicy::Create("p", "", -1, "AS").status()
                  .IsInvalidArgument());
  EXPECT_TRUE(GrowthPolicy::Create("p", "", 101, "AS").status()
                  .IsInvalidArgument());
  EXPECT_TRUE(GrowthPolicy::Create("p", "", 0, "AS", 0.0).status()
                  .IsInvalidArgument());
  // NaN and infinities fail every range check.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(GrowthPolicy::Create("p", "", nan, "AS").status()
                  .IsInvalidArgument());
  EXPECT_TRUE(GrowthPolicy::Create("p", "", inf, "AS").status()
                  .IsInvalidArgument());
  EXPECT_TRUE(GrowthPolicy::Create("p", "", 0, "AS", nan).status()
                  .IsInvalidArgument());
  EXPECT_TRUE(GrowthPolicy::Create("p", "", 0, "AS", inf).status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      GrowthPolicy::Create("p", "", 0, "bogus expr").status().IsParseError());
  EXPECT_TRUE(GrowthPolicy::Create("p", "d", 5, "0.5 * AS", 2.0).ok());
}

TEST(GrowthPolicyTest, BuiltInTableMatchesPaper) {
  const auto& table = PolicyTable::BuiltIn();
  ASSERT_EQ(table.policies().size(), 5u);
  EXPECT_TRUE(table.Contains("Hadoop"));
  EXPECT_TRUE(table.Contains("HA"));
  EXPECT_TRUE(table.Contains("MA"));
  EXPECT_TRUE(table.Contains("LA"));
  EXPECT_TRUE(table.Contains("C"));

  EXPECT_DOUBLE_EQ(table.Find("HA")->work_threshold_pct(), 0.0);
  EXPECT_DOUBLE_EQ(table.Find("MA")->work_threshold_pct(), 5.0);
  EXPECT_DOUBLE_EQ(table.Find("LA")->work_threshold_pct(), 10.0);
  EXPECT_DOUBLE_EQ(table.Find("C")->work_threshold_pct(), 15.0);
  // Evaluation interval fixed at 4 s (paper Section III-B).
  EXPECT_DOUBLE_EQ(table.Find("LA")->eval_interval(), 4.0);
}

TEST(GrowthPolicyTest, LookupIsCaseInsensitive) {
  const auto& table = PolicyTable::BuiltIn();
  EXPECT_TRUE(table.Find("hadoop").ok());
  EXPECT_TRUE(table.Find("la").ok());
  EXPECT_TRUE(table.Find("nope").status().IsNotFound());
}

TEST(GrowthPolicyTest, HadoopPolicyIsUnbounded) {
  auto hadoop = *PolicyTable::BuiltIn().Find("Hadoop");
  EXPECT_TRUE(hadoop.unbounded());
  EXPECT_EQ(hadoop.GrabLimit(Status40(0)),
            std::numeric_limits<int64_t>::max());
  auto la = *PolicyTable::BuiltIn().Find("LA");
  EXPECT_FALSE(la.unbounded());
}

TEST(GrowthPolicyTest, GrabLimitsMatchTableOne) {
  const auto& table = PolicyTable::BuiltIn();
  // Idle 40-slot cluster.
  EXPECT_EQ(table.Find("HA")->GrabLimit(Status40(40)), 40);
  EXPECT_EQ(table.Find("MA")->GrabLimit(Status40(40)), 20);
  EXPECT_EQ(table.Find("LA")->GrabLimit(Status40(40)), 8);
  EXPECT_EQ(table.Find("C")->GrabLimit(Status40(40)), 4);
  // Saturated cluster: the fallback branches.
  EXPECT_EQ(table.Find("HA")->GrabLimit(Status40(0)), 20);   // 0.5*TS
  EXPECT_EQ(table.Find("MA")->GrabLimit(Status40(0)), 8);    // 0.2*TS
  EXPECT_EQ(table.Find("LA")->GrabLimit(Status40(0)), 4);    // 0.1*TS
  EXPECT_EQ(table.Find("C")->GrabLimit(Status40(0)), 0);     // 0.1*0
}

TEST(GrowthPolicyTest, PositiveFractionsRoundUpToOne) {
  auto c = *PolicyTable::BuiltIn().Find("C");
  // 0.1 * 3 = 0.3 -> at least one split so a starved job can progress.
  EXPECT_EQ(c.GrabLimit(Status40(3)), 1);
}

TEST(GrowthPolicyTest, HugeLimitsAreUnboundedAndNaNIsZero) {
  // Past what llround can represent: unbounded, not a floor of 1.
  for (const char* grab : {"10000000000000000000", "9300000000000000000"}) {
    auto policy = GrowthPolicy::Create("p", "", 0, grab);
    ASSERT_TRUE(policy.ok()) << grab;
    EXPECT_EQ(policy->GrabLimit(Status40(40)),
              std::numeric_limits<int64_t>::max())
        << grab;
  }
  for (const char* grab : {"INF - INF", "0 - INF * 0"}) {
    auto policy = GrowthPolicy::Create("p", "", 0, grab);
    ASSERT_TRUE(policy.ok()) << grab;
    EXPECT_EQ(policy->GrabLimit(Status40(40)), 0) << grab;
  }
}

TEST(GrowthPolicyTest, ApplyWritesJobConf) {
  auto la = *PolicyTable::BuiltIn().Find("LA");
  mapred::JobConf conf;
  la.Apply(&conf);
  EXPECT_TRUE(conf.dynamic_job());
  EXPECT_EQ(conf.policy(), "LA");
  EXPECT_DOUBLE_EQ(conf.eval_interval(), 4.0);
  EXPECT_DOUBLE_EQ(conf.work_threshold_pct(), 10.0);
}

TEST(PolicyTableTest, AddRejectsDuplicates) {
  PolicyTable table;
  ASSERT_TRUE(table.Add(*GrowthPolicy::Create("X", "", 0, "AS")).ok());
  EXPECT_TRUE(table.Add(*GrowthPolicy::Create("x", "", 0, "TS"))
                  .IsAlreadyExists());
}

TEST(PolicyTableTest, ParsePolicyFile) {
  auto table = PolicyTable::Parse(R"(
# policy.xml analogue
policy.Fast.description = go fast
policy.Fast.work_threshold = 0
policy.Fast.grab_limit = AS
policy.Fast.eval_interval = 2

policy.Slow.grab_limit = 1
policy.Slow.work_threshold = 20
)");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  ASSERT_EQ(table->policies().size(), 2u);
  auto fast = *table->Find("Fast");
  EXPECT_EQ(fast.description(), "go fast");
  EXPECT_DOUBLE_EQ(fast.eval_interval(), 2.0);
  EXPECT_EQ(fast.GrabLimit(Status40(12)), 12);
  auto slow = *table->Find("Slow");
  EXPECT_DOUBLE_EQ(slow.work_threshold_pct(), 20.0);
  EXPECT_DOUBLE_EQ(slow.eval_interval(), 4.0);  // default
}

TEST(PolicyTableTest, ParseRejectsMissingGrabLimit) {
  auto table = PolicyTable::Parse("policy.Bad.work_threshold = 5\n");
  EXPECT_TRUE(table.status().IsParseError());
}

TEST(PolicyTableTest, ParseRejectsForeignKeys) {
  auto table = PolicyTable::Parse("unrelated.key = 1\n");
  EXPECT_TRUE(table.status().IsParseError());
}

TEST(PolicyTableTest, ParseRejectsNonFiniteValues) {
  // strtod reads these; the policy checks must refuse them.
  for (const char* line : {"policy.Bad.eval_interval = nan\n",
                           "policy.Bad.eval_interval = inf\n",
                           "policy.Bad.eval_interval = 1e999\n",
                           "policy.Bad.work_threshold = nan\n",
                           "policy.Bad.work_threshold = -inf\n"}) {
    auto table =
        PolicyTable::Parse(std::string("policy.Bad.grab_limit = AS\n") + line);
    EXPECT_TRUE(table.status().IsInvalidArgument()) << line;
  }
}

TEST(PolicyTableTest, ParseRejectsMalformedExpression) {
  auto table = PolicyTable::Parse("policy.Bad.grab_limit = AS +\n");
  EXPECT_FALSE(table.ok());
}

/// Seeded mutational fuzzing of the policy-file loader and the grab-limit
/// parser. Inputs are valid seeds hit with a few random edits: dictionary
/// words (non-finite and edge numbers, keys, operators) inserted or swapped
/// in for a value, byte flips, deletions and splices. Every call must come
/// back with OK or a parse/validation Status, and every accepted policy
/// must satisfy the invariants GrowthPolicy::Create enforces.
class PolicyTableFuzzTest : public ::testing::Test {
 protected:
  const std::string& Pick(const std::vector<std::string>& words) {
    return words[rng_.NextBounded(words.size())];
  }

  std::string Mutate(std::string text, const std::vector<std::string>& seeds) {
    const int edits = 1 + static_cast<int>(rng_.NextBounded(4));
    for (int e = 0; e < edits; ++e) {
      const size_t pos = rng_.NextBounded(text.size() + 1);
      switch (rng_.NextBounded(5)) {
        case 0:
          text.insert(pos, Pick(kDictionary));
          break;
        case 1: {  // swap the value after the next '=' for a word
          size_t eq = text.find('=', pos);
          if (eq == std::string::npos) break;
          size_t eol = text.find('\n', eq);
          if (eol == std::string::npos) eol = text.size();
          text.replace(eq + 1, eol - eq - 1, " " + Pick(kDictionary));
          break;
        }
        case 2:
          text.erase(pos, rng_.NextBounded(8));
          break;
        case 3:
          if (!text.empty()) {
            text[rng_.NextBounded(text.size())] =
                static_cast<char>(rng_.NextBounded(256));
          }
          break;
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

  static void ExpectParseOrValidationError(const Status& status,
                                           const std::string& input) {
    EXPECT_TRUE(status.IsParseError() || status.IsInvalidArgument() ||
                status.IsAlreadyExists())
        << status.ToString() << "\ninput:\n" << input;
  }

  inline static const std::vector<std::string> kDictionary = {
      "nan", "-nan", "NaN", "inf", "-inf", "infinity", "1e999", "-1e999",
      "-0", "0", "100", "100.5", "1e-320", "4", "", "policy.",
      ".work_threshold", ".eval_interval", ".grab_limit", ".description",
      " = ", "\n", "#", "AS", "TS", "INF", "max(", "min(", "?", ":", "(",
      ")", ",", "*", "/", "-", " and ", " or ", "<=", "=="};

  Rng rng_{20120401};
};

TEST_F(PolicyTableFuzzTest, MutatedPolicyFilesReturnStatus) {
  const std::vector<std::string> seeds = {
      "policy.LA.description = Less Aggressive policy\n"
      "policy.LA.work_threshold = 10\n"
      "policy.LA.grab_limit = AS > 0 ? 0.2 * AS : 0.1 * TS\n"
      "policy.LA.eval_interval = 4\n",
      "# Table I\n"
      "policy.Hadoop.grab_limit = INF\n"
      "policy.HA.work_threshold = 0\n"
      "policy.HA.grab_limit = max(0.5 * TS, AS)\n"
      "policy.C.grab_limit = min(0.1 * AS, 32)\n"
      "policy.C.eval_interval = 2.5\n"};
  int accepted = 0;
  int refused = 0;
  for (int i = 0; i < 4000; ++i) {
    const std::string input = Mutate(Pick(seeds), seeds);
    Result<PolicyTable> table = PolicyTable::Parse(input);
    if (!table.ok()) {
      ++refused;
      ExpectParseOrValidationError(table.status(), input);
      continue;
    }
    ++accepted;
    for (const GrowthPolicy& policy : table->policies()) {
      EXPECT_FALSE(policy.name().empty()) << input;
      EXPECT_TRUE(std::isfinite(policy.eval_interval()) &&
                  policy.eval_interval() > 0.0)
          << policy.eval_interval() << "\ninput:\n" << input;
      EXPECT_TRUE(policy.work_threshold_pct() >= 0.0 &&
                  policy.work_threshold_pct() <= 100.0)
          << policy.work_threshold_pct() << "\ninput:\n" << input;
      for (int available : {0, 7, 40}) {
        EXPECT_GE(policy.GrabLimit(Status40(available)), 0) << input;
      }
    }
  }
  // Both paths ran: the fuzzer neither only breaks nor only keeps inputs.
  EXPECT_GT(accepted, 100);
  EXPECT_GT(refused, 100);
}

TEST_F(PolicyTableFuzzTest, MutatedGrabLimitsReturnStatus) {
  const std::vector<std::string> seeds = {
      "INF", "max(0.5 * TS, AS)", "AS > 0 ? 0.5 * AS : 0.2 * TS",
      "AS > 0 ? 0.2 * AS : 0.1 * TS", "0.1 * AS",
      "min(AS, 32) and TS >= 4 or -(AS / 2)"};
  int accepted = 0;
  int refused = 0;
  for (int i = 0; i < 4000; ++i) {
    const std::string input = Mutate(Pick(seeds), seeds);
    Result<GrabLimitExpr> expr = GrabLimitExpr::Parse(input);
    if (!expr.ok()) {
      ++refused;
      EXPECT_TRUE(expr.status().IsParseError())
          << expr.status().ToString() << "\ninput: " << input;
      continue;
    }
    ++accepted;
    EXPECT_EQ(expr->text(), input);
    for (double available : {0.0, 7.0, 40.0}) {
      expr->Evaluate({available, 40.0});  // must not crash; NaN is allowed
    }
  }
  EXPECT_GT(accepted, 100);
  EXPECT_GT(refused, 100);
}

}  // namespace
}  // namespace dmr::dynamic
