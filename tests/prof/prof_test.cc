/// \file
/// The host profiler's contract (DESIGN.md §17): profiling is
/// determinism-invisible (every simulation digest is byte-identical with
/// the profiler on or off), the merged phase tree obeys
/// self = total - sum(children) under arbitrary nesting, the collapsed
/// flamegraph text round-trips losslessly (including through the
/// dmr-analyze profile parser), timer-stack imbalances are detected, and
/// allocation accounting is gated on Enabled(). The concurrent-scopes test
/// is TSan-targeted: thread-local trees must merge without races.

#include "prof/prof.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.h"
#include "obs/analysis.h"
#include "sim/simulation.h"

namespace dmr {
namespace {

class ProfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    prof::Disable();
    prof::ResetForTest();
  }
  void TearDown() override {
    prof::Disable();
    prof::ResetForTest();
  }
};

// --- determinism: digests are byte-identical with profiling on/off -------

constexpr int kNodes = 8;
constexpr double kPeriod = 2.0;
constexpr double kUntil = 40.0;
constexpr double kSlot = kPeriod / kNodes;

double TimeAt(long cell, double frac) {
  return (static_cast<double>(cell) + frac) * kSlot;
}

/// A heartbeat + task + far-ping program with globally unique event times
/// (no ties): the (event, time) firing sequence is the digest under test.
struct Digest {
  std::vector<std::pair<int, double>> fired;
  uint64_t count = 0;
};

Digest RunProgram() {
  sim::Simulation sim;
  Digest out;
  std::function<void(int, long)> beat = [&](int node, long k) {
    out.fired.emplace_back(1 * kNodes + node, sim.Now());
    const long cell = k * kNodes + node;
    sim.ScheduleDetachedAt(TimeAt(cell, 0.5), sim::EventClass::kTaskLifecycle,
                           [&out, &sim, node] {
                             out.fired.emplace_back(2 * kNodes + node,
                                                    sim.Now());
                           });
    const long ping_cells = static_cast<long>(2.5 * kPeriod / kSlot);
    sim.ScheduleDetachedAt(TimeAt(cell + ping_cells, 0.75),
                           sim::EventClass::kDefault, [&out, &sim, node] {
                             out.fired.emplace_back(3 * kNodes + node,
                                                    sim.Now());
                           });
    sim.ScheduleDetachedAt(TimeAt(cell + kNodes, 0.25),
                           sim::EventClass::kScheduling,
                           [&beat, node, k] { beat(node, k + 1); });
  };
  for (int node = 0; node < kNodes; ++node) {
    sim.ScheduleDetachedAt(TimeAt(node, 0.25), sim::EventClass::kScheduling,
                           [&beat, node] { beat(node, 0); });
  }
  out.count = sim.RunUntil(kUntil);
  return out;
}

TEST_F(ProfTest, DigestIdenticalProfilingOnAndOff) {
  Digest off = RunProgram();
  prof::Enable();
  Digest on = RunProgram();
  prof::Disable();
  ASSERT_GT(off.count, 300u) << "program degenerated";
  ASSERT_EQ(off.count, on.count);
  ASSERT_EQ(off.fired, on.fired) << "profiling changed the firing sequence";
  // The profiled run actually recorded the kernel's dispatch phase.
  prof::ProfReport report = prof::Collect();
  bool saw_dispatch = false;
  for (const prof::PhaseStat& phase : report.phases) {
    saw_dispatch |= phase.path.find("dispatch") != std::string::npos;
  }
  EXPECT_TRUE(saw_dispatch);
}

// --- the phase-tree arithmetic -------------------------------------------

/// Number of path segments ';' + 1.
size_t Depth(const std::string& path) {
  size_t depth = 1;
  for (char c : path) depth += c == ';';
  return depth;
}

bool IsDirectChild(const std::string& parent, const std::string& child) {
  return child.size() > parent.size() + 1 &&
         child.compare(0, parent.size(), parent) == 0 &&
         child[parent.size()] == ';' &&
         Depth(child) == Depth(parent) + 1;
}

TEST_F(ProfTest, SelfTimeSumsToTotalUnderRandomizedNesting) {
  prof::Enable();
  static const prof::PhaseId kIds[5] = {
      prof::RegisterPhase("nest", "a"), prof::RegisterPhase("nest", "b"),
      prof::RegisterPhase("nest", "c"), prof::RegisterPhase("nest", "d"),
      prof::RegisterPhase("nest", "e")};
  uint64_t rng = 0x9E3779B97F4A7C15ULL;  // fixed seed: the test must replay
  uint64_t frames = 0;
  std::function<void(int)> recurse = [&](int depth) {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    prof::ScopedTimer frame(kIds[(rng >> 33) % 5]);
    ++frames;
    const int kids = depth < 4 ? static_cast<int>(rng >> 62) : 0;  // 0..3
    for (int i = 0; i < kids; ++i) recurse(depth + 1);
  };
  for (int i = 0; i < 500; ++i) recurse(0);
  prof::Disable();
  prof::ProfReport report = prof::Collect();
  EXPECT_EQ(report.imbalances, 0);
  uint64_t count_sum = 0;
  for (const prof::PhaseStat& phase : report.phases) {
    count_sum += phase.count;
    EXPECT_LE(phase.self_ns, phase.total_ns) << phase.path;
    EXPECT_LE(phase.min_ns, phase.max_ns) << phase.path;
    EXPECT_GT(phase.count, 0u) << phase.path;
    uint64_t children_total = 0;
    for (const prof::PhaseStat& child : report.phases) {
      if (IsDirectChild(phase.path, child.path)) {
        children_total += child.total_ns;
      }
    }
    const uint64_t expected_self = phase.total_ns >= children_total
                                       ? phase.total_ns - children_total
                                       : 0;
    EXPECT_EQ(phase.self_ns, expected_self) << phase.path;
  }
  EXPECT_EQ(count_sum, frames);
}

// --- collapsed-stack round trip ------------------------------------------

TEST_F(ProfTest, CollapsedRoundTripsThroughParserAndAnalysis) {
  prof::Enable();
  static const prof::PhaseId kOuter = prof::RegisterPhase("rt", "outer");
  static const prof::PhaseId kInner = prof::RegisterPhase("rt", "inner");
  for (int i = 0; i < 16; ++i) {
    prof::ScopedTimer outer(kOuter);
    prof::ScopedTimer inner(kInner);
  }
  prof::Disable();
  prof::ProfReport report = prof::Collect();
  const std::string collapsed = prof::ToCollapsed(report);
  ASSERT_FALSE(collapsed.empty());

  Result<prof::ProfReport> parsed = prof::ParseCollapsed(collapsed);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(prof::ToCollapsed(*parsed), collapsed);

  // Through the dmr-analyze profile layer: a metrics file carrying this
  // "prof" section re-emits byte-identical collapsed text.
  const std::string json = "{\"info\": {\"driver\": \"prof_test\"}, "
                           "\"prof\": " + prof::ToJson(report) + "}";
  Result<json::JsonValue> doc = json::JsonParse(json);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  Result<obs::analysis::Table> run =
      obs::analysis::ReadTable(obs::analysis::Kind::kProfile, *doc, "inline");
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->driver, "prof_test");
  EXPECT_EQ(obs::analysis::RenderCollapsed(*run), collapsed);

  ASSERT_FALSE(prof::ParseCollapsed("rt.outer not_a_number\n").ok());
}

// --- imbalance + allocation accounting -----------------------------------

TEST_F(ProfTest, TimerStackImbalanceIsDetected) {
  static const prof::PhaseId kId = prof::RegisterPhase("imb", "open");
  prof::Enable();
  prof::BeginPhase(kId);  // never closed
  prof::Disable();
  EXPECT_GE(prof::Collect().imbalances, 1);
  prof::ResetForTest();

  prof::Enable();
  prof::EndPhase(1);  // never opened
  prof::Disable();
  EXPECT_GE(prof::Collect().imbalances, 1);
}

TEST_F(ProfTest, AllocAccountingIsGatedOnEnable) {
  prof::AccountAlloc(prof::AllocSite::kArenaChunk, 1, 999);  // disabled: no-op
  prof::Enable();
  prof::AccountAlloc(prof::AllocSite::kArenaChunk, 2, 256);
  prof::AccountAlloc(prof::AllocSite::kCallbackSpill, 1, 64);
  prof::Disable();
  prof::ProfReport report = prof::Collect();
  ASSERT_EQ(report.alloc.size(), 2u);  // untouched sites are omitted
  EXPECT_EQ(report.alloc[0].site, "sim.arena.chunk");
  EXPECT_EQ(report.alloc[0].count, 2u);
  EXPECT_EQ(report.alloc[0].bytes, 256u);
  EXPECT_EQ(report.alloc[1].site, "sim.callback.spill");
  EXPECT_EQ(report.alloc[1].count, 1u);
  EXPECT_EQ(report.alloc[1].bytes, 64u);
}

// --- baseline gate --------------------------------------------------------

TEST_F(ProfTest, ProfileBaselineGateFlagsSeededRegression) {
  using obs::analysis::Kind;
  obs::analysis::Table run;
  run.source = "inline";
  run.driver = "prof_test";
  run.info["imbalances"] = 0;
  obs::analysis::Row& phase = run.rows.emplace_back();
  phase.key = {"sim.run_until;sim.dispatch"};
  phase.metrics = {{"count", 100}, {"total_ms", 0.005}, {"self_ms", 0.005}};

  const char* kBaseline =
      "{\"kind\": \"profile\", \"driver\": \"prof_test\","
      " \"require_balanced\": true,"
      " \"tolerances\": {\"count\": {\"rel\": 0.05, \"abs\": 2}},"
      " \"entries\": [{\"path\": \"sim.run_until;sim.dispatch\","
      "                \"metrics\": {\"count\": 100}}]}";
  Result<json::JsonValue> baseline = json::JsonParse(kBaseline);
  ASSERT_TRUE(baseline.ok());

  auto ok = obs::analysis::CheckBaseline(Kind::kProfile, *baseline, {run});
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(ok->ok()) << (ok->failures.empty() ? "" : ok->failures[0]);

  phase.metrics["count"] = 1000;  // seeded 10x regression
  auto bad = obs::analysis::CheckBaseline(Kind::kProfile, *baseline, {run});
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(bad->ok());

  phase.metrics["count"] = 100;
  run.info["imbalances"] = 3;  // require_balanced trips
  auto imb = obs::analysis::CheckBaseline(Kind::kProfile, *baseline, {run});
  ASSERT_TRUE(imb.ok());
  EXPECT_FALSE(imb->ok());
}

// --- cross-thread merge (TSan target) ------------------------------------

TEST_F(ProfTest, ConcurrentScopesMergeAcrossThreads) {
  static const prof::PhaseId kWorker = prof::RegisterPhase("conc", "worker");
  static const prof::PhaseId kInner = prof::RegisterPhase("conc", "inner");
  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  prof::Enable();
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kIters; ++i) {
        prof::ScopedTimer outer(kWorker);
        prof::ScopedTimer inner(kInner);
        prof::AccountAlloc(prof::AllocSite::kColumnarBuild, 1, 8);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  prof::Disable();
  prof::ProfReport report = prof::Collect();
  EXPECT_EQ(report.imbalances, 0);
  EXPECT_GE(report.threads, kThreads);
  const prof::PhaseStat* worker = report.FindPhase("conc.worker");
  const prof::PhaseStat* inner = report.FindPhase("conc.worker;conc.inner");
  ASSERT_NE(worker, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(worker->count, uint64_t{kThreads} * kIters);
  EXPECT_EQ(inner->count, uint64_t{kThreads} * kIters);
  bool saw_alloc = false;
  for (const prof::AllocStat& stat : report.alloc) {
    if (stat.site == "exec.columnar.build") {
      saw_alloc = true;
      EXPECT_EQ(stat.count, uint64_t{kThreads} * kIters);
      EXPECT_EQ(stat.bytes, uint64_t{kThreads} * kIters * 8);
    }
  }
  EXPECT_TRUE(saw_alloc);
}

}  // namespace
}  // namespace dmr
