/// \file
/// Tests for the slot-time ledger and the critical-path event graph: unit
/// coverage of the category attribution rules, a randomized exhaustiveness
/// property (every slot-second lands in exactly one category), an
/// end-to-end property over a randomized policy/z grid on the real
/// testbed, and byte-identical ledger/critical-path JSON across thread
/// counts.

#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "exec/parallel.h"
#include "obs/book.h"
#include "obs/critical_path.h"
#include "obs/ledger.h"
#include "sampling/sampling_job.h"
#include "testbed/testbed.h"
#include "tpch/dataset_catalog.h"

namespace dmr::obs {
namespace {

double Category(const Ledger::Totals& totals, SlotCategory category) {
  return totals.seconds[static_cast<int>(category)];
}

/// A job-level lifecycle record at virtual time `t`, as
/// JobTracker::Report would stamp it.
LifecycleRecord At(double t, LifecycleStep step, int job) {
  LifecycleRecord rec;
  rec.step = step;
  rec.t = t;
  rec.job = job;
  return rec;
}

LifecycleRecord Queued(double t, int job, int split) {
  LifecycleRecord rec = At(t, LifecycleStep::kSplitQueued, job);
  rec.split = split;
  return rec;
}

LifecycleRecord Launched(double t, int job, int split, int node, int slot) {
  LifecycleRecord rec = At(t, LifecycleStep::kMapLaunch, job);
  rec.split = split;
  rec.node = node;
  rec.slot = slot;
  return rec;
}

LifecycleRecord Ended(double t, int job, int split, int node, int slot,
                      Outcome outcome) {
  LifecycleRecord rec = At(t, LifecycleStep::kAttemptEnd, job);
  rec.split = split;
  rec.node = node;
  rec.slot = slot;
  rec.outcome = outcome;
  return rec;
}

TEST(LedgerTest, AttributesBusyFreeAndWastedTime) {
  // One node, one slot, makespan 10. An attempt runs [2, 6); the sample
  // became satisfiable at t=4, so half the attempt is wasted. The cluster
  // had queued work in [0, 2) and waited for the provider in [6, 8).
  Ledger ledger(/*num_nodes=*/1, /*map_slots_per_node=*/1);
  ledger.OnFreeState(Ledger::FreeState::kQueue, 0.0);
  ledger.OnSlotAcquired(0, 0, 2.0);
  ledger.OnSampleSatisfiable(/*job=*/1, 4.0);
  ledger.OnAttemptOutcome(0, 0, /*job=*/1, Outcome::kOk);
  ledger.OnSlotReleased(0, 0, 6.0);
  ledger.OnFreeState(Ledger::FreeState::kProviderWait, 6.0);
  ledger.OnFreeState(Ledger::FreeState::kIdle, 8.0);
  ledger.Seal(10.0);

  Ledger::Totals totals = ledger.Resolve();
  EXPECT_DOUBLE_EQ(totals.makespan, 10.0);
  EXPECT_DOUBLE_EQ(totals.expected_total, 10.0);
  EXPECT_DOUBLE_EQ(Category(totals, SlotCategory::kUseful), 2.0);
  EXPECT_DOUBLE_EQ(Category(totals, SlotCategory::kWasted), 2.0);
  EXPECT_DOUBLE_EQ(Category(totals, SlotCategory::kSpeculative), 0.0);
  EXPECT_DOUBLE_EQ(Category(totals, SlotCategory::kQueueing), 2.0);
  EXPECT_DOUBLE_EQ(Category(totals, SlotCategory::kProviderWait), 2.0);
  EXPECT_DOUBLE_EQ(Category(totals, SlotCategory::kIdle), 2.0);
  EXPECT_EQ(totals.attempts_completed, 1);
}

TEST(LedgerTest, KilledAndFailedAttemptsAreSpeculative) {
  Ledger ledger(1, 2);
  ledger.OnSlotAcquired(0, 0, 0.0);
  ledger.OnAttemptOutcome(0, 0, 1, Outcome::kKilled);
  ledger.OnSlotReleased(0, 0, 3.0);
  ledger.OnSlotAcquired(0, 1, 1.0);
  ledger.OnAttemptOutcome(0, 1, 1, Outcome::kFailed);
  ledger.OnSlotReleased(0, 1, 5.0);
  ledger.Seal(5.0);

  Ledger::Totals totals = ledger.Resolve();
  EXPECT_DOUBLE_EQ(Category(totals, SlotCategory::kSpeculative), 7.0);
  EXPECT_DOUBLE_EQ(Category(totals, SlotCategory::kUseful), 0.0);
  EXPECT_EQ(totals.attempts_speculative, 2);
  EXPECT_DOUBLE_EQ(totals.sum(), totals.expected_total);
}

TEST(LedgerTest, JobWithoutSatisfiabilityIsAllUseful) {
  // k = 0 or input exhausted first: no satisfiability instant, so the
  // whole attempt counts as useful work.
  Ledger ledger(1, 1);
  ledger.OnSlotAcquired(0, 0, 0.0);
  ledger.OnAttemptOutcome(0, 0, 7, Outcome::kOk);
  ledger.OnSlotReleased(0, 0, 4.0);
  ledger.Seal(4.0);
  Ledger::Totals totals = ledger.Resolve();
  EXPECT_DOUBLE_EQ(Category(totals, SlotCategory::kUseful), 4.0);
  EXPECT_DOUBLE_EQ(Category(totals, SlotCategory::kWasted), 0.0);
}

TEST(LedgerTest, OpenIntervalsAreClampedToTheSeal) {
  // An attempt still running at teardown is charged up to the makespan.
  Ledger ledger(1, 1);
  ledger.OnSlotAcquired(0, 0, 1.0);
  ledger.Seal(3.0);
  Ledger::Totals totals = ledger.Resolve();
  EXPECT_DOUBLE_EQ(Category(totals, SlotCategory::kUseful), 2.0);
  EXPECT_DOUBLE_EQ(totals.sum(), totals.expected_total);
}

TEST(LedgerTest, RandomizedLedgerIsAlwaysExhaustive) {
  // Property: whatever the interleaving of busy intervals, free-state
  // transitions and satisfiability instants, every slot-second of
  // nodes x slots x makespan lands in exactly one category.
  std::mt19937 rng(20120401);
  for (int trial = 0; trial < 200; ++trial) {
    int nodes = 1 + static_cast<int>(rng() % 3);
    int slots = 1 + static_cast<int>(rng() % 3);
    Ledger ledger(nodes, slots);
    std::uniform_real_distribution<double> dt(0.05, 3.0);

    double clock = 0.0;
    for (int step = 0; step < 40; ++step) {
      clock += dt(rng);
      switch (rng() % 4) {
        case 0:
          ledger.OnFreeState(
              static_cast<Ledger::FreeState>(rng() % 3), clock);
          break;
        case 1:
          if (rng() % 2 == 0) {
            ledger.OnSampleSatisfiable(static_cast<int>(rng() % 5), clock);
          }
          break;
        default: {
          // Run one complete attempt on a random slot.
          int node = static_cast<int>(rng() % nodes);
          int slot = static_cast<int>(rng() % slots);
          ledger.OnSlotAcquired(node, slot, clock);
          int job = static_cast<int>(rng() % 5);
          constexpr Outcome kOutcomes[] = {Outcome::kOk, Outcome::kKilled,
                                           Outcome::kFailed};
          ledger.OnAttemptOutcome(node, slot, job, kOutcomes[rng() % 3]);
          clock += dt(rng);
          ledger.OnSlotReleased(node, slot, clock);
          break;
        }
      }
    }
    ledger.Seal(clock + dt(rng));

    // Resolve() itself DMR_CHECKs exhaustiveness; re-assert it here so a
    // failure reports the trial seed instead of aborting.
    Ledger::Totals totals = ledger.Resolve();
    EXPECT_NEAR(totals.sum(), totals.expected_total,
                1e-6 * std::max(1.0, totals.expected_total))
        << "trial " << trial;
    for (int c = 0; c < kNumSlotCategories; ++c) {
      EXPECT_GE(totals.seconds[c], 0.0) << "trial " << trial;
    }
  }
}

TEST(EventGraphTest, ExtractsTheBindingChain) {
  // submit(0) -> provider(1) -> split(2); the attempt at t=5 was gated by
  // the slot release at t=4 (binding), not the split at t=2.
  EventGraph graph;
  graph.Record(At(0.0, LifecycleStep::kSubmit, 1));
  graph.Record(At(1.0, LifecycleStep::kProviderDecision, 1));
  graph.Record(Queued(2.0, 1, 0));
  graph.Record(Launched(0.5, 2, 9, 0, 0));  // another job holds slot
  graph.Record(Ended(4.0, 2, 9, 0, 0, Outcome::kOk));
  graph.Record(Launched(5.0, 1, 0, 0, 0));
  graph.Record(Ended(8.0, 1, 0, 0, 0, Outcome::kOk));
  graph.Record(At(8.0, LifecycleStep::kSampleSatisfiable, 1));
  graph.Record(At(8.5, LifecycleStep::kInputFinalized, 1));
  graph.Record(At(9.0, LifecycleStep::kReduceStart, 1));
  graph.Record(At(10.0, LifecycleStep::kJobComplete, 1));

  std::vector<EventGraph::JobPath> paths = graph.AnalyzeCriticalPaths();
  ASSERT_EQ(paths.size(), 1u);
  const EventGraph::JobPath& path = paths[0];
  EXPECT_EQ(path.job, 1);
  EXPECT_DOUBLE_EQ(path.finish_time, 10.0);
  EXPECT_DOUBLE_EQ(path.response_time, 10.0);

  // The chain crosses into job 2: its attempt-done freed the slot.
  EXPECT_EQ(path.root_job, 2);
  ASSERT_GE(path.steps.size(), 3u);
  EXPECT_EQ(path.steps.back().type, EventGraph::EventType::kJobCompleted);

  // The launch step waited on the slot (queueing), and its slack against
  // the runner-up parent (split added at t=2) is 4 - 2 = 2.
  bool found_launch = false;
  for (const EventGraph::PathStep& step : path.steps) {
    if (step.type == EventGraph::EventType::kAttemptLaunched &&
        step.job == 1) {
      found_launch = true;
      EXPECT_EQ(step.category, EventGraph::EdgeCategory::kQueueing);
      EXPECT_DOUBLE_EQ(step.dur, 1.0);   // 5.0 - 4.0
      EXPECT_DOUBLE_EQ(step.slack, 2.0);  // 4.0 - 2.0
    }
  }
  EXPECT_TRUE(found_launch);

  // The per-category breakdown covers the whole path.
  double breakdown_sum = 0.0;
  for (const std::optional<double>& seconds : path.breakdown) {
    breakdown_sum += seconds.value_or(0.0);
  }
  EXPECT_DOUBLE_EQ(breakdown_sum, path.path_time);

  // And the JSON rendering parses back.
  auto doc = json::JsonParse(graph.AnalysisToJson());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const json::JsonValue* jobs = doc.ValueOrDie().Find("jobs");
  ASSERT_NE(jobs, nullptr);
  EXPECT_EQ(jobs->items.size(), 1u);
}

TEST(EventGraphTest, FailedAttemptRearmsTheSplit) {
  EventGraph graph;
  graph.Record(At(0.0, LifecycleStep::kSubmit, 1));
  graph.Record(Queued(0.0, 1, 0));
  graph.Record(Launched(1.0, 1, 0, 0, 0));
  graph.Record(Ended(2.0, 1, 0, 0, 0, Outcome::kFailed));
  graph.Record(Launched(3.0, 1, 0, 1, 0));
  graph.Record(Ended(5.0, 1, 0, 1, 0, Outcome::kOk));
  graph.Record(At(5.0, LifecycleStep::kJobComplete, 1));

  std::vector<EventGraph::JobPath> paths = graph.AnalyzeCriticalPaths();
  ASSERT_EQ(paths.size(), 1u);
  // The retry's launch hangs off the failure, so the path includes both
  // attempts: submit, split, launch, fail, launch, done, completed.
  EXPECT_EQ(paths[0].steps.size(), 7u);
  EXPECT_EQ(paths[0].root_job, 1);
}

TEST(EventGraphTest, EveryTwoParentEventMatchesTheCapturedAnalysis) {
  // Every event that can have two parents gets both: a provider decision
  // after a map done, launches after a slot release, input finalized after
  // sample satisfiable, a reduce after finalize plus a map done. Job ids
  // arrive out of order (7, 5, 3); job 7's first attempt fails and re-arms
  // its split, and a backup of the retry is killed. The t=6 instant
  // arrives out of canonical order.
  EventGraph graph;
  graph.Record(At(0.0, LifecycleStep::kSubmit, 7));
  graph.Record(At(0.25, LifecycleStep::kSubmit, 5));
  graph.Record(At(0.5, LifecycleStep::kSubmit, 3));
  graph.Record(At(1.0, LifecycleStep::kProviderDecision, 7));
  graph.Record(Queued(1.0, 7, 0));
  graph.Record(Queued(1.0, 7, 1));
  graph.Record(Launched(1.5, 7, 0, 0, 0));
  graph.Record(Launched(1.5, 7, 1, 0, 1));
  graph.Record(Queued(2.0, 3, 0));
  graph.Record(At(2.5, LifecycleStep::kJobComplete, 5));
  graph.Record(Ended(3.0, 7, 0, 0, 0, Outcome::kFailed));
  graph.Record(At(3.0, LifecycleStep::kHeartbeat, -1));
  graph.Record(Launched(3.5, 7, 0, 1, 0));
  graph.Record(Launched(4.0, 3, 0, 0, 0));
  graph.Record(Ended(4.5, 7, 1, 0, 1, Outcome::kOk));
  graph.Record(At(5.0, LifecycleStep::kProviderDecision, 7));
  LifecycleRecord backup = Launched(5.5, 7, 0, 0, 1);
  backup.step = LifecycleStep::kBackupLaunch;
  graph.Record(backup);
  graph.Record(At(6.0, LifecycleStep::kSampleSatisfiable, 7));
  graph.Record(Ended(6.0, 7, 0, 0, 1, Outcome::kKilled));
  graph.Record(Ended(6.0, 7, 0, 1, 0, Outcome::kOk));
  graph.Record(At(6.25, LifecycleStep::kSampleSatisfiable, 7));
  graph.Record(At(6.5, LifecycleStep::kInputFinalized, 7));
  graph.Record(At(7.0, LifecycleStep::kReduceStart, 7));
  graph.Record(At(8.0, LifecycleStep::kJobComplete, 3));
  graph.Record(Ended(8.0, 3, 0, 0, 0, Outcome::kOk));
  graph.Record(At(9.0, LifecycleStep::kJobComplete, 7));

  // A change to how the graph stores events or registries must reproduce
  // this analysis byte for byte.
  const char* kExpected = R"({"jobs": [
      {"job": 5, "finish_time": 2.5, "response_time": 2.25, "path_time": 2.25, "root_job": 5, "root_type": "submit", "breakdown": {"provider": 2.25}, "path_truncated": false, "path": [
        {"event": "submit", "t": 0.25, "job": 5},
        {"event": "job_completed", "t": 2.5, "job": 5, "category": "provider", "dur": 2.25, "slack": 2.25}
      ]},
      {"job": 3, "finish_time": 8, "response_time": 7.5, "path_time": 8, "root_job": 7, "root_type": "submit", "breakdown": {"provider": 1, "queueing": 1.5, "execution": 5.5}, "path_truncated": false, "path": [
        {"event": "submit", "t": 0, "job": 7},
        {"event": "provider_decision", "t": 1, "job": 7, "category": "provider", "dur": 1, "slack": 1},
        {"event": "split_added", "t": 1, "job": 7, "split": 0, "category": "provider", "dur": 0, "slack": 0},
        {"event": "attempt_launched", "t": 1.5, "job": 7, "split": 0, "node": 0, "category": "queueing", "dur": 0.5, "slack": 0.5},
        {"event": "attempt_done", "t": 3, "job": 7, "split": 0, "node": 0, "category": "execution", "dur": 1.5, "slack": 1.5},
        {"event": "attempt_launched", "t": 4, "job": 3, "split": 0, "node": 0, "category": "queueing", "dur": 1, "slack": 1},
        {"event": "attempt_done", "t": 8, "job": 3, "split": 0, "node": 0, "category": "execution", "dur": 4, "slack": 4},
        {"event": "job_completed", "t": 8, "job": 3, "category": "execution", "dur": 0, "slack": 0}
      ]},
      {"job": 7, "finish_time": 9, "response_time": 9, "path_time": 9, "root_job": 7, "root_type": "submit", "breakdown": {"provider": 1.5, "queueing": 1, "execution": 4, "barrier": 0.5, "reduce": 2}, "path_truncated": false, "path": [
        {"event": "submit", "t": 0, "job": 7},
        {"event": "provider_decision", "t": 1, "job": 7, "category": "provider", "dur": 1, "slack": 1},
        {"event": "split_added", "t": 1, "job": 7, "split": 0, "category": "provider", "dur": 0, "slack": 0},
        {"event": "attempt_launched", "t": 1.5, "job": 7, "split": 0, "node": 0, "category": "queueing", "dur": 0.5, "slack": 0.5},
        {"event": "attempt_done", "t": 3, "job": 7, "split": 0, "node": 0, "category": "execution", "dur": 1.5, "slack": 1.5},
        {"event": "attempt_launched", "t": 3.5, "job": 7, "split": 0, "node": 1, "category": "queueing", "dur": 0.5, "slack": 0.5},
        {"event": "attempt_done", "t": 6, "job": 7, "split": 0, "node": 1, "category": "execution", "dur": 2.5, "slack": 2.5},
        {"event": "sample_satisfiable", "t": 6, "job": 7, "category": "barrier", "dur": 0, "slack": 0},
        {"event": "input_finalized", "t": 6.5, "job": 7, "category": "provider", "dur": 0.5, "slack": 1},
        {"event": "reduce_started", "t": 7, "job": 7, "category": "barrier", "dur": 0.5, "slack": 0.5},
        {"event": "job_completed", "t": 9, "job": 7, "category": "reduce", "dur": 2, "slack": 2}
      ]}
    ]})";
  EXPECT_EQ(graph.AnalysisToJson(), kExpected);
}

// --- end-to-end properties over the real simulated cluster ---------------

/// Runs a (policy, z) grid of small single-user sampling jobs with the obs
/// hub installed and `threads` workers, and returns the deterministic
/// ledger + critical-path JSON of the book.
std::pair<std::string, std::string> RunGrid(int threads) {
  struct Cell {
    const char* policy;
    double z;
  };
  const std::vector<Cell> cells = {
      {"HA", 0.0}, {"HA", 2.0}, {"LA", 0.0}, {"LA", 2.0}, {"Hadoop", 1.0}};

  Book book(/*trace=*/true);
  Hub::Install(&book);

  exec::ThreadPool pool(threads);
  auto results = exec::ParallelMap<int>(&pool, cells.size(), [&](size_t i) {
    testbed::Testbed bed(cluster::ClusterConfig::SingleUser());
    bed.Annotate("cell", "grid");
    bed.Annotate("policy", cells[i].policy);
    bed.Annotate("z", cells[i].z);
    auto dataset = *testbed::MakeLineItemDataset(
        &bed.fs(), 5, cells[i].z, 42 + static_cast<uint64_t>(i));
    auto policy = *dynamic::PolicyTable::BuiltIn().Find(cells[i].policy);
    sampling::SamplingJobOptions options;
    options.sample_size = 1000;
    options.seed = 7 + i;
    auto submission = sampling::MakeSamplingJob(
        dataset.file, dataset.matching_per_partition, policy, options);
    EXPECT_TRUE(submission.ok());
    auto stats = bed.RunJobToCompletion(*std::move(submission));
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    return Result<int>(0);
  });
  EXPECT_TRUE(results.ok());

  std::pair<std::string, std::string> json = {book.LedgerJson(),
                                              book.CriticalPathJson()};
  Hub::Uninstall();
  return json;
}

TEST(BookTest, GridLedgersAreExhaustiveAndWellFormed) {
  auto [ledger_json, cp_json] = RunGrid(/*threads=*/1);

  auto doc = json::JsonParse(ledger_json);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const json::JsonValue* cells = doc.ValueOrDie().Find("cells");
  ASSERT_NE(cells, nullptr);
  ASSERT_EQ(cells->items.size(), 5u);
  for (const json::JsonValue& cell : cells->items) {
    double expected = cell.NumberOr("nodes", 0) *
                      cell.NumberOr("map_slots_per_node", 0) *
                      cell.NumberOr("makespan", 0);
    EXPECT_NEAR(cell.NumberOr("total_slot_seconds", -1), expected,
                1e-6 * std::max(1.0, expected));
    const json::JsonValue* categories = cell.Find("categories");
    ASSERT_NE(categories, nullptr);
    double sum = 0.0;
    int count = 0;
    for (const auto& [name, value] : categories->members) {
      sum += value.number_value;
      ++count;
    }
    EXPECT_EQ(count, kNumSlotCategories);
    // The invariant the ledger exists for: categories partition the total.
    EXPECT_NEAR(sum, expected, 1e-6 * std::max(1.0, expected));
    // A single-user run does real work.
    EXPECT_GT(categories->NumberOr("useful", 0.0), 0.0);
  }

  auto cp_doc = json::JsonParse(cp_json);
  ASSERT_TRUE(cp_doc.ok()) << cp_doc.status().ToString();
  ASSERT_NE(cp_doc.ValueOrDie().Find("cells"), nullptr);
  EXPECT_EQ(cp_doc.ValueOrDie().Find("cells")->items.size(), 5u);
}

TEST(BookTest, GridJsonIsByteIdenticalAcrossThreadCounts) {
  auto serial = RunGrid(/*threads=*/1);
  auto parallel = RunGrid(/*threads=*/4);
  EXPECT_EQ(serial.first, parallel.first);
  EXPECT_EQ(serial.second, parallel.second);
}

}  // namespace
}  // namespace dmr::obs
