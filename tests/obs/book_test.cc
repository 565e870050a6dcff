/// \file
/// obs::Book: one cell per simulated cluster. Cells opened, recorded into
/// and sealed from pool workers in any order must render the same metrics,
/// ledger, critical-path and timeline documents as serial creation, and
/// the run's gauges keep their most recent set.

#include "obs/book.h"

#include <algorithm>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/parallel.h"
#include "obs/report.h"

namespace dmr::obs {
namespace {

constexpr int kCells = 16;

/// Opens, fills and seals cell `i`: one job of two splits on a 2-node,
/// 1-slot cluster, a timing that depends on `i`, and eight timeline ticks.
void RunCell(Book* book, int i) {
  Cell* cell = book->NewCell(/*num_nodes=*/2, /*map_slots_per_node=*/1);
  cell->Annotate("cell", "book");
  cell->Annotate("i", std::to_string(100 + i));  // sorts like i
  Ledger* ledger = cell->ledger();
  const double t0 = 0.25 * i;
  const double launch = t0 + 1.0;
  const double first_end = launch + 1.0 + 0.125 * i;
  const double second_end = launch + 2.5;
  const double complete = second_end + 0.5;

  cell->Record({.step = LifecycleStep::kSubmit, .t = t0, .job = 0,
                .user = "u"});
  cell->Record({.step = LifecycleStep::kProviderDecision,
                .outcome = Outcome::kGrow, .initial = true, .t = t0,
                .job = 0, .count = 2});
  cell->Record({.step = LifecycleStep::kSplitsAdded, .t = t0, .job = 0,
                .count = 2});
  for (int split = 0; split < 2; ++split) {
    cell->Record({.step = LifecycleStep::kSplitQueued, .t = t0, .job = 0,
                  .split = split, .home = split});
  }
  cell->Record({.step = LifecycleStep::kDemand, .demand = FreeState::kQueue,
                .t = t0});
  for (int node = 0; node < 2; ++node) {
    ledger->OnSlotAcquired(node, 0, launch);
    cell->Record({.step = LifecycleStep::kMapLaunch, .t = launch, .job = 0,
                  .split = node, .node = node, .slot = 0, .start = t0});
  }
  cell->Record({.step = LifecycleStep::kDemand, .demand = FreeState::kIdle,
                .t = launch});
  const double ends[2] = {first_end, second_end};
  for (int node = 0; node < 2; ++node) {
    cell->Record({.step = LifecycleStep::kAttemptEnd, .outcome = Outcome::kOk,
                  .local = true, .t = ends[node], .job = 0, .split = node,
                  .node = node, .slot = 0, .home = node, .start = launch});
    ledger->OnSlotReleased(node, 0, ends[node]);
    if (node == 0) {
      cell->Record({.step = LifecycleStep::kSampleSatisfiable,
                    .t = ends[node], .job = 0});
    }
  }
  cell->Record({.step = LifecycleStep::kInputFinalized, .t = second_end,
                .job = 0});
  cell->Record({.step = LifecycleStep::kReduceStart, .t = second_end,
                .job = 0, .node = 0});
  cell->Record({.step = LifecycleStep::kJobComplete, .t = complete, .job = 0,
                .node = 0, .start = t0, .user = "u"});
  for (int tick = 1; tick <= 8; ++tick) {
    cell->timeline()->Sample(tick);
    cell->slo()->Evaluate(tick);
  }
  book->Seal(cell, complete + 1.0);
}

/// The metrics report, ledger, critical-path and timeline documents.
std::vector<std::string> Documents(const Book& book) {
  Report report;
  report.SetSnapshot(book.TakeSnapshot());
  return {report.ToJson(), book.LedgerJson(), book.CriticalPathJson(),
          book.TimelineJson()};
}

TEST(BookTest, ShuffledParallelCellsMatchSerialCreation) {
  Book serial(/*trace=*/false, TimelineOptions());
  for (int i = 0; i < kCells; ++i) RunCell(&serial, i);
  const std::vector<std::string> expected = Documents(serial);
  ASSERT_NE(expected[1].find("\"i\": \"115\""), std::string::npos);

  std::vector<int> order(kCells);
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), std::mt19937(7));
  Book parallel(/*trace=*/false, TimelineOptions());
  exec::ThreadPool pool(4);
  Status status = exec::ParallelFor(&pool, kCells, [&](size_t k) {
    RunCell(&parallel, order[k]);
    return Status::OK();
  });
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(parallel.num_cells(), static_cast<size_t>(kCells));

  const std::vector<std::string> got = Documents(parallel);
  ASSERT_EQ(got.size(), expected.size());
  for (size_t d = 0; d < got.size(); ++d) {
    EXPECT_EQ(got[d], expected[d]) << "document " << d;
  }
  // The metrics fold every sealed cell.
  const Metrics::Snapshot snap = serial.TakeSnapshot();
  const int64_t* jobs = snap.FindCounter("mapred.jobs_completed");
  ASSERT_NE(jobs, nullptr);
  EXPECT_EQ(*jobs, kCells);
}

TEST(BookTest, GaugeKeepsItsMostRecentSet) {
  // A book that opened no cell reports no metrics.
  EXPECT_TRUE(Book().TakeSnapshot().gauges.empty());

  Book book;
  Cell* a = book.NewCell(1, 1);
  Cell* b = book.NewCell(1, 1);
  a->SetGauge(Gauge::kObservedSkewCv, 0.25);
  b->SetGauge(Gauge::kObservedSkewCv, 0.75);
  a->SetGauge(Gauge::kSelectivityEstimate, 0.5);
  a->SetGauge(Gauge::kSelectivityEstimate, 0.125);
  // Sealing order does not matter: b set the skew gauge last.
  book.Seal(b, 1.0);
  book.Seal(a, 2.0);
  Metrics::Snapshot snap = book.TakeSnapshot();
  ASSERT_EQ(snap.gauges.size(), 2u);
  EXPECT_EQ(snap.gauges[0].first, "provider.observed_skew_cv");
  EXPECT_EQ(snap.gauges[0].second, 0.75);
  EXPECT_EQ(snap.gauges[1].second, 0.125);

  // A cell still open counts too, and its newer set wins.
  Cell* c = book.NewCell(1, 1);
  c->SetGauge(Gauge::kObservedSkewCv, 2.0);
  EXPECT_EQ(book.TakeSnapshot().gauges[0].second, 2.0);
  book.Seal(c, 3.0);
  EXPECT_EQ(book.TakeSnapshot().gauges[0].second, 2.0);
}

}  // namespace
}  // namespace dmr::obs
