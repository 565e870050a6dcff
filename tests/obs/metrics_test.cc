#include "obs/metrics.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

namespace dmr::obs {
namespace {

TEST(MetricsTest, SnapshotSumsAndSortsByName) {
  Metrics metrics;
  metrics.Add(Counter::kMapsLaunched, 3);
  metrics.Add(Counter::kHeartbeats);
  metrics.Add(Counter::kHeartbeats, 4);
  metrics.Set(Gauge::kSelectivityEstimate, 0.25);
  metrics.Set(Gauge::kSelectivityEstimate, 0.5);  // the most recent set wins
  for (int i = 1; i <= 4; ++i) {
    metrics.Observe(Histogram::kTaskWait, static_cast<double>(i));
  }

  Metrics::Snapshot snap = metrics.TakeSnapshot();
  // Every metric of the fixed table is listed, sorted by name.
  ASSERT_EQ(snap.counters.size(), static_cast<size_t>(kNumCounters));
  ASSERT_EQ(snap.gauges.size(), static_cast<size_t>(kNumGauges));
  ASSERT_EQ(snap.histograms.size(), static_cast<size_t>(kNumHistograms));
  EXPECT_TRUE(std::is_sorted(snap.counters.begin(), snap.counters.end()));
  EXPECT_EQ(snap.counters[0].first, "dfs.bytes_placed");
  EXPECT_EQ(*snap.FindCounter("mapred.heartbeats"), 5);
  EXPECT_EQ(*snap.FindCounter("mapred.maps_launched"), 3);
  EXPECT_EQ(*snap.FindCounter("mapred.jobs_completed"), 0);
  EXPECT_EQ(snap.gauges[1].first, "provider.selectivity_estimate");
  EXPECT_DOUBLE_EQ(snap.gauges[1].second, 0.5);

  const Metrics::HistogramSnapshot* h = snap.FindHistogram("mapred.task_wait");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->unit, "sim_s");
  EXPECT_EQ(h->count, 4u);
  EXPECT_DOUBLE_EQ(h->min, 1.0);
  EXPECT_DOUBLE_EQ(h->max, 4.0);
  EXPECT_DOUBLE_EQ(h->sum, 10.0);
  EXPECT_EQ(snap.FindCounter("missing"), nullptr);
}

TEST(HistogramDataTest, PercentilesAreAccurateWithinBucketPrecision) {
  HistogramData hist;
  for (int i = 1; i <= 1000; ++i) hist.Observe(static_cast<double>(i));
  EXPECT_EQ(hist.count(), 1000u);
  // 32 sub-buckets per octave => <= ~3.2 % relative error at the bucket
  // lower edge; allow 5 %.
  EXPECT_NEAR(hist.Percentile(50.0), 500.0, 25.0);
  EXPECT_NEAR(hist.Percentile(95.0), 950.0, 48.0);
  EXPECT_NEAR(hist.Percentile(99.0), 990.0, 50.0);
  EXPECT_DOUBLE_EQ(hist.Percentile(0.0), 1.0);     // clamped to min
  EXPECT_DOUBLE_EQ(hist.Percentile(100.0), 1000.0);  // clamped to max
}

TEST(HistogramDataTest, HandlesDegenerateValues) {
  HistogramData hist;
  hist.Observe(0.0);
  hist.Observe(-5.0);  // underflow bucket
  hist.Observe(1e-30);
  hist.Observe(1e30);
  EXPECT_EQ(hist.count(), 4u);
  EXPECT_DOUBLE_EQ(hist.min(), -5.0);
  EXPECT_DOUBLE_EQ(hist.max(), 1e30);
}

TEST(HistogramDataTest, SumIsExactInAnyOrder) {
  // In floating point, 1e16 + 1 - 1e16 is 0 or 2 depending on the order;
  // the exact sum is 1 (the 1e-300 rounds away) in every order, and
  // merging two halves agrees.
  const std::vector<double> values = {1e16, 1.0, -1e16, 0.1, -0.1, 1e-300};
  std::vector<double> order = values;
  std::sort(order.begin(), order.end());
  do {
    HistogramData hist;
    for (double v : order) hist.Observe(v);
    EXPECT_EQ(hist.sum(), 1.0);
    HistogramData left;
    HistogramData right;
    for (size_t i = 0; i < order.size(); ++i) {
      (i % 2 == 0 ? left : right).Observe(order[i]);
    }
    right.MergeFrom(left);
    EXPECT_EQ(right.sum(), hist.sum());
  } while (std::next_permutation(order.begin(), order.end()));

  HistogramData negative;
  negative.Observe(-2.5);
  negative.Observe(-0.25);
  EXPECT_EQ(negative.sum(), -2.75);
  EXPECT_EQ(negative.Mean(), -1.375);

  HistogramData special;
  special.Observe(1.0);
  special.Observe(std::numeric_limits<double>::infinity());
  EXPECT_EQ(special.sum(), std::numeric_limits<double>::infinity());
}

}  // namespace
}  // namespace dmr::obs
