#include "obs/metrics.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "exec/parallel.h"

namespace dmr::obs {
namespace {

TEST(MetricsRegistryTest, RegistrationDedupesByName) {
  MetricsRegistry registry;
  CounterHandle a = registry.RegisterCounter("mapred.heartbeats");
  CounterHandle b = registry.RegisterCounter("mapred.heartbeats");
  EXPECT_EQ(a.index, b.index);
  HistogramHandle h1 = registry.RegisterHistogram("task_wait", "s");
  HistogramHandle h2 = registry.RegisterHistogram("task_wait", "s");
  EXPECT_EQ(h1.index, h2.index);
  EXPECT_NE(registry.RegisterCounter("other").index, a.index);
}

TEST(MetricsRegistryTest, InvalidHandlesAreNoOps) {
  MetricsRegistry registry;
  registry.Add(CounterHandle{});
  registry.Set(GaugeHandle{}, 1.0);
  registry.Observe(HistogramHandle{}, 1.0);
  MetricsRegistry::Snapshot snap = registry.TakeSnapshot();
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.gauges.empty());
  EXPECT_TRUE(snap.histograms.empty());
}

TEST(MetricsRegistryTest, SnapshotAggregatesAndSortsByName) {
  MetricsRegistry registry;
  CounterHandle zebra = registry.RegisterCounter("zebra");
  CounterHandle alpha = registry.RegisterCounter("alpha");
  GaugeHandle gauge = registry.RegisterGauge("selectivity");
  HistogramHandle hist = registry.RegisterHistogram("wait", "sim_s");

  registry.Add(zebra, 3);
  registry.Add(alpha);
  registry.Add(alpha, 4);
  registry.Set(gauge, 0.25);
  registry.Set(gauge, 0.5);  // last write wins
  for (int i = 1; i <= 4; ++i) registry.Observe(hist, static_cast<double>(i));

  MetricsRegistry::Snapshot snap = registry.TakeSnapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "alpha");  // sorted, registration order was zebra first
  EXPECT_EQ(snap.counters[0].second, 5);
  EXPECT_EQ(snap.counters[1].first, "zebra");
  EXPECT_EQ(snap.counters[1].second, 3);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].second, 0.5);

  const MetricsRegistry::HistogramSnapshot* h = snap.FindHistogram("wait");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->unit, "sim_s");
  EXPECT_EQ(h->count, 4u);
  EXPECT_DOUBLE_EQ(h->min, 1.0);
  EXPECT_DOUBLE_EQ(h->max, 4.0);
  EXPECT_DOUBLE_EQ(h->sum, 10.0);
  EXPECT_EQ(snap.FindCounter("alpha") != nullptr, true);
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

/// The tentpole determinism property: histogram state merged across
/// per-thread shards must match a serial run observing the same multiset
/// of values, bit for bit, regardless of which worker recorded what.
TEST(MetricsRegistryTest, ShardMergeIsDeterministicUnderParallelFor) {
  auto value_for = [](size_t task, int rep) {
    // A deterministic, wide-spread multiset of latencies.
    return 0.001 * static_cast<double>((task * 37 + rep * 11) % 997 + 1);
  };
  constexpr size_t kTasks = 2048;
  constexpr int kReps = 16;

  MetricsRegistry serial;
  CounterHandle serial_events = serial.RegisterCounter("events");
  HistogramHandle serial_latency = serial.RegisterHistogram("latency", "s");
  for (size_t t = 0; t < kTasks; ++t) {
    for (int r = 0; r < kReps; ++r) {
      serial.Add(serial_events);
      serial.Observe(serial_latency, value_for(t, r));
    }
  }
  MetricsRegistry::Snapshot expected = serial.TakeSnapshot();

  MetricsRegistry parallel;
  CounterHandle events = parallel.RegisterCounter("events");
  HistogramHandle latency = parallel.RegisterHistogram("latency", "s");
  exec::ThreadPool pool(8);
  Status status = exec::ParallelFor(&pool, kTasks, [&](size_t t) {
    for (int r = 0; r < kReps; ++r) {
      parallel.Add(events);
      parallel.Observe(latency, value_for(t, r));
    }
    return Status::OK();
  });
  ASSERT_TRUE(status.ok());
  // The work must actually have been sharded for this test to mean much.
  EXPECT_GE(parallel.num_shards(), 2u);

  MetricsRegistry::Snapshot got = parallel.TakeSnapshot();
  ASSERT_EQ(got.counters.size(), expected.counters.size());
  EXPECT_EQ(*got.FindCounter("events"),
            static_cast<int64_t>(kTasks) * kReps);
  EXPECT_EQ(*got.FindCounter("events"), *expected.FindCounter("events"));

  const auto* got_hist = got.FindHistogram("latency");
  const auto* want_hist = expected.FindHistogram("latency");
  ASSERT_NE(got_hist, nullptr);
  ASSERT_NE(want_hist, nullptr);
  EXPECT_EQ(got_hist->count, want_hist->count);
  EXPECT_DOUBLE_EQ(got_hist->min, want_hist->min);
  EXPECT_DOUBLE_EQ(got_hist->max, want_hist->max);
  EXPECT_DOUBLE_EQ(got_hist->p50, want_hist->p50);
  EXPECT_DOUBLE_EQ(got_hist->p95, want_hist->p95);
  EXPECT_DOUBLE_EQ(got_hist->p99, want_hist->p99);
  // The sum is exact, so the shard split and merge order cannot move it.
  EXPECT_EQ(got_hist->sum, want_hist->sum);
  EXPECT_EQ(got_hist->mean, want_hist->mean);
}

TEST(MetricsRegistryTest, TwoRegistriesDoNotShareShards) {
  // The thread-local shard cache is keyed by registry id; interleaved use
  // of two registries from one thread must keep their data separate.
  MetricsRegistry first;
  MetricsRegistry second;
  CounterHandle c1 = first.RegisterCounter("x");
  CounterHandle c2 = second.RegisterCounter("x");
  for (int i = 0; i < 10; ++i) {
    first.Add(c1);
    second.Add(c2, 100);
  }
  EXPECT_EQ(*first.TakeSnapshot().FindCounter("x"), 10);
  EXPECT_EQ(*second.TakeSnapshot().FindCounter("x"), 1000);
}

}  // namespace
}  // namespace dmr::obs
