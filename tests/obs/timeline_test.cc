/// \file
/// Timeline + SloMonitor unit tests: probe ring semantics (points, rates,
/// eviction-proof summaries), sliding-window percentile rolls, SLO breach
/// instants / error-budget burn, and the determinism contract — the
/// emitted JSON must be byte-identical across {calendar, heap} x
/// tie-shuffle seeds (DESIGN.md §15).

#include "obs/timeline.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "sim/simulation.h"

namespace dmr::obs {
namespace {

using dmr::sim::EventClass;
using dmr::sim::QueueKind;
using dmr::sim::Simulation;
using dmr::sim::SimulationOptions;

/// The HDR bucket edge an observation actually lands on — windowed
/// percentiles answer bucket lower edges, not raw values.
double Edge(double value) {
  return HistogramData::BucketLowerEdge(HistogramData::BucketFor(value));
}

TEST(TimelineTest, ProbePointsCarryValuesAndRates) {
  Timeline tl;
  double gauge = 5.0;
  double counter = 0.0;
  tl.AddProbe("g", "items", Timeline::SeriesKind::kGauge,
              [&gauge] { return gauge; });
  tl.AddProbe("c", "events", Timeline::SeriesKind::kCounter,
              [&counter] { return counter; });

  gauge = 7.0;
  counter = 10.0;
  tl.Sample(1.0);
  gauge = 3.0;
  counter = 30.0;
  tl.Sample(2.0);

  double out = 0.0;
  ASSERT_TRUE(tl.LatestProbeValue("g", &out));
  EXPECT_DOUBLE_EQ(out, 3.0);
  ASSERT_TRUE(tl.LatestProbeValue("c", &out));
  EXPECT_DOUBLE_EQ(out, 30.0);
  EXPECT_FALSE(tl.LatestProbeValue("unknown", &out));

  tl.Seal(2.0);
  auto doc = json::JsonParse(tl.ToJson());
  ASSERT_TRUE(doc.ok()) << doc.status().message();
  const json::JsonValue* series = doc->Find("series");
  ASSERT_NE(series, nullptr);
  ASSERT_EQ(series->items.size(), 2u);
  // Sorted by name: "c" first.
  const json::JsonValue* c_points = series->items[0].Find("points");
  ASSERT_NE(c_points, nullptr);
  ASSERT_EQ(c_points->items.size(), 2u);
  // Counter rate is the delta per simulated second: (30 - 10) / 1.0.
  EXPECT_DOUBLE_EQ(c_points->items[1].items[0].number_value, 2.0);
  EXPECT_DOUBLE_EQ(c_points->items[1].items[1].number_value, 30.0);
  EXPECT_DOUBLE_EQ(c_points->items[1].items[2].number_value, 20.0);
}

TEST(TimelineTest, RingEvictionKeepsWholeRunSummary) {
  TimelineOptions options;
  options.max_ticks = 2;
  Timeline tl(options);
  double value = 0.0;
  tl.AddProbe("v", "items", Timeline::SeriesKind::kGauge,
              [&value] { return value; });
  // Values 10, 40, 20, 30, 25 at t = 1..5: the max (40 at t=2) falls off
  // the two-point ring, so only the summary can still report it.
  const double values[] = {10.0, 40.0, 20.0, 30.0, 25.0};
  for (int i = 0; i < 5; ++i) {
    value = values[i];
    tl.Sample(static_cast<double>(i + 1));
  }
  EXPECT_EQ(tl.ticks(), 5u);
  EXPECT_EQ(tl.dropped_ticks(), 3u);

  tl.Seal(5.0);
  auto doc = json::JsonParse(tl.ToJson());
  ASSERT_TRUE(doc.ok()) << doc.status().message();
  const json::JsonValue* series = doc->Find("series");
  ASSERT_NE(series, nullptr);
  ASSERT_EQ(series->items.size(), 1u);
  const json::JsonValue* points = series->items[0].Find("points");
  ASSERT_NE(points, nullptr);
  EXPECT_EQ(points->items.size(), 2u);  // ring keeps the last max_ticks
  const json::JsonValue* summary = series->items[0].Find("summary");
  ASSERT_NE(summary, nullptr);
  EXPECT_DOUBLE_EQ(summary->NumberOr("ticks", 0.0), 5.0);
  EXPECT_DOUBLE_EQ(summary->NumberOr("min", 0.0), 10.0);
  EXPECT_DOUBLE_EQ(summary->NumberOr("max", 0.0), 40.0);
  EXPECT_DOUBLE_EQ(summary->NumberOr("t_at_max", 0.0), 2.0);
  EXPECT_DOUBLE_EQ(summary->NumberOr("mean", 0.0), 25.0);
  EXPECT_DOUBLE_EQ(summary->NumberOr("last", 0.0), 25.0);
}

TEST(TimelineTest, WindowedPercentilesSlideAndEvict) {
  TimelineOptions options;
  options.windows = {2.0};
  Timeline tl(options);
  Timeline::WindowedId lat = tl.AddWindowed("lat", "s");

  // One slow observation in tick 1, fast ones afterwards: the 2-tick
  // window must forget the 100 once tick 3 closes.
  tl.Observe(lat, 100.0);
  tl.Observe(lat, 10.0);
  tl.Sample(1.0);
  double p99 = 0.0;
  ASSERT_TRUE(tl.LatestWindowStat("lat", 2.0, 99.0, &p99));
  EXPECT_DOUBLE_EQ(p99, Edge(100.0));

  tl.Observe(lat, 10.0);
  tl.Sample(2.0);
  ASSERT_TRUE(tl.LatestWindowStat("lat", 2.0, 99.0, &p99));
  EXPECT_DOUBLE_EQ(p99, Edge(100.0));  // window covers ticks {1, 2}

  tl.Observe(lat, 10.0);
  tl.Sample(3.0);
  ASSERT_TRUE(tl.LatestWindowStat("lat", 2.0, 99.0, &p99));
  EXPECT_DOUBLE_EQ(p99, Edge(10.0));  // the 100 slid out

  double p50 = 0.0;
  ASSERT_TRUE(tl.LatestWindowStat("lat", 2.0, 50.0, &p50));
  EXPECT_DOUBLE_EQ(p50, Edge(10.0));
  EXPECT_FALSE(tl.LatestWindowStat("lat", 60.0, 99.0, &p99));  // no window
  EXPECT_FALSE(tl.LatestWindowStat("nope", 2.0, 99.0, &p99));

  // Whole-run window summary keeps the peak even after it slid out.
  tl.Seal(3.0);
  auto doc = json::JsonParse(tl.ToJson());
  ASSERT_TRUE(doc.ok()) << doc.status().message();
  const json::JsonValue* windowed = doc->Find("windowed");
  ASSERT_NE(windowed, nullptr);
  ASSERT_EQ(windowed->items.size(), 1u);
  const json::JsonValue* windows = windowed->items[0].Find("windows");
  ASSERT_NE(windows, nullptr);
  ASSERT_EQ(windows->items.size(), 1u);
  const json::JsonValue* summary = windows->items[0].Find("summary");
  ASSERT_NE(summary, nullptr);
  EXPECT_DOUBLE_EQ(summary->NumberOr("p99_max", 0.0), Edge(100.0));
  EXPECT_DOUBLE_EQ(summary->NumberOr("count_max", 0.0), 3.0);
}

TEST(TimelineTest, InvalidWindowedIdIsIgnored) {
  Timeline tl;
  Timeline::WindowedId bogus;  // default: invalid
  EXPECT_FALSE(bogus.valid());
  tl.Observe(bogus, 1.0);  // must not crash or record anything
  tl.Sample(1.0);
  EXPECT_EQ(tl.ticks(), 1u);
}

TEST(TimelineTest, DuplicateRegistrationsDedupeByName) {
  Timeline tl;
  double a = 1.0;
  tl.AddProbe("p", "x", Timeline::SeriesKind::kGauge, [&a] { return a; });
  tl.AddProbe("p", "x", Timeline::SeriesKind::kGauge, [] { return 99.0; });
  Timeline::WindowedId w1 = tl.AddWindowed("w", "s");
  Timeline::WindowedId w2 = tl.AddWindowed("w", "s");
  EXPECT_EQ(w1.index, w2.index);
  tl.Sample(1.0);
  double out = 0.0;
  ASSERT_TRUE(tl.LatestProbeValue("p", &out));
  EXPECT_DOUBLE_EQ(out, 1.0);  // first registration won
}

TEST(SloMonitorTest, BreachInstantsAndBudgetBurn) {
  TimelineOptions options;
  options.windows = {2.0};
  Timeline tl(options);
  Timeline::WindowedId lat = tl.AddWindowed("lat", "s");
  FlightRecorder flight(16);
  SloMonitor slo(&tl);
  slo.AttachFlightRecorder(&flight);
  SloRule rule;
  rule.name = "lat_p99";
  rule.series = "lat";
  rule.window = 2.0;
  rule.quantile = 99.0;
  rule.max_value = 50.0;
  rule.budget_fraction = 0.5;
  ASSERT_EQ(slo.AddRule(rule), 0);

  auto step = [&](double t, double value) {
    tl.Observe(lat, value);
    tl.Sample(t);
    slo.Evaluate(t);
  };

  step(1.0, 10.0);   // ok
  step(2.0, 100.0);  // breach instant (burn 1/2 == budget: not yet burned)
  ASSERT_EQ(slo.breaches().size(), 1u);
  EXPECT_DOUBLE_EQ(slo.breaches()[0].t, 2.0);
  EXPECT_EQ(slo.breaches()[0].rule, 0);
  EXPECT_FALSE(slo.breaches()[0].burn);
  EXPECT_DOUBLE_EQ(slo.breaches()[0].measured, Edge(100.0));

  step(3.0, 100.0);  // still in breach: no new instant, but 2/3 > 0.5 burns
  ASSERT_EQ(slo.breaches().size(), 2u);
  EXPECT_DOUBLE_EQ(slo.breaches()[1].t, 3.0);
  EXPECT_TRUE(slo.breaches()[1].burn);
  EXPECT_DOUBLE_EQ(slo.breaches()[1].measured, 2.0 / 3.0);

  step(4.0, 100.0);  // sustained: burn is latched, nothing new
  EXPECT_EQ(slo.breaches().size(), 2u);

  // Recovery (window forgets the 100s), then a fresh crossing is a fresh
  // instant.
  step(5.0, 10.0);  // window {4,5} still holds tick 4's 100
  step(6.0, 10.0);  // window {5,6}: recovered
  step(7.0, 100.0);
  ASSERT_EQ(slo.breaches().size(), 3u);
  EXPECT_DOUBLE_EQ(slo.breaches()[2].t, 7.0);
  EXPECT_FALSE(slo.breaches()[2].burn);

  // Both the threshold crossings and the burn landed in the recorder.
  std::vector<FlightEvent> events = flight.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  for (const FlightEvent& ev : events) {
    EXPECT_EQ(ev.kind, FlightEventKind::kSloBreach);
    EXPECT_EQ(ev.detail, 0);  // rule index
  }
  EXPECT_DOUBLE_EQ(events[0].t, 2.0);
  EXPECT_DOUBLE_EQ(events[1].t, 3.0);
  EXPECT_DOUBLE_EQ(events[2].t, 7.0);
}

/// Runs the reference event program against one {queue, seed}
/// combination and returns the sealed timeline + SLO JSON. The program
/// interleaves observations with background events, and plants
/// same-instant bookkeeping-vs-telemetry ties at every tick to exercise
/// the EventClass ordering that makes sampling tie-order independent.
std::string RunTimelineProgram(QueueKind kind, uint64_t shuffle_seed) {
  SimulationOptions options;
  options.queue = kind;
  Simulation sim(options);
  if (shuffle_seed != 0) sim.EnableTieShuffle(shuffle_seed);

  TimelineOptions tl_options;
  tl_options.windows = {2.0, 4.0};
  tl_options.max_ticks = 4;  // eviction must be identical too
  Timeline timeline(tl_options);
  Timeline::WindowedId lat = timeline.AddWindowed("task.latency", "s");
  // Counting observations is exactly the kind of cell-local state real
  // drivers expose.
  double observed = 0.0;
  timeline.AddProbe("cell.observations", "events",
                    Timeline::SeriesKind::kCounter,
                    [&observed] { return observed; });
  SloMonitor slo(&timeline);
  SloRule rule;
  rule.name = "lat_p99";
  rule.series = "task.latency";
  rule.window = 2.0;
  rule.quantile = 99.0;
  rule.max_value = 6.0;
  rule.budget_fraction = 0.5;
  slo.AddRule(rule);

  for (int i = 0; i < 40; ++i) {
    // Observations land at tick boundaries ON PURPOSE: a kBookkeeping
    // event tied with the kTelemetry tick at the same instant must fire
    // first (class order), so which tick an observation belongs to never
    // depends on tie resolution.
    const double t = 1.0 + static_cast<double>(i % 8);
    const double value = static_cast<double>((i * 7) % 11);
    sim.ScheduleDetachedAt(t, EventClass::kBookkeeping,
                           [&timeline, &observed, lat, value]() {
                             timeline.Observe(lat, value);
                             observed += 1.0;
                           });
    sim.ScheduleDetachedAt(0.25 + 0.2 * i, EventClass::kDefault, []() {});
  }
  for (double t = 1.0; t <= 8.0; t += 1.0) {
    sim.ScheduleDetachedAt(t, EventClass::kTelemetry,
                           [&timeline, &slo, &sim]() {
                             timeline.Sample(sim.Now());
                             slo.Evaluate(sim.Now());
                           });
  }

  sim.RunUntil(9.0);
  timeline.Seal(9.0);
  return timeline.ToJson() + "\n" + slo.ToJson();
}

TEST(TimelineTest, JsonIsByteIdenticalAcrossQueuesAndSeeds) {
  const std::string reference =
      RunTimelineProgram(QueueKind::kBinaryHeap, /*shuffle_seed=*/0);
  ASSERT_NE(reference.find("task.latency"), std::string::npos);
  ASSERT_NE(reference.find("breaches"), std::string::npos);
  for (QueueKind kind : {QueueKind::kCalendar, QueueKind::kBinaryHeap}) {
    for (uint64_t seed : {uint64_t{0}, uint64_t{11}, uint64_t{23}}) {
      EXPECT_EQ(RunTimelineProgram(kind, seed), reference)
          << "queue=" << (kind == QueueKind::kCalendar ? "calendar" : "heap")
          << " seed=" << seed;
    }
  }
}

}  // namespace
}  // namespace dmr::obs
