/// \file
/// End-to-end observability test: runs the Figure 5 single-user scenario
/// (one sampling job on the 10-node paper cluster) with the global obs hub
/// installed and asserts that the emitted trace spans and metric counters
/// agree with the job's own statistics.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "mapred/job_history.h"
#include "obs/book.h"
#include "obs/report.h"
#include "sampling/sampling_job.h"
#include "testbed/testbed.h"
#include "tpch/dataset_catalog.h"

namespace dmr::testbed {
namespace {

using json::JsonParse;
using json::JsonValue;

/// RAII hub session so failed assertions cannot leak the global install
/// into later tests.
class HubSession {
 public:
  HubSession() { obs::Hub::Install(&book); }
  ~HubSession() { obs::Hub::Uninstall(); }
  obs::Book book{/*trace=*/true};
};

mapred::JobStats RunFig5Cell() {
  Testbed bed(cluster::ClusterConfig::SingleUser());
  auto dataset = *MakeLineItemDataset(&bed.fs(), 5, 1.0, 42);
  auto policy = *dynamic::PolicyTable::BuiltIn().Find("LA");
  sampling::SamplingJobOptions options;
  options.sample_size = 1000;
  options.seed = 7;
  auto submission = sampling::MakeSamplingJob(
      dataset.file, dataset.matching_per_partition, policy, options);
  EXPECT_TRUE(submission.ok());
  auto stats = bed.RunJobToCompletion(*std::move(submission));
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  return *stats;
}

int CountEvents(const std::vector<JsonValue>& events, const std::string& ph,
                const std::string& cat) {
  int n = 0;
  for (const auto& e : events) {
    if (e.StringOr("ph", "") == ph && e.StringOr("cat", "") == cat) ++n;
  }
  return n;
}

TEST(ObsIntegrationTest, TraceSpansMatchTaskCounts) {
  HubSession hub;
  mapred::JobStats stats = RunFig5Cell();

  obs::Metrics::Snapshot snap = hub.book.TakeSnapshot();
  const int64_t* launched = snap.FindCounter("mapred.maps_launched");
  const int64_t* completed = snap.FindCounter("mapred.maps_completed");
  const int64_t* failed = snap.FindCounter("mapred.maps_failed");
  const int64_t* backups = snap.FindCounter("mapred.backups_launched");
  const int64_t* splits = snap.FindCounter("mapred.splits_added");
  ASSERT_NE(launched, nullptr);
  ASSERT_NE(completed, nullptr);
  // The job's own accounting and the obs counters must agree.
  EXPECT_EQ(*completed, stats.splits_processed);
  EXPECT_EQ(*launched, *completed + *failed + *backups);
  EXPECT_EQ(*splits, stats.splits_processed);
  EXPECT_EQ(*snap.FindCounter("mapred.jobs_submitted"), 1);
  EXPECT_EQ(*snap.FindCounter("mapred.jobs_completed"), 1);
  EXPECT_EQ(*snap.FindCounter("mapred.reduces_launched"), 1);

  // Latency histograms: one task_wait sample per primary map launch, one
  // task_run per finished attempt.
  const auto* wait = snap.FindHistogram("mapred.task_wait");
  const auto* run = snap.FindHistogram("mapred.task_run");
  ASSERT_NE(wait, nullptr);
  ASSERT_NE(run, nullptr);
  EXPECT_EQ(static_cast<int64_t>(wait->count), *launched - *backups);
  EXPECT_EQ(static_cast<int64_t>(run->count), *completed + *failed);
  EXPECT_GT(wait->p95, 0.0);
  EXPECT_GE(wait->p99, wait->p95);
  EXPECT_GE(wait->p95, wait->p50);

  // Parse the trace back and compare span counts to the counters.
  auto doc = JsonParse(hub.book.TraceJson());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* trace_events = doc.ValueOrDie().Find("traceEvents");
  ASSERT_NE(trace_events, nullptr);
  const std::vector<JsonValue>& events = trace_events->items;

  EXPECT_EQ(CountEvents(events, "X", "map"),
            static_cast<int>(*launched));  // one span per map attempt
  EXPECT_EQ(CountEvents(events, "X", "reduce"), 1);
  EXPECT_EQ(CountEvents(events, "b", "job"), 1);
  EXPECT_EQ(CountEvents(events, "e", "job"), 1);
  EXPECT_EQ(CountEvents(events, "b", "split"), static_cast<int>(*splits));
  EXPECT_EQ(CountEvents(events, "e", "split"),
            static_cast<int>(*completed));
  // One provider-decision instant per provider invocation (initial grab +
  // each periodic evaluation); each decision is exactly one of grow, wait
  // and end-of-input.
  const int64_t decisions = *snap.FindCounter("provider.grows") +
                            *snap.FindCounter("provider.waits") +
                            *snap.FindCounter("provider.end_of_input");
  EXPECT_GT(decisions, 0);
  EXPECT_EQ(CountEvents(events, "i", "provider"),
            static_cast<int>(decisions));
  EXPECT_EQ(*snap.FindCounter("provider.evaluations"),
            stats.provider_evaluations);
}

TEST(ObsIntegrationTest, ReportRendersCountersAndHistograms) {
  HubSession hub;
  RunFig5Cell();

  obs::Report report;
  report.SetInfo("driver", "obs_integration_test");
  report.SetSnapshot(hub.book.TakeSnapshot());

  std::string text = report.ToText();
  EXPECT_NE(text.find("mapred.maps_launched"), std::string::npos);
  EXPECT_NE(text.find("mapred.task_wait"), std::string::npos);
  EXPECT_NE(text.find("p95"), std::string::npos);

  auto doc = JsonParse(report.ToJson());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue& root = doc.ValueOrDie();
  ASSERT_NE(root.Find("counters"), nullptr);
  EXPECT_GT(root.Find("counters")->NumberOr("mapred.maps_launched", 0.0),
            0.0);
  const JsonValue* hists = root.Find("histograms");
  ASSERT_NE(hists, nullptr);
  ASSERT_TRUE(hists->is_array());
  EXPECT_FALSE(hists->items.empty());
}

TEST(ObsIntegrationTest, TrackerHistoryRendersTheJob) {
  HubSession hub;
  Testbed bed(cluster::ClusterConfig::SingleUser());
  auto dataset = *MakeLineItemDataset(&bed.fs(), 5, 0.0, 42);
  auto policy = *dynamic::PolicyTable::BuiltIn().Find("HA");
  sampling::SamplingJobOptions options;
  options.sample_size = 1000;
  options.seed = 3;
  auto submission = sampling::MakeSamplingJob(
      dataset.file, dataset.matching_per_partition, policy, options);
  ASSERT_TRUE(submission.ok());
  auto stats = bed.RunJobToCompletion(*std::move(submission));
  ASSERT_TRUE(stats.ok());

  // The tracker's history holds the job's slice, and it renders as JSON.
  std::vector<mapred::JobEvent> job_events =
      bed.tracker().history().ForJob(stats->job_id);
  EXPECT_FALSE(job_events.empty());
  auto history_doc = JsonParse(mapred::JobHistory::ToJson(job_events));
  ASSERT_TRUE(history_doc.ok()) << history_doc.status().ToString();
  EXPECT_TRUE(history_doc.ValueOrDie().is_array());
  EXPECT_FALSE(history_doc.ValueOrDie().items.empty());
}

/// RAII hub session with the timeline output on.
class TimelineHubSession {
 public:
  TimelineHubSession() { obs::Hub::Install(&book); }
  ~TimelineHubSession() { obs::Hub::Uninstall(); }
  obs::Book book{/*trace=*/false, obs::TimelineOptions()};
};

TEST(ObsIntegrationTest, TimelineFollowsPerUserJobsAndPrunedLaunches) {
  // The per-user inflight series and the pruned-launch counter live in
  // the obs cell and are fed only by lifecycle records; check what they
  // say, not just that they are deterministic.
  TimelineHubSession hub;
  int64_t tracker_pruned = 0;
  {
    Testbed bed(cluster::ClusterConfig::SingleUser());
    int completed = 0;
    for (const char* user : {"alice", "bob"}) {
      for (int j = 0; j < 2; ++j) {
        mapred::JobConf conf;
        conf.set_user(user);
        auto splits = std::make_shared<mapred::SplitTable>();
        for (int i = 0; i < 6; ++i) {
          mapred::InputSplit split;
          split.index = i;
          split.num_records = 10000;
          split.size_bytes = split.num_records * 132;
          split.node_id = i % bed.config().num_nodes;
          // Every third split's stats hint proves it empty: a stats read.
          if (i % 3 == 0) split.scan_fraction = 0.0;
          splits->Add(split);
        }
        ASSERT_TRUE(bed.tracker()
                        .SubmitStaticJob(
                            conf, std::move(splits),
                            [](const mapred::InputSplit&) { return 0u; },
                            [&completed](const mapred::JobStats&) {
                              ++completed;
                            })
                        .ok());
      }
    }
    bed.sim().RunUntil(300.0);
    ASSERT_EQ(completed, 4);
    tracker_pruned = bed.tracker().total_pruned_splits();
  }  // the testbed seals its cell
  EXPECT_EQ(tracker_pruned, 8);  // 2 of 6 splits in each of 4 jobs

  auto doc = JsonParse(hub.book.TimelineJson());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* cells = doc.ValueOrDie().Find("cells");
  ASSERT_NE(cells, nullptr);
  ASSERT_EQ(cells->items.size(), 1u);
  const JsonValue* series = cells->items[0].Find("timeline")->Find("series");
  ASSERT_NE(series, nullptr);
  auto summary = [series](const std::string& name) -> const JsonValue* {
    for (const JsonValue& s : series->items) {
      if (s.StringOr("name", "") == name) return s.Find("summary");
    }
    return nullptr;
  };
  for (const char* user : {"alice", "bob"}) {
    const JsonValue* inflight =
        summary(std::string("mapred.inflight_jobs.") + user);
    ASSERT_NE(inflight, nullptr) << user;
    EXPECT_GE(inflight->NumberOr("max", 0.0), 1.0) << user;
    EXPECT_EQ(inflight->NumberOr("last", -1.0), 0.0) << user;
  }
  const JsonValue* pruned = summary("mapred.pruned_splits");
  ASSERT_NE(pruned, nullptr);
  EXPECT_EQ(pruned->NumberOr("last", -1.0),
            static_cast<double>(tracker_pruned));
}

TEST(ObsIntegrationTest, NoHubMeansNoScopeAndCleanRun) {
  // Zero-overhead-when-off contract: without an installed book the testbed
  // must not attach any cell, and the run must behave identically.
  ASSERT_EQ(obs::Hub::book(), nullptr);
  Testbed bed(cluster::ClusterConfig::SingleUser());
  EXPECT_EQ(bed.obs(), nullptr);
  mapred::JobStats stats = RunFig5Cell();
  EXPECT_EQ(stats.result_records, 1000u);
}

}  // namespace
}  // namespace dmr::testbed
