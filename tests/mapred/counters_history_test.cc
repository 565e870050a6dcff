#include <gtest/gtest.h>

#include "mapred/counters.h"
#include "mapred/job_history.h"
#include "sampling/sampling_job.h"
#include "testbed/testbed.h"

namespace dmr::mapred {
namespace {

TEST(CountersTest, AddGetMerge) {
  Counters c;
  EXPECT_EQ(c.Get("X"), 0);
  EXPECT_FALSE(c.Contains("X"));
  c.Increment("X");
  c.Add("X", 4);
  c.Add("Y", -2);
  EXPECT_EQ(c.Get("X"), 5);
  EXPECT_EQ(c.Get("Y"), -2);
  EXPECT_EQ(c.size(), 2u);

  Counters d;
  d.Add("X", 10);
  d.Add("Z", 1);
  c.Merge(d);
  EXPECT_EQ(c.Get("X"), 15);
  EXPECT_EQ(c.Get("Z"), 1);
}

TEST(CountersTest, NegativeDeltasRollBackPartialProgress) {
  // Hadoop decrements counters when a failed/killed attempt's partial
  // progress is rolled back; Add() must therefore accept negative deltas
  // and values may go below zero transiently.
  Counters c;
  c.Add("MAP_INPUT_RECORDS", 100);
  c.Add("MAP_INPUT_RECORDS", -40);
  EXPECT_EQ(c.Get("MAP_INPUT_RECORDS"), 60);
  c.Add("MAP_INPUT_RECORDS", -70);
  EXPECT_EQ(c.Get("MAP_INPUT_RECORDS"), -10);
  c.Add("MAP_INPUT_RECORDS", 10);
  EXPECT_EQ(c.Get("MAP_INPUT_RECORDS"), 0);
  EXPECT_TRUE(c.Contains("MAP_INPUT_RECORDS"));
}

TEST(CountersTest, ToStringIsSorted) {
  Counters c;
  c.Add("B", 2);
  c.Add("A", 1);
  EXPECT_EQ(c.ToString(), "A = 1\nB = 2\n");
}

TEST(JobHistoryTest, RecordAndFilter) {
  JobHistory history;
  history.Record({.step = LifecycleStep::kSubmit, .t = 1.0, .job = 1});
  history.Record({.step = LifecycleStep::kSubmit, .t = 2.0, .job = 2});
  history.Record({.step = LifecycleStep::kMapLaunch, .t = 3.0, .job = 1,
                  .split = 0, .node = 4, .slot = 1});
  // Steps without a history event kind are not logged.
  history.Record({.step = LifecycleStep::kHeartbeat, .t = 3.0, .node = 4});
  EXPECT_EQ(history.size(), 3u);
  auto job1 = history.ForJob(1);
  ASSERT_EQ(job1.size(), 2u);
  EXPECT_EQ(job1[1].kind, JobEventKind::kMapLaunched);
  EXPECT_EQ(job1[1].node_id, 4);
  EXPECT_NE(job1[1].ToString().find("MAP_LAUNCHED"), std::string::npos);
}

TEST(JobHistoryTest, TimelineOfUnknownJob) {
  JobHistory history;
  EXPECT_EQ(history.RenderTimeline(9), "(no events for job)\n");
}

class TrackedJobTest : public ::testing::Test {
 protected:
  TrackedJobTest() : bed_(cluster::ClusterConfig::SingleUser()) {}

  JobStats RunSamplingJob(const char* policy_name) {
    auto dataset = *testbed::MakeLineItemDataset(&bed_.fs(), 5, 0.0, 5,
                                                 policy_name);
    auto policy = *dynamic::PolicyTable::BuiltIn().Find(policy_name);
    sampling::SamplingJobOptions options;
    options.sample_size = 10000;
    options.seed = 5;
    auto submission = sampling::MakeSamplingJob(
        dataset.file, dataset.matching_per_partition, policy, options);
    EXPECT_TRUE(submission.ok());
    auto stats = bed_.RunJobToCompletion(*std::move(submission));
    EXPECT_TRUE(stats.ok());
    return *stats;
  }

  testbed::Testbed bed_;
};

TEST_F(TrackedJobTest, StatsCarryConsistentCounters) {
  JobStats stats = RunSamplingJob("LA");
  const Counters& c = stats.counters;
  EXPECT_EQ(c.Get(kCounterMapInputRecords),
            static_cast<int64_t>(stats.records_processed));
  EXPECT_EQ(c.Get(kCounterMapOutputRecords),
            static_cast<int64_t>(stats.output_records));
  EXPECT_EQ(c.Get(kCounterSplitsProcessed), stats.splits_processed);
  EXPECT_EQ(c.Get(kCounterLocalMaps) + c.Get(kCounterRemoteMaps),
            stats.local_maps + stats.remote_maps);
  EXPECT_EQ(c.Get(kCounterResultRecords), 10000);
  EXPECT_EQ(c.Get(kCounterFailedMaps), 0);
}

TEST_F(TrackedJobTest, HistoryTellsTheJobsStory) {
  JobStats stats = RunSamplingJob("C");
  auto events = bed_.tracker().history().ForJob(stats.job_id);
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().kind, JobEventKind::kSubmitted);
  EXPECT_EQ(events.back().kind, JobEventKind::kJobCompleted);

  int launches = 0, completions = 0, adds = 0, finalized = 0, reduces = 0;
  for (const auto& ev : events) {
    switch (ev.kind) {
      case JobEventKind::kMapLaunched:
        ++launches;
        break;
      case JobEventKind::kMapCompleted:
        ++completions;
        break;
      case JobEventKind::kSplitsAdded:
        ++adds;
        break;
      case JobEventKind::kInputFinalized:
        ++finalized;
        break;
      case JobEventKind::kReduceStarted:
        ++reduces;
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(launches, stats.splits_processed);
  EXPECT_EQ(completions, stats.splits_processed);
  // The conservative policy grows in many increments.
  EXPECT_EQ(adds, stats.input_increments);
  EXPECT_GT(adds, 2);
  EXPECT_EQ(finalized, 1);
  EXPECT_EQ(reduces, 1);

  // Events are time-ordered.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].time, events[i].time);
  }
}

TEST_F(TrackedJobTest, TimelineRendersOccupancy) {
  JobStats stats = RunSamplingJob("HA");
  std::string timeline =
      bed_.tracker().history().RenderTimeline(stats.job_id, 2.0);
  EXPECT_NE(timeline.find("t="), std::string::npos);
  EXPECT_NE(timeline.find('#'), std::string::npos);
  // Peak concurrency appears somewhere (HA grabs the full 40-slot wave).
  EXPECT_NE(timeline.find("(40)"), std::string::npos);
}

}  // namespace
}  // namespace dmr::mapred
