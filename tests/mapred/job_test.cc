#include "mapred/job.h"

#include <gtest/gtest.h>

#include "mapred/job_conf.h"

namespace dmr::mapred {
namespace {

InputSplit MakeSplit(int index, int node, uint64_t records = 1000,
                     uint64_t matching = 10) {
  InputSplit split;
  split.file = "f";
  split.index = index;
  split.num_records = records;
  split.num_matching = matching;
  split.size_bytes = records * 100;
  split.node_id = node;
  split.disk_id = 0;
  return split;
}

MapOutputModel Identity() {
  return [](const InputSplit& s) { return s.num_matching; };
}

TEST(JobConfTest, DefaultsAndAccessors) {
  JobConf conf;
  EXPECT_EQ(conf.name(), "job");
  EXPECT_EQ(conf.user(), "default");
  EXPECT_FALSE(conf.dynamic_job());
  EXPECT_DOUBLE_EQ(conf.eval_interval(), 4.0);
  EXPECT_DOUBLE_EQ(conf.work_threshold_pct(), 0.0);
  EXPECT_EQ(conf.sample_size(), 0u);

  conf.set_name("sample");
  conf.set_user("alice");
  conf.set_dynamic_job(true);
  conf.set_policy("LA");
  conf.set_eval_interval(2.0);
  conf.set_work_threshold_pct(10.0);
  conf.set_sample_size(10000);
  conf.set_input_file("lineitem");
  EXPECT_EQ(conf.name(), "sample");
  EXPECT_EQ(conf.user(), "alice");
  EXPECT_TRUE(conf.dynamic_job());
  EXPECT_EQ(conf.policy(), "LA");
  EXPECT_DOUBLE_EQ(conf.eval_interval(), 2.0);
  EXPECT_DOUBLE_EQ(conf.work_threshold_pct(), 10.0);
  EXPECT_EQ(conf.sample_size(), 10000u);
  EXPECT_EQ(conf.input_file(), "lineitem");
}

TEST(JobTest, AddAndTakeLocalSplits) {
  Job job(1, JobConf(), 10, Identity(), 0.0);
  job.AddSplits({MakeSplit(0, 2), MakeSplit(1, 3), MakeSplit(2, 2)},
                /*now=*/0.0);
  EXPECT_EQ(job.pending_count(), 3);
  EXPECT_TRUE(job.HasLocalPending(2));
  EXPECT_FALSE(job.HasLocalPending(7));
  auto s = job.TakeLocalPending(2);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->node_id, 2);
  EXPECT_EQ(job.pending_count(), 2);
  auto s2 = job.TakeLocalPending(2);
  ASSERT_TRUE(s2.has_value());
  EXPECT_FALSE(job.TakeLocalPending(2).has_value());
}

TEST(JobTest, TakeAnyPrefersBiggestBacklog) {
  Job job(1, JobConf(), 10, Identity(), 0.0);
  job.AddSplits({MakeSplit(0, 1), MakeSplit(1, 5), MakeSplit(2, 5),
                 MakeSplit(3, 5)}, /*now=*/0.0);
  auto s = job.TakeAnyPending();
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->node_id, 5);  // node 5 has the deepest queue
}

TEST(JobTest, TakeAnyFromEmptyIsNull) {
  Job job(1, JobConf(), 0, Identity(), 0.0);
  EXPECT_FALSE(job.TakeAnyPending().has_value());
  EXPECT_FALSE(job.HasPendingSplits());
}

TEST(JobTest, ProgressCountersTrackLifecycle) {
  Job job(1, JobConf(), 4, Identity(), 5.0);
  job.AddSplits({MakeSplit(0, 0, 1000, 3), MakeSplit(1, 1, 2000, 7)},
                /*now=*/0.0);
  JobProgress p0 = job.GetProgress(10.0);
  EXPECT_EQ(p0.splits_added, 2);
  EXPECT_EQ(p0.splits_total, 4);
  EXPECT_EQ(p0.maps_pending, 2);
  EXPECT_EQ(p0.pending_records, 3000u);
  EXPECT_FALSE(p0.starved());

  auto s = *job.TakeLocalPending(0);
  job.OnMapLaunched(s, 0, true);
  JobProgress p1 = job.GetProgress(11.0);
  EXPECT_EQ(p1.maps_running, 1);
  EXPECT_EQ(p1.maps_pending, 1);

  job.OnMapCompleted(s, job.ComputeMapOutput(s));
  JobProgress p2 = job.GetProgress(12.0);
  EXPECT_EQ(p2.maps_completed, 1);
  EXPECT_EQ(p2.records_processed, 1000u);
  EXPECT_EQ(p2.output_records, 3u);
  EXPECT_EQ(p2.pending_records, 2000u);
}

TEST(JobTest, StarvedWhenNothingPendingOrRunning) {
  Job job(1, JobConf(), 2, Identity(), 0.0);
  EXPECT_TRUE(job.GetProgress(0).starved());
  job.AddSplits({MakeSplit(0, 0)}, /*now=*/0.0);
  EXPECT_FALSE(job.GetProgress(0).starved());
  auto s = *job.TakeAnyPending();
  job.OnMapLaunched(s, 0, true);
  EXPECT_FALSE(job.GetProgress(0).starved());
  job.OnMapCompleted(s, 0);
  EXPECT_TRUE(job.GetProgress(0).starved());
}

TEST(JobTest, ReduceReadinessRequiresFinalizedAndDrained) {
  Job job(1, JobConf(), 2, Identity(), 0.0);
  job.AddSplits({MakeSplit(0, 0)}, /*now=*/0.0);
  EXPECT_FALSE(job.ReadyForReduce());  // not finalized
  auto s = *job.TakeAnyPending();
  job.OnMapLaunched(s, 0, true);
  job.FinalizeInput();
  EXPECT_FALSE(job.ReadyForReduce());  // map still running
  job.OnMapCompleted(s, 5);
  EXPECT_TRUE(job.ReadyForReduce());
}

TEST(JobTest, LocalityCountersInStats) {
  Job job(9, JobConf(), 3, Identity(), 1.0);
  job.AddSplits({MakeSplit(0, 0), MakeSplit(1, 1), MakeSplit(2, 2)},
                /*now=*/0.0);
  for (int i = 0; i < 3; ++i) {
    auto s = *job.TakeAnyPending();
    job.OnMapLaunched(s, 0, /*local=*/i == 0);
    job.OnMapCompleted(s, 1);
  }
  job.set_finish_time(99.0);
  JobStats stats = job.GetStats();
  EXPECT_EQ(stats.job_id, 9);
  EXPECT_EQ(stats.local_maps, 1);
  EXPECT_EQ(stats.remote_maps, 2);
  EXPECT_EQ(stats.splits_processed, 3);
  EXPECT_DOUBLE_EQ(stats.submit_time, 1.0);
  EXPECT_DOUBLE_EQ(stats.response_time(), 98.0);
}

TEST(JobTest, StateTransitions) {
  Job job(1, JobConf(), 0, Identity(), 0.0);
  EXPECT_EQ(job.state(), JobState::kMapping);
  EXPECT_STREQ(JobStateToString(job.state()), "MAPPING");
  job.set_state(JobState::kReducing);
  EXPECT_STREQ(JobStateToString(job.state()), "REDUCING");
  job.set_state(JobState::kSucceeded);
  EXPECT_STREQ(JobStateToString(job.state()), "SUCCEEDED");
}

}  // namespace
}  // namespace dmr::mapred
