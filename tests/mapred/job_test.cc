#include "mapred/job.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "mapred/job_conf.h"

namespace dmr::mapred {
namespace {

InputSplit MakeSplit(int index, int node, uint64_t records = 1000,
                     uint64_t matching = 10) {
  InputSplit split;
  split.index = index;
  split.num_records = records;
  split.num_matching = matching;
  split.size_bytes = records * 100;
  split.node_id = node;
  split.disk_id = 0;
  return split;
}

/// A split table holding `rows`, then `padding` more splits that the test
/// never adds (they only count towards splits_total).
std::shared_ptr<const SplitTable> Table(std::vector<InputSplit> rows,
                                        int padding = 0) {
  auto table = std::make_shared<SplitTable>();
  for (const InputSplit& row : rows) table->Add(row);
  for (int i = 0; i < padding; ++i) {
    table->Add(MakeSplit(static_cast<int>(rows.size()) + i, 0));
  }
  return table;
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

TEST(JobConfTest, DoublesRoundTripExactly) {
  // Six fixed decimals would read 1e-7 back as 0 and 0.3333333333 as
  // 0.333333.
  for (double v : {1e-7, 0.3333333333, 2.0000004}) {
    JobConf conf;
    conf.set_eval_interval(v);
    conf.set_work_threshold_pct(v);
    EXPECT_EQ(conf.eval_interval(), v);
    EXPECT_EQ(conf.work_threshold_pct(), v);
  }
}

TEST(JobTest, AddAndTakeLocalSplits) {
  Job job(1, JobConf(),
          Table({MakeSplit(0, 2), MakeSplit(1, 3), MakeSplit(2, 2)}, 7),
          Identity(), 0.0);
  job.AddSplits(std::vector<SplitId>{0, 1, 2}, /*now=*/0.0);
  EXPECT_EQ(job.pending_count(), 3);
  EXPECT_TRUE(job.HasLocalPending(2));
  EXPECT_FALSE(job.HasLocalPending(7));
  auto s = job.TakeLocalPending(2);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(job.input()[*s].node_id, 2);
  EXPECT_EQ(job.pending_count(), 2);
  auto s2 = job.TakeLocalPending(2);
  ASSERT_TRUE(s2.has_value());
  EXPECT_FALSE(job.TakeLocalPending(2).has_value());
}

TEST(JobTest, TakeAnyPrefersBiggestBacklog) {
  Job job(1, JobConf(),
          Table({MakeSplit(0, 1), MakeSplit(1, 5), MakeSplit(2, 5),
                 MakeSplit(3, 5)}, 6),
          Identity(), 0.0);
  job.AddSplits(std::vector<SplitId>{0, 1, 2, 3}, /*now=*/0.0);
  auto s = job.TakeAnyPending();
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(job.input()[*s].node_id, 5);  // node 5 has the deepest queue
}

TEST(JobTest, TakeAnyFromEmptyIsNull) {
  Job job(1, JobConf(), Table({}), Identity(), 0.0);
  EXPECT_FALSE(job.TakeAnyPending().has_value());
  EXPECT_FALSE(job.HasPendingSplits());
}

TEST(JobTest, ProgressCountersTrackLifecycle) {
  Job job(1, JobConf(),
          Table({MakeSplit(0, 0, 1000, 3), MakeSplit(1, 1, 2000, 7)}, 2),
          Identity(), 5.0);
  job.AddSplits(std::vector<SplitId>{0, 1}, /*now=*/0.0);
  JobProgress p0 = job.GetProgress(10.0);
  EXPECT_EQ(p0.splits_added, 2);
  EXPECT_EQ(p0.splits_total, 4);
  EXPECT_EQ(p0.maps_pending, 2);
  EXPECT_EQ(p0.pending_records, 3000u);
  EXPECT_FALSE(p0.starved());

  auto s = *job.TakeLocalPending(0);
  job.OnMapLaunched(/*local=*/true);
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
  Job job(1, JobConf(), Table({MakeSplit(0, 0)}, 1), Identity(), 0.0);
  EXPECT_TRUE(job.GetProgress(0).starved());
  job.AddSplits(std::vector<SplitId>{0}, /*now=*/0.0);
  EXPECT_FALSE(job.GetProgress(0).starved());
  auto s = *job.TakeAnyPending();
  job.OnMapLaunched(/*local=*/true);
  EXPECT_FALSE(job.GetProgress(0).starved());
  job.OnMapCompleted(s, 0);
  EXPECT_TRUE(job.GetProgress(0).starved());
}

TEST(JobTest, ReduceReadinessRequiresFinalizedAndDrained) {
  Job job(1, JobConf(), Table({MakeSplit(0, 0)}, 1), Identity(), 0.0);
  job.AddSplits(std::vector<SplitId>{0}, /*now=*/0.0);
  EXPECT_FALSE(job.ReadyForReduce());  // not finalized
  auto s = *job.TakeAnyPending();
  job.OnMapLaunched(/*local=*/true);
  job.FinalizeInput();
  EXPECT_FALSE(job.ReadyForReduce());  // map still running
  job.OnMapCompleted(s, 5);
  EXPECT_TRUE(job.ReadyForReduce());
}

TEST(JobTest, LocalityCountersInStats) {
  Job job(9, JobConf(),
          Table({MakeSplit(0, 0), MakeSplit(1, 1), MakeSplit(2, 2)}),
          Identity(), 1.0);
  job.AddSplits(std::vector<SplitId>{0, 1, 2}, /*now=*/0.0);
  for (int i = 0; i < 3; ++i) {
    auto s = *job.TakeAnyPending();
    job.OnMapLaunched(/*local=*/i == 0);
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

TEST(JobTest, RequeuedSplitKeepsItsFirstQueuedTime) {
  Job job(1, JobConf(), Table({MakeSplit(0, 0), MakeSplit(1, 1)}),
          Identity(), 0.0);
  job.AddSplits(std::vector<SplitId>{0}, /*now=*/3.0);
  job.AddSplits(std::vector<SplitId>{1}, /*now=*/7.0);
  SplitId s = *job.TakeLocalPending(0);
  job.OnMapLaunched(/*local=*/true);
  job.OnMapFailed();
  job.RequeueSplit(s);
  EXPECT_EQ(job.pending_count(), 2);
  EXPECT_EQ(job.splits_added(), 2);
  EXPECT_DOUBLE_EQ(job.queued_time(s), 3.0);
  EXPECT_DOUBLE_EQ(job.queued_time(1), 7.0);
  EXPECT_EQ(job.TakeLocalPending(0), std::optional<SplitId>(s));
}

TEST(JobTest, ReleaseInputDropsTheSplitTable) {
  std::shared_ptr<const SplitTable> table = Table({MakeSplit(0, 0)});
  std::weak_ptr<const SplitTable> watch = table;
  Job job(1, JobConf(), std::move(table), Identity(), 0.0);
  job.AddSplits(std::vector<SplitId>{0}, /*now=*/0.0);
  SplitId s = *job.TakeAnyPending();
  job.OnMapLaunched(/*local=*/true);
  job.OnMapCompleted(s, 1);
  EXPECT_FALSE(watch.expired());
  job.ReleaseInput();
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(job.GetStats().records_processed, 1000u);
  EXPECT_EQ(job.GetProgress(0.0).splits_total, 1);
}

TEST(JobTest, StateTransitions) {
  Job job(1, JobConf(), Table({}), Identity(), 0.0);
  EXPECT_EQ(job.state(), JobState::kMapping);
  EXPECT_STREQ(JobStateToString(job.state()), "MAPPING");
  job.set_state(JobState::kReducing);
  EXPECT_STREQ(JobStateToString(job.state()), "REDUCING");
  job.set_state(JobState::kSucceeded);
  EXPECT_STREQ(JobStateToString(job.state()), "SUCCEEDED");
}

}  // namespace
}  // namespace dmr::mapred
