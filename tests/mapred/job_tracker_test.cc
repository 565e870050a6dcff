#include "mapred/job_tracker.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "cluster/cluster.h"
#include "mapred/job_client.h"
#include "scheduler/fifo_scheduler.h"
#include "sim/simulation.h"

namespace dmr::mapred {
namespace {

class JobTrackerTest : public ::testing::Test {
 protected:
  JobTrackerTest()
      : config_(cluster::ClusterConfig::SingleUser()),
        cluster_(&sim_, config_),
        tracker_(&cluster_, &scheduler_) {
    tracker_.Start();
  }

  /// `n` evenly placed splits; with `on_node0` every one lives on node 0's
  /// first disk instead.
  std::shared_ptr<const SplitTable> MakeSplits(int n, bool on_node0 = false) {
    auto table = std::make_shared<SplitTable>();
    for (int i = 0; i < n; ++i) {
      InputSplit s;
      s.index = i;
      s.num_records = 750000;
      s.num_matching = 100;
      s.size_bytes = s.num_records * 132;
      s.node_id =
          on_node0 ? 0 : (i / config_.disks_per_node) % config_.num_nodes;
      s.disk_id = on_node0 ? 0 : i % config_.disks_per_node;
      table->Add(s);
    }
    return table;
  }

  static MapOutputModel AllMatches() {
    return [](const InputSplit& s) { return s.num_matching; };
  }

  sim::Simulation sim_;
  cluster::ClusterConfig config_;
  cluster::Cluster cluster_;
  scheduler::FifoScheduler scheduler_;
  JobTracker tracker_;
};

TEST_F(JobTrackerTest, SubmitRequiresStartedTracker) {
  sim::Simulation sim2;
  cluster::Cluster cluster2(&sim2, config_);
  scheduler::FifoScheduler sched2;
  JobTracker unstarted(&cluster2, &sched2);
  auto id = unstarted.SubmitStaticJob(JobConf(), MakeSplits(1), AllMatches(),
                                      nullptr);
  EXPECT_TRUE(id.status().IsFailedPrecondition());
}

TEST_F(JobTrackerTest, StaticJobRunsToCompletion) {
  std::optional<JobStats> stats;
  auto id = tracker_.SubmitStaticJob(
      JobConf(), MakeSplits(8), AllMatches(),
      [&](const JobStats& s) { stats = s; });
  ASSERT_TRUE(id.ok());
  sim_.RunUntil(3600);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->splits_processed, 8);
  EXPECT_EQ(stats->records_processed, 8u * 750000u);
  EXPECT_EQ(stats->output_records, 800u);
  EXPECT_EQ(stats->result_records, 800u);  // no sample cap
  EXPECT_GT(stats->finish_time, 0.0);
  EXPECT_TRUE(*tracker_.IsJobComplete(*id));
}

TEST_F(JobTrackerTest, SampleSizeCapsResultRecords) {
  JobConf conf;
  conf.set_sample_size(150);
  std::optional<JobStats> stats;
  ASSERT_TRUE(tracker_
                  .SubmitStaticJob(conf, MakeSplits(4), AllMatches(),
                                   [&](const JobStats& s) { stats = s; })
                  .ok());
  sim_.RunUntil(3600);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->output_records, 400u);
  EXPECT_EQ(stats->result_records, 150u);
}

TEST_F(JobTrackerTest, SlotLimitsAreRespected) {
  // 80 splits, 40 slots: the cluster must never exceed capacity.
  ASSERT_TRUE(tracker_
                  .SubmitStaticJob(JobConf(), MakeSplits(80), AllMatches(),
                                   nullptr)
                  .ok());
  double max_used = 0;
  for (int step = 0; step < 2000; ++step) {
    sim_.Run(10);
    max_used = std::max(max_used, double(cluster_.used_map_slots()));
    EXPECT_LE(cluster_.used_map_slots(), cluster_.total_map_slots());
    for (int n = 0; n < cluster_.num_nodes(); ++n) {
      EXPECT_GE(cluster_.node(n)->free_map_slots(), 0);
    }
  }
  EXPECT_GT(max_used, 30);  // and it should actually use the cluster
}

TEST_F(JobTrackerTest, DynamicJobWaitsForFinalize) {
  std::optional<JobStats> stats;
  auto id = tracker_.SubmitDynamicJob(JobConf(), MakeSplits(10), AllMatches(),
                                      [&](const JobStats& s) { stats = s; });
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(tracker_.AddSplits(*id, std::vector<SplitId>{0, 1}).ok());
  sim_.RunUntil(600);
  EXPECT_FALSE(stats.has_value());  // input not finalized: no reduce yet
  auto progress = tracker_.GetJobProgress(*id);
  ASSERT_TRUE(progress.ok());
  EXPECT_EQ(progress->maps_completed, 2);
  ASSERT_TRUE(tracker_.FinalizeInput(*id).ok());
  sim_.RunUntil(1200);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->splits_processed, 2);
}

TEST_F(JobTrackerTest, AddSplitsAfterFinalizeFails) {
  auto id = tracker_.SubmitDynamicJob(JobConf(), MakeSplits(10), AllMatches(),
                                      nullptr);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(tracker_.FinalizeInput(*id).ok());
  EXPECT_TRUE(tracker_.AddSplits(*id, std::vector<SplitId>{0})
                  .IsFailedPrecondition());
}

TEST_F(JobTrackerTest, FinalizeIsIdempotent) {
  auto id = tracker_.SubmitDynamicJob(JobConf(), MakeSplits(10), AllMatches(),
                                      nullptr);
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(tracker_.FinalizeInput(*id).ok());
  EXPECT_TRUE(tracker_.FinalizeInput(*id).ok());
}

TEST_F(JobTrackerTest, EmptyDynamicJobCompletesWithNothing) {
  std::optional<JobStats> stats;
  auto id = tracker_.SubmitDynamicJob(JobConf(), MakeSplits(0), AllMatches(),
                                      [&](const JobStats& s) { stats = s; });
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(tracker_.FinalizeInput(*id).ok());
  sim_.RunUntil(600);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->splits_processed, 0);
  EXPECT_EQ(stats->result_records, 0u);
}

TEST_F(JobTrackerTest, UnknownJobIdsAreNotFound) {
  EXPECT_TRUE(
      tracker_.AddSplits(999, std::vector<SplitId>{0}).IsNotFound());
  EXPECT_TRUE(tracker_.FinalizeInput(999).IsNotFound());
  EXPECT_TRUE(tracker_.GetJobProgress(999).status().IsNotFound());
  EXPECT_TRUE(tracker_.IsJobComplete(999).status().IsNotFound());
}

TEST_F(JobTrackerTest, RejectsBadSubmissions) {
  EXPECT_TRUE(
      tracker_.SubmitDynamicJob(JobConf(), nullptr, AllMatches(), nullptr)
          .status()
          .IsInvalidArgument());
  EXPECT_TRUE(tracker_.SubmitDynamicJob(JobConf(), MakeSplits(1), nullptr,
                                        nullptr)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(JobTrackerTest, SplitIdsOutsideTheInputAreRejected) {
  auto id = tracker_.SubmitDynamicJob(JobConf(), MakeSplits(3), AllMatches(),
                                      nullptr);
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(tracker_.AddSplits(*id, std::vector<SplitId>{0, 3})
                  .IsInvalidArgument());
  auto progress = tracker_.GetJobProgress(*id);
  ASSERT_TRUE(progress.ok());
  EXPECT_EQ(progress->splits_added, 0);
}

TEST_F(JobTrackerTest, CompletedJobHoldsNoSplitTable) {
  std::shared_ptr<const SplitTable> input = MakeSplits(40);
  std::weak_ptr<const SplitTable> watch = input;
  std::optional<JobStats> stats;
  ASSERT_TRUE(tracker_
                  .SubmitStaticJob(JobConf(), std::move(input), AllMatches(),
                                   [&](const JobStats& s) { stats = s; })
                  .ok());
  sim_.RunUntil(5.0);
  EXPECT_FALSE(watch.expired());  // the running job reads it
  sim_.RunUntil(3600);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->splits_processed, 40);
  EXPECT_TRUE(watch.expired());
}

TEST_F(JobTrackerTest, ClusterStatusReflectsLoad) {
  ClusterStatus before = tracker_.GetClusterStatus();
  EXPECT_EQ(before.total_map_slots, 40);
  EXPECT_EQ(before.occupied_map_slots, 0);
  EXPECT_EQ(before.available_map_slots(), 40);
  EXPECT_EQ(before.running_jobs, 0);

  ASSERT_TRUE(tracker_
                  .SubmitStaticJob(JobConf(), MakeSplits(40), AllMatches(),
                                   nullptr)
                  .ok());
  sim_.RunUntil(5.0);  // past the first heartbeats
  ClusterStatus during = tracker_.GetClusterStatus();
  EXPECT_GT(during.occupied_map_slots, 0);
  EXPECT_EQ(during.running_jobs, 1);
}

TEST_F(JobTrackerTest, LocalMapsDominateOnIdleCluster) {
  std::optional<JobStats> stats;
  ASSERT_TRUE(tracker_
                  .SubmitStaticJob(JobConf(), MakeSplits(40), AllMatches(),
                                   [&](const JobStats& s) { stats = s; })
                  .ok());
  sim_.RunUntil(3600);
  ASSERT_TRUE(stats.has_value());
  // One job, evenly placed splits: locality should be near-perfect.
  EXPECT_GT(tracker_.LocalityPercent(), 90.0);
  EXPECT_EQ(stats->local_maps + stats->remote_maps, 40);
}

TEST_F(JobTrackerTest, TwoJobsBothComplete) {
  std::optional<JobStats> first, second;
  ASSERT_TRUE(tracker_
                  .SubmitStaticJob(JobConf(), MakeSplits(20), AllMatches(),
                                   [&](const JobStats& s) { first = s; })
                  .ok());
  ASSERT_TRUE(tracker_
                  .SubmitStaticJob(JobConf(), MakeSplits(20), AllMatches(),
                                   [&](const JobStats& s) { second = s; })
                  .ok());
  sim_.RunUntil(3600);
  EXPECT_TRUE(first.has_value());
  EXPECT_TRUE(second.has_value());
}

TEST_F(JobTrackerTest, RemoteReadsCountedWhenDataIsElsewhere) {
  // All splits on node 0's disks, so most tasks must read remotely.
  std::optional<JobStats> stats;
  ASSERT_TRUE(tracker_
                  .SubmitStaticJob(JobConf(), MakeSplits(40, /*on_node0=*/true),
                                   AllMatches(),
                                   [&](const JobStats& s) { stats = s; })
                  .ok());
  sim_.RunUntil(24 * 3600);
  ASSERT_TRUE(stats.has_value());
  EXPECT_GT(stats->remote_maps, 30);  // only node 0's 4 slots can be local
}

}  // namespace
}  // namespace dmr::mapred
