#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "dfs/file_system.h"
#include "mapred/input_splits.h"
#include "mapred/job.h"
#include "sampling/sampling_job.h"
#include "testbed/testbed.h"

namespace dmr {
namespace {

TEST(ReplicationTest, DfsPlacesReplicasOnDistinctNodes) {
  dfs::FileSystem fs(10, 4);
  auto file = fs.CreateFile("replicated", 40, 1000, 100,
                            dfs::Placement::kRoundRobin, /*replication=*/3);
  ASSERT_TRUE(file.ok());
  for (const auto& p : file->partitions) {
    auto locations = p.locations();
    ASSERT_EQ(locations.size(), 3u);
    std::set<int> nodes;
    for (const auto& loc : locations) nodes.insert(loc.node_id);
    EXPECT_EQ(nodes.size(), 3u) << "partition " << p.index;
    EXPECT_EQ(locations.front().node_id, p.node_id);  // primary first
  }
}

TEST(ReplicationTest, ReplicationBoundsValidated) {
  dfs::FileSystem fs(3, 2);
  EXPECT_TRUE(fs.CreateFile("r0", 2, 1, 1, dfs::Placement::kRoundRobin, 0)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(fs.CreateFile("r4", 2, 1, 1, dfs::Placement::kRoundRobin, 4)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(fs.CreateFile("r3", 2, 1, 1, dfs::Placement::kRoundRobin, 3)
                  .ok());
}

TEST(ReplicationTest, SplitsCarryAllLocations) {
  dfs::FileSystem fs(10, 4);
  auto file = *fs.CreateFile("replicated", 8, 1000, 100,
                             dfs::Placement::kRoundRobin, 2);
  auto table = *mapred::MakeInputSplits(file, {});
  for (mapred::SplitId id = 0; id < table->size(); ++id) {
    const mapred::InputSplit& s = (*table)[id];
    EXPECT_EQ(table->locations(id).size(), 2u);
    EXPECT_TRUE(table->IsLocalTo(id, s.node_id));
    EXPECT_TRUE(table->IsLocalTo(id, table->locations(id)[1].node_id));
    EXPECT_FALSE(table->IsLocalTo(id, (s.node_id + 5) % 10));
  }
}

TEST(ReplicationTest, ReadLocationPrefersLocalReplica) {
  mapred::SplitTable table;
  mapred::InputSplit split;
  split.node_id = 2;
  split.disk_id = 1;
  const mapred::SplitLocation replicas[] = {{2, 1}, {5, 3}};
  mapred::SplitId id = table.Add(split, replicas);
  auto on_replica = table.ReadLocationFor(id, 5);
  EXPECT_EQ(on_replica.node_id, 5);
  EXPECT_EQ(on_replica.disk_id, 3);
  auto elsewhere = table.ReadLocationFor(id, 7);
  EXPECT_EQ(elsewhere.node_id, 2);  // falls back to the primary
}

TEST(ReplicationTest, JobServesLocalWorkFromAnyReplica) {
  auto table = std::make_shared<mapred::SplitTable>();
  mapred::InputSplit split;
  split.index = 0;
  split.node_id = 2;
  const mapred::SplitLocation replicas[] = {{2, 0}, {6, 1}};
  table->Add(split, replicas);
  mapred::JobConf conf;
  mapred::Job job(1, conf, std::move(table),
                  [](const mapred::InputSplit&) { return uint64_t{0}; },
                  0.0);
  job.AddSplits(std::vector<mapred::SplitId>{0}, /*now=*/0.0);
  EXPECT_TRUE(job.HasLocalPending(2));
  EXPECT_TRUE(job.HasLocalPending(6));
  EXPECT_FALSE(job.HasLocalPending(3));
  // Taking via the replica node removes it everywhere.
  auto taken = job.TakeLocalPending(6);
  ASSERT_TRUE(taken.has_value());
  EXPECT_FALSE(job.HasLocalPending(2));
  EXPECT_FALSE(job.HasPendingSplits());
}

TEST(ReplicationTest, ReplicationUpToTheNodeCountWorks) {
  // Every node holds a copy: the split table keeps all ten replicas (with
  // their divergent layouts) and every map reads locally.
  cluster::ClusterConfig config = cluster::ClusterConfig::SingleUser();
  testbed::Testbed bed(config);
  auto file = *bed.fs().CreateFile("everywhere", 40, 750000, 132,
                                   dfs::Placement::kRoundRobin,
                                   config.num_nodes);
  dfs::ApplyDivergentLayouts(&file);
  auto table = *mapred::MakeInputSplits(file, {});
  for (mapred::SplitId id = 0; id < table->size(); ++id) {
    auto locations = table->locations(id);
    ASSERT_EQ(static_cast<int>(locations.size()), config.num_nodes);
    for (size_t r = 0; r < locations.size(); ++r) {
      EXPECT_EQ(locations[r].layout, file.partitions[id].replicas[r].layout);
    }
    EXPECT_EQ(table->ReadLocationFor(id, 7).node_id, 7);
  }
  std::vector<uint64_t> matching(40, 375);
  auto policy = *dynamic::PolicyTable::BuiltIn().Find("LA");
  sampling::SamplingJobOptions options;
  options.sample_size = 10000;
  options.seed = 78;
  auto submission = sampling::MakeSamplingJob(file, matching, policy, options);
  ASSERT_TRUE(submission.ok());
  auto stats = bed.RunJobToCompletion(*std::move(submission));
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->result_records, 10000u);
  EXPECT_EQ(stats->remote_maps, 0);
  EXPECT_DOUBLE_EQ(bed.tracker().LocalityPercent(), 100.0);
}

TEST(ReplicationTest, ReplicationRaisesLocalityUnderContention) {
  // Give every user a single-node-hosted dataset so unreplicated reads are
  // mostly remote; with 3x replication, locality recovers.
  auto run = [](int replication) {
    cluster::ClusterConfig config = cluster::ClusterConfig::SingleUser();
    testbed::Testbed bed(config);
    auto file = *bed.fs().CreateFile("skewed-placement", 40, 750000, 132,
                                     dfs::Placement::kSingleDisk,
                                     replication);
    std::vector<uint64_t> matching(40, 400);
    auto submission = sampling::MakeSelectProjectJob(file, matching,
                                                     "scan", "u");
    EXPECT_TRUE(submission.ok());
    auto stats = bed.RunJobToCompletion(*std::move(submission));
    EXPECT_TRUE(stats.ok());
    return bed.tracker().LocalityPercent();
  };
  double unreplicated = run(1);
  double replicated = run(3);
  EXPECT_GT(replicated, unreplicated + 10.0);
}

TEST(ReplicationTest, SamplingJobCorrectWithReplication) {
  testbed::Testbed bed(cluster::ClusterConfig::SingleUser());
  auto file = *bed.fs().CreateFile("rep3", 40, 750000, 132,
                                   dfs::Placement::kRoundRobin, 3);
  std::vector<uint64_t> matching(40, 375);
  auto policy = *dynamic::PolicyTable::BuiltIn().Find("LA");
  sampling::SamplingJobOptions options;
  options.sample_size = 10000;
  options.seed = 77;
  auto submission =
      sampling::MakeSamplingJob(file, matching, policy, options);
  ASSERT_TRUE(submission.ok());
  auto stats = bed.RunJobToCompletion(*std::move(submission));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->result_records, 10000u);
  EXPECT_LT(stats->splits_processed, 40);
}

}  // namespace
}  // namespace dmr
