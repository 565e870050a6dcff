#include "mapred/input_splits.h"

#include <gtest/gtest.h>

#include <memory>
#include <type_traits>

#include "dfs/file_system.h"

namespace dmr::mapred {
namespace {

TEST(InputSplitsTest, CopiesMetadataAndMatching) {
  dfs::FileSystem fs(10, 4);
  auto file = *fs.CreateFile("f", 8, 1000, 100);
  std::vector<uint64_t> matching = {1, 2, 3, 4, 5, 6, 7, 8};
  auto table = *MakeInputSplits(file, matching);
  const SplitTable& splits = *table;
  ASSERT_EQ(splits.size(), 8u);
  for (SplitId i = 0; i < 8; ++i) {
    EXPECT_EQ(splits[i].index, static_cast<int>(i));
    EXPECT_EQ(splits[i].num_records, 1000u);
    EXPECT_EQ(splits[i].size_bytes, 100000u);
    EXPECT_EQ(splits[i].num_matching, matching[i]);
    EXPECT_EQ(splits[i].node_id, file.partitions[i].node_id);
    EXPECT_EQ(splits[i].disk_id, file.partitions[i].disk_id);
    EXPECT_DOUBLE_EQ(splits[i].scan_fraction, 1.0);
    EXPECT_DOUBLE_EQ(splits[i].hint_selectivity, -1.0);
    ASSERT_EQ(splits.locations(i).size(), 1u);
    EXPECT_EQ(splits.locations(i)[0].node_id, splits[i].node_id);
  }
}

TEST(InputSplitsTest, EmptyMatchingMeansZero) {
  dfs::FileSystem fs(2, 2);
  auto file = *fs.CreateFile("f", 3, 10, 10);
  auto splits = *MakeInputSplits(file, {});
  ASSERT_EQ(splits->size(), 3u);
  for (SplitId i = 0; i < splits->size(); ++i) {
    EXPECT_EQ((*splits)[i].num_matching, 0u);
  }
}

TEST(InputSplitsTest, SizeMismatchRejected) {
  dfs::FileSystem fs(2, 2);
  auto file = *fs.CreateFile("f", 3, 10, 10);
  EXPECT_TRUE(
      MakeInputSplits(file, {1, 2}).status().IsInvalidArgument());
}

TEST(InputSplitTest, LegacySplitHasPrimaryLocationOnly) {
  SplitTable table;
  InputSplit split;
  split.node_id = 4;
  split.disk_id = 2;
  SplitId id = table.Add(split);
  auto locations = table.locations(id);
  ASSERT_EQ(locations.size(), 1u);
  EXPECT_EQ(locations[0].node_id, 4);
  EXPECT_EQ(locations[0].disk_id, 2);
  EXPECT_TRUE(table.IsLocalTo(id, 4));
  EXPECT_FALSE(table.IsLocalTo(id, 5));
  EXPECT_EQ(table.ReadLocationFor(id, 9).node_id, 4);
}

TEST(InputSplitTest, RowsAreTriviallyCopyable) {
  static_assert(std::is_trivially_copyable_v<InputSplit>);
  SplitTable table;
  InputSplit a;
  a.index = 7;
  a.node_id = 1;
  const SplitLocation replicas[] = {{1, 0}, {3, 1}, {5, 2}};
  SplitId first = table.Add(a, replicas);
  SplitId second = table.Add(a);
  EXPECT_EQ(first, 0u);
  EXPECT_EQ(second, 1u);
  EXPECT_EQ(table.locations(first).size(), 3u);
  EXPECT_EQ(table.locations(second).size(), 1u);
  EXPECT_EQ(table.locations(first)[2].node_id, 5);
  EXPECT_EQ(table[second].index, 7);
}

TEST(InputSplitTest, EditingACopyLeavesTheSharedTableAlone) {
  dfs::FileSystem fs(4, 2);
  auto file = *fs.CreateFile("f", 4, 10, 10, dfs::Placement::kRoundRobin, 2);
  std::shared_ptr<const SplitTable> shared = *MakeInputSplits(file, {});
  SplitTable copy = *shared;
  copy.mutable_row(1).scan_fraction = 0.0;
  copy.mutable_locations(1)[1].layout = dfs::ReplicaLayout::kIndexed;
  EXPECT_DOUBLE_EQ((*shared)[1].scan_fraction, 1.0);
  EXPECT_EQ(shared->locations(1)[1].layout, dfs::ReplicaLayout::kRow);
  EXPECT_DOUBLE_EQ(copy[1].scan_fraction, 0.0);
  EXPECT_EQ(copy.locations(1)[1].layout, dfs::ReplicaLayout::kIndexed);
}

TEST(ClusterStatusTest, AvailableSlots) {
  ClusterStatus status;
  status.total_map_slots = 40;
  status.occupied_map_slots = 15;
  EXPECT_EQ(status.available_map_slots(), 25);
}

TEST(JobProgressTest, StarvedSemantics) {
  JobProgress p;
  EXPECT_TRUE(p.starved());
  p.maps_running = 1;
  EXPECT_FALSE(p.starved());
  p.maps_running = 0;
  p.maps_pending = 1;
  EXPECT_FALSE(p.starved());
}

TEST(JobStatsTest, ResponseTime) {
  JobStats stats;
  stats.submit_time = 10.0;
  stats.finish_time = 35.5;
  EXPECT_DOUBLE_EQ(stats.response_time(), 25.5);
}

}  // namespace
}  // namespace dmr::mapred
