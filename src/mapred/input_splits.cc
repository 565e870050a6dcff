#include "mapred/input_splits.h"

namespace dmr::mapred {

SplitId SplitTable::Add(InputSplit row,
                        std::span<const SplitLocation> replicas) {
  row.first_replica = static_cast<uint32_t>(replicas_.size());
  if (replicas.empty()) {
    replicas_.push_back({row.node_id, row.disk_id});
  } else {
    replicas_.insert(replicas_.end(), replicas.begin(), replicas.end());
  }
  row.num_replicas =
      static_cast<uint32_t>(replicas_.size()) - row.first_replica;
  rows_.push_back(row);
  return static_cast<SplitId>(rows_.size() - 1);
}

Result<std::shared_ptr<const SplitTable>> MakeInputSplits(
    const dfs::FileInfo& file,
    const std::vector<uint64_t>& matching_per_partition) {
  if (!matching_per_partition.empty() &&
      matching_per_partition.size() != file.partitions.size()) {
    return Status::InvalidArgument(
        "matching_per_partition size (" +
        std::to_string(matching_per_partition.size()) +
        ") does not match partition count (" +
        std::to_string(file.partitions.size()) + ")");
  }
  size_t replicas = 0;
  for (const dfs::PartitionInfo& p : file.partitions) {
    replicas += std::max<size_t>(1, p.replicas.size());
  }
  auto table = std::make_shared<SplitTable>();
  table->Reserve(file.partitions.size(), replicas);
  std::vector<SplitLocation> locations;
  for (size_t i = 0; i < file.partitions.size(); ++i) {
    const dfs::PartitionInfo& p = file.partitions[i];
    InputSplit split;
    split.index = p.index;
    split.size_bytes = p.size_bytes;
    split.num_records = p.num_records;
    split.num_matching =
        matching_per_partition.empty() ? 0 : matching_per_partition[i];
    split.node_id = p.node_id;
    split.disk_id = p.disk_id;
    locations.clear();
    for (const dfs::Replica& replica : p.replicas) {
      locations.push_back({replica.node_id, replica.disk_id, replica.layout});
    }
    table->Add(split, locations);
  }
  return std::shared_ptr<const SplitTable>(std::move(table));
}

}  // namespace dmr::mapred
