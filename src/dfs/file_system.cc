#include "dfs/file_system.h"

#include "common/logging.h"

namespace dmr::dfs {

const char* ReplicaLayoutToString(ReplicaLayout layout) {
  switch (layout) {
    case ReplicaLayout::kRow:
      return "row";
    case ReplicaLayout::kColumnar:
      return "columnar";
    case ReplicaLayout::kIndexed:
      return "indexed";
  }
  return "unknown";
}

int LayoutQuality(ReplicaLayout layout) {
  return static_cast<int>(layout);
}

void ApplyDivergentLayouts(FileInfo* file) {
  DMR_CHECK(file != nullptr);
  for (auto& p : file->partitions) {
    for (size_t r = 0; r < p.replicas.size(); ++r) {
      p.replicas[r].layout =
          static_cast<ReplicaLayout>((p.index + static_cast<int>(r)) % 3);
    }
  }
}

uint64_t FileInfo::total_bytes() const {
  uint64_t total = 0;
  for (const auto& p : partitions) total += p.size_bytes;
  return total;
}

uint64_t FileInfo::total_records() const {
  uint64_t total = 0;
  for (const auto& p : partitions) total += p.num_records;
  return total;
}

FileSystem::FileSystem(int num_nodes, int disks_per_node)
    : num_nodes_(num_nodes), disks_per_node_(disks_per_node) {
  DMR_CHECK_GT(num_nodes, 0);
  DMR_CHECK_GT(disks_per_node, 0);
}

Result<FileInfo> FileSystem::CreateFile(const std::string& name,
                                        int num_partitions,
                                        uint64_t records_per_partition,
                                        uint64_t bytes_per_record,
                                        Placement placement,
                                        int replication) {
  if (files_.count(name)) {
    return Status::AlreadyExists("file '" + name + "' already exists");
  }
  if (num_partitions <= 0) {
    return Status::InvalidArgument("num_partitions must be > 0");
  }
  if (replication < 1) {
    return Status::InvalidArgument("replication must be >= 1");
  }
  if (replication > num_nodes_) {
    return Status::InvalidArgument(
        "replication factor exceeds the number of nodes");
  }
  FileInfo file;
  file.name = name;
  file.partitions.reserve(num_partitions);
  int total_disks = num_nodes_ * disks_per_node_;
  for (int i = 0; i < num_partitions; ++i) {
    PartitionInfo p;
    p.index = i;
    p.num_records = records_per_partition;
    p.size_bytes = records_per_partition * bytes_per_record;
    switch (placement) {
      case Placement::kRoundRobin: {
        int slot = i % total_disks;
        p.node_id = slot / disks_per_node_;
        p.disk_id = slot % disks_per_node_;
        break;
      }
      case Placement::kSingleDisk:
        p.node_id = 0;
        p.disk_id = 0;
        break;
    }
    p.replicas.push_back({p.node_id, p.disk_id});
    // Extra replicas go to the next nodes (distinct from the primary and
    // each other), cycling the disk with the partition index.
    for (int r = 1; r < replication; ++r) {
      Replica replica;
      replica.node_id = (p.node_id + r) % num_nodes_;
      replica.disk_id = (p.disk_id + r) % disks_per_node_;
      p.replicas.push_back(replica);
    }
    file.partitions.push_back(p);
  }
  files_[name] = file;
  CountPlacement(file);
  return file;
}

void FileSystem::CountPlacement(const FileInfo& file) {
  if (obs_ == nullptr) return;
  obs_->Count(obs::Counter::kDfsFilesCreated);
  obs_->Count(obs::Counter::kDfsPartitionsPlaced, file.num_partitions());
  obs_->Count(obs::Counter::kDfsBytesPlaced,
              static_cast<int64_t>(file.total_bytes()));
}

Status FileSystem::AddFile(FileInfo file) {
  if (files_.count(file.name)) {
    return Status::AlreadyExists("file '" + file.name + "' already exists");
  }
  for (const auto& p : file.partitions) {
    if (p.node_id < 0 || p.node_id >= num_nodes_ || p.disk_id < 0 ||
        p.disk_id >= disks_per_node_) {
      return Status::InvalidArgument("partition " + std::to_string(p.index) +
                                     " placed outside the cluster grid");
    }
  }
  CountPlacement(file);
  files_[file.name] = std::move(file);
  return Status::OK();
}

Result<FileInfo> FileSystem::GetFile(const std::string& name) const {
  auto it = files_.find(name);
  if (it == files_.end()) {
    return Status::NotFound("file '" + name + "' does not exist");
  }
  return it->second;
}

bool FileSystem::Exists(const std::string& name) const {
  return files_.count(name) > 0;
}

Status FileSystem::DeleteFile(const std::string& name) {
  auto it = files_.find(name);
  if (it == files_.end()) {
    return Status::NotFound("file '" + name + "' does not exist");
  }
  files_.erase(it);
  return Status::OK();
}

std::vector<std::string> FileSystem::ListFiles() const {
  std::vector<std::string> names;
  names.reserve(files_.size());
  for (const auto& [name, file] : files_) names.push_back(name);
  return names;
}

}  // namespace dmr::dfs
