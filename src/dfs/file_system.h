#ifndef DMR_DFS_FILE_SYSTEM_H_
#define DMR_DFS_FILE_SYSTEM_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "obs/book.h"

namespace dmr::dfs {

/// \brief Physical layout of one stored replica copy.
///
/// Following "Only Aggressive Elephants are Fast Elephants" (Dittrich et
/// al.), each copy of a partition may keep its own layout, so the
/// scheduler can pick the cheapest copy for a filtered scan rather than
/// merely the closest. kRow is the paper's plain un-indexed file (full
/// read always); kColumnar reads only the predicate's columns and can
/// skip the whole split when stats prove it empty; kIndexed additionally
/// carries a piggybacked zone-map index and seeks straight to qualifying
/// row ranges.
enum class ReplicaLayout : uint8_t { kRow = 0, kColumnar = 1, kIndexed = 2 };

const char* ReplicaLayoutToString(ReplicaLayout layout);

/// Scan-cost rank of a layout for a filtered scan (higher reads less):
/// kRow 0, kColumnar 1, kIndexed 2.
int LayoutQuality(ReplicaLayout layout);

/// \brief One stored copy of a partition.
struct Replica {
  int node_id = 0;
  int disk_id = 0;
  ReplicaLayout layout = ReplicaLayout::kRow;

  /// Location identity only; two copies of the same partition in
  /// different layouts are still the same placement slot.
  bool operator==(const Replica& other) const {
    return node_id == other.node_id && disk_id == other.disk_id;
  }
};

/// \brief One stored partition (input split) of a DFS file.
///
/// The paper stores each dataset evenly across the cluster's 40 disks with
/// no replication (Section V-B) — the default here. Files may also be
/// created with a replication factor > 1 (HDFS defaults to 3), in which
/// case a partition has several candidate read locations.
struct PartitionInfo {
  /// Index of the partition within its file (0-based).
  int index = 0;
  uint64_t size_bytes = 0;
  uint64_t num_records = 0;
  /// Primary location (always replicas.front()).
  int node_id = 0;
  int disk_id = 0;
  /// All locations, primary first. Empty means "primary only" (legacy
  /// construction); use locations() to read uniformly.
  std::vector<Replica> replicas;

  /// All candidate read locations (primary first), replica-aware.
  std::vector<Replica> locations() const {
    if (!replicas.empty()) return replicas;
    return {Replica{node_id, disk_id}};
  }
};

/// \brief Metadata for a DFS file: an ordered list of partitions.
struct FileInfo {
  std::string name;
  std::vector<PartitionInfo> partitions;

  uint64_t total_bytes() const;
  uint64_t total_records() const;
  int num_partitions() const { return static_cast<int>(partitions.size()); }
};

/// Tags every replica of `file` with a divergent layout, cycling
/// row/columnar/indexed: replica r of partition i carries layout
/// (i + r) mod 3. Deterministic, and with replication >= 3 every
/// partition has one copy of each layout (Dittrich et al.); with fewer
/// replicas the mix still varies per partition, so both the scheduler's
/// layout-vs-locality trade-off and the remote-read layout choice are
/// exercised.
void ApplyDivergentLayouts(FileInfo* file);

/// \brief Placement strategies for new files.
enum class Placement {
  /// Cycle partitions over every (node, disk) pair — the paper's balanced,
  /// unreplicated layout.
  kRoundRobin,
  /// All partitions on node 0 / disk 0 (for failure-mode tests).
  kSingleDisk,
};

/// \brief A simulated distributed filesystem namespace.
///
/// Tracks only metadata: partition sizes, record counts and home locations.
/// Actual record content for small datasets is materialized separately by
/// the TPC-H generator (tpch/) and executed by the LocalRuntime (exec/).
class FileSystem {
 public:
  /// \param num_nodes / disks_per_node  the placement grid.
  FileSystem(int num_nodes, int disks_per_node);

  /// Creates a file of `num_partitions` equal partitions.
  ///
  /// \param records_per_partition  logical record count per partition.
  /// \param bytes_per_record       average serialized record size.
  /// \param placement              primary-replica placement strategy.
  /// \param replication            copies per partition (>= 1); extra
  ///        replicas land on distinct nodes after the primary (HDFS-style).
  ///        The paper's datasets use 1 (no replication, Section V-B).
  Result<FileInfo> CreateFile(const std::string& name, int num_partitions,
                              uint64_t records_per_partition,
                              uint64_t bytes_per_record,
                              Placement placement = Placement::kRoundRobin,
                              int replication = 1);

  /// Registers a pre-built file (e.g. with heterogeneous partition sizes).
  Status AddFile(FileInfo file);

  Result<FileInfo> GetFile(const std::string& name) const;

  bool Exists(const std::string& name) const;

  Status DeleteFile(const std::string& name);

  std::vector<std::string> ListFiles() const;

  int num_nodes() const { return num_nodes_; }
  int disks_per_node() const { return disks_per_node_; }

  /// Attaches observability (nullable; counts files/partitions/bytes
  /// entering the namespace when set).
  void set_obs(obs::Cell* obs) { obs_ = obs; }

 private:
  /// Counts one registered file's placement into the dfs.* metrics.
  void CountPlacement(const FileInfo& file);

  int num_nodes_;
  int disks_per_node_;
  obs::Cell* obs_ = nullptr;
  std::map<std::string, FileInfo> files_;
};

}  // namespace dmr::dfs

#endif  // DMR_DFS_FILE_SYSTEM_H_
