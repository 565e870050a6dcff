#ifndef DMR_CLUSTER_NODE_STATE_H_
#define DMR_CLUSTER_NODE_STATE_H_

#include <bit>
#include <cstdint>
#include <vector>

namespace dmr::cluster {

/// \brief Struct-of-arrays storage for the hot per-node scheduling state.
///
/// Every heartbeat the scheduler and tracker consult the same few fields —
/// free map and reduce slots — for many nodes in a row. Keeping those
/// fields inside the Node objects means one pointer chase and a mostly-cold
/// cache line per node per query; at 10k nodes that dominates the
/// scheduling path. This table packs each field
/// into its own contiguous array (indexed by node id) so scans touch dense
/// memory, and maintains cluster-wide totals incrementally so the
/// aggregate queries (Cluster::free_map_slots and friends, the monitor's
/// occupancy sampling) are O(1) instead of O(nodes).
///
/// Node objects remain the cold storage (resources, observability) and
/// delegate their slot bookkeeping here, so the two views cannot diverge.
/// Map-slot lane identity (the trace renders one lane per slot) is kept as
/// a per-node busy bitmask: acquire picks the lowest free lane with a
/// count-trailing-zeros instead of the old linear scan.
///
/// A table belongs to the experiment cell that built it; nothing here is
/// synchronized.
class NodeStateTable {
 public:
  /// `map_slots_per_node` must be <= 64 (one bitmask word per node).
  NodeStateTable(int num_nodes, int map_slots_per_node,
                 int reduce_slots_per_node);

  int num_nodes() const { return num_nodes_; }
  int map_slots_per_node() const { return map_slots_; }
  int reduce_slots_per_node() const { return reduce_slots_; }

  int used_map_slots(int node) const { return used_map_[node]; }
  int free_map_slots(int node) const { return map_slots_ - used_map_[node]; }
  int used_reduce_slots(int node) const { return used_reduce_[node]; }
  int free_reduce_slots(int node) const {
    return reduce_slots_ - used_reduce_[node];
  }

  /// Acquires the lowest-numbered free map-slot lane on `node` and returns
  /// its index. Callers must check availability first.
  int AcquireMapSlot(int node);
  void ReleaseMapSlot(int node, int slot);
  void AcquireReduceSlot(int node);
  void ReleaseReduceSlot(int node);

  // Cluster-wide aggregates, maintained incrementally: O(1).
  int total_map_slots() const { return num_nodes_ * map_slots_; }
  int total_used_map_slots() const {
    return static_cast<int>(total_used_map_);
  }
  int total_free_map_slots() const {
    return total_map_slots() - static_cast<int>(total_used_map_);
  }
  int total_reduce_slots() const { return num_nodes_ * reduce_slots_; }
  int total_free_reduce_slots() const {
    return total_reduce_slots() - static_cast<int>(total_used_reduce_);
  }

 private:
  int num_nodes_;
  int map_slots_;
  int reduce_slots_;
  std::vector<int32_t> used_map_;
  std::vector<uint64_t> map_busy_;  // bit s set = lane s busy
  std::vector<int32_t> used_reduce_;
  int64_t total_used_map_ = 0;
  int64_t total_used_reduce_ = 0;
};

}  // namespace dmr::cluster

#endif  // DMR_CLUSTER_NODE_STATE_H_
