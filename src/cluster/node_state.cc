#include "cluster/node_state.h"

#include "common/logging.h"

namespace dmr::cluster {

NodeStateTable::NodeStateTable(int num_nodes, int map_slots_per_node,
                               int reduce_slots_per_node)
    : num_nodes_(num_nodes),
      map_slots_(map_slots_per_node),
      reduce_slots_(reduce_slots_per_node),
      used_map_(static_cast<std::size_t>(num_nodes), 0),
      map_busy_(static_cast<std::size_t>(num_nodes), 0),
      used_reduce_(static_cast<std::size_t>(num_nodes), 0) {
  DMR_CHECK_GE(num_nodes, 1);
  DMR_CHECK_GE(map_slots_per_node, 1);
  DMR_CHECK_LE(map_slots_per_node, 64)
      << "map-slot lanes are tracked in one bitmask word";
  DMR_CHECK_GE(reduce_slots_per_node, 0);
}

int NodeStateTable::AcquireMapSlot(int node) {
  DMR_CHECK_LT(used_map_[node], map_slots_) << "node " << node;
  const int slot = std::countr_zero(~map_busy_[node]);
  map_busy_[node] |= uint64_t{1} << slot;
  ++used_map_[node];
  ++total_used_map_;
  return slot;
}

void NodeStateTable::ReleaseMapSlot(int node, int slot) {
  DMR_CHECK_GT(used_map_[node], 0) << "node " << node;
  DMR_CHECK_GE(slot, 0) << "node " << node;
  DMR_CHECK_LT(slot, map_slots_) << "node " << node;
  DMR_CHECK(map_busy_[node] & (uint64_t{1} << slot))
      << "node " << node << " slot " << slot;
  map_busy_[node] &= ~(uint64_t{1} << slot);
  --used_map_[node];
  --total_used_map_;
}

void NodeStateTable::AcquireReduceSlot(int node) {
  DMR_CHECK_LT(used_reduce_[node], reduce_slots_) << "node " << node;
  ++used_reduce_[node];
  ++total_used_reduce_;
}

void NodeStateTable::ReleaseReduceSlot(int node) {
  DMR_CHECK_GT(used_reduce_[node], 0) << "node " << node;
  --used_reduce_[node];
  --total_used_reduce_;
}

}  // namespace dmr::cluster
