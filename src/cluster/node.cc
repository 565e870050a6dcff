#include "cluster/node.h"

#include <string>

#include "common/logging.h"

namespace dmr::cluster {

Node::Node(sim::Simulation* sim, const ClusterConfig& config, int node_id,
           NodeStateTable* state)
    : id_(node_id), state_(state), sim_(sim) {
  cpu_ = std::make_unique<sim::PsResource>(
      sim, "node" + std::to_string(node_id) + ".cpu",
      static_cast<double>(config.cores_per_node), /*per_request_cap=*/1.0);
  disks_.reserve(config.disks_per_node);
  for (int d = 0; d < config.disks_per_node; ++d) {
    disks_.push_back(std::make_unique<sim::PsResource>(
        sim,
        "node" + std::to_string(node_id) + ".disk" + std::to_string(d),
        config.disk_bandwidth, config.disk_bandwidth));
  }
}

void Node::EmitSlotOccupancy() {
  if (obs_ != nullptr && obs_->trace() != nullptr) {
    obs_->trace()->Counter(sim_->Now(), id_, "map_slots", "used",
                           static_cast<double>(used_map_slots()));
  }
}

int Node::AcquireMapSlot() {
  const int slot = state_->AcquireMapSlot(id_);
  EmitSlotOccupancy();
  if (obs_ != nullptr) obs_->ledger()->OnSlotAcquired(id_, slot, sim_->Now());
  return slot;
}

void Node::ReleaseMapSlot(int slot) {
  state_->ReleaseMapSlot(id_, slot);
  EmitSlotOccupancy();
  if (obs_ != nullptr) obs_->ledger()->OnSlotReleased(id_, slot, sim_->Now());
}

void Node::AcquireReduceSlot() { state_->AcquireReduceSlot(id_); }

void Node::ReleaseReduceSlot() { state_->ReleaseReduceSlot(id_); }

}  // namespace dmr::cluster
