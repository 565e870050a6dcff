#ifndef DMR_CLUSTER_NODE_H_
#define DMR_CLUSTER_NODE_H_

#include <memory>
#include <vector>

#include "cluster/cluster_config.h"
#include "cluster/node_state.h"
#include "obs/book.h"
#include "sim/ps_resource.h"
#include "sim/simulation.h"

namespace dmr::cluster {

/// \brief One simulated worker machine: CPU cores, disks, and the map/reduce
/// slot bookkeeping that a Hadoop TaskTracker would advertise.
///
/// The hot scheduling fields (slot counts, lane bitmask) live in the
/// cluster's NodeStateTable (struct-of-arrays, scanned by the schedulers);
/// Node is the cold storage — resources and observability — and its slot
/// API delegates to the table so the two views cannot diverge.
class Node {
 public:
  Node(sim::Simulation* sim, const ClusterConfig& config, int node_id,
       NodeStateTable* state);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  int id() const { return id_; }

  /// Processor-shared CPU: capacity = cores (core-seconds/s), one task can
  /// use at most one core.
  sim::PsResource* cpu() { return cpu_.get(); }

  sim::PsResource* disk(int disk_id) { return disks_[disk_id].get(); }
  int num_disks() const { return static_cast<int>(disks_.size()); }

  int map_slots() const { return state_->map_slots_per_node(); }
  int reduce_slots() const { return state_->reduce_slots_per_node(); }
  int used_map_slots() const { return state_->used_map_slots(id_); }
  int used_reduce_slots() const { return state_->used_reduce_slots(id_); }
  int free_map_slots() const { return state_->free_map_slots(id_); }
  int free_reduce_slots() const { return state_->free_reduce_slots(id_); }

  /// Acquires the lowest-numbered free map slot and returns its index
  /// (stable per-slot identity — the trace renders one lane per slot).
  /// Callers must check availability first.
  int AcquireMapSlot();
  void ReleaseMapSlot(int slot);
  void AcquireReduceSlot();
  void ReleaseReduceSlot();

  /// Attaches observability (nullable; emits a per-node slot-occupancy
  /// counter track when a trace stream is present).
  void set_obs(obs::Cell* obs) { obs_ = obs; }

 private:
  void EmitSlotOccupancy();

  int id_;
  NodeStateTable* state_;
  sim::Simulation* sim_;
  obs::Cell* obs_ = nullptr;
  std::unique_ptr<sim::PsResource> cpu_;
  std::vector<std::unique_ptr<sim::PsResource>> disks_;
};

}  // namespace dmr::cluster

#endif  // DMR_CLUSTER_NODE_H_
