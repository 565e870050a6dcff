#ifndef DMR_OBS_LEDGER_H_
#define DMR_OBS_LEDGER_H_

#include <cstdint>
#include <map>
#include <vector>

#include "obs/lifecycle.h"

namespace dmr::obs {

/// Where every simulated slot-second of the run went. The six categories
/// partition `nodes x slots_per_node x makespan` exactly (asserted when the
/// ledger is resolved):
///
///   kUseful       map attempt time that contributed to the LIMIT-k sample
///                 (busy time of completed, non-backup attempts before the
///                 job's sample became satisfiable)
///   kWasted       busy time of completed attempts spent *after* the job's
///                 sample was already satisfiable — the paper's "wasted
///                 work" metric (Section V): splits processed past the
///                 point where k matching records existed
///   kSpeculative  busy time of killed attempts (the losing copies of a
///                 speculative race — whichever copy completes first counts
///                 as useful/wasted) and of failed attempts (work discarded
///                 regardless of timing)
///   kQueueing     free slot time while some job had runnable pending
///                 splits that simply hadn't been scheduled here yet
///   kProviderWait free slot time while the only unfinished jobs were
///                 starved waiting on an Input Provider decision
///   kIdle         free slot time with no demand at all
enum class SlotCategory : uint8_t {
  kUseful = 0,
  kWasted,
  kSpeculative,
  kQueueing,
  kProviderWait,
  kIdle,
};
inline constexpr int kNumSlotCategories = 6;

const char* SlotCategoryName(SlotCategory category);

/// \brief Per-cell slot-time ledger. Records raw slot occupancy events
/// during the simulation (single-threaded, same model as TraceStream) and
/// attributes every slot-second to a SlotCategory at Resolve() time.
///
/// The recording API mirrors the cluster's actual lifecycle:
///  - Node::AcquireMapSlot/ReleaseMapSlot mark busy intervals;
///  - everything else arrives as JobTracker lifecycle records through
///    Cell::Record: each attempt's outcome (completed / backup / killed /
///    failed) just before its slot is released, the instant a job's
///    sample first became satisfiable, the cluster-wide demand state after
///    every event that can change it (splits pending -> queueing; all
///    mapping jobs starved on the provider -> provider-wait; no demand ->
///    idle), the fair scheduler's delay-scheduling holds (diagnostic
///    only), and quiescence (no job in flight).
///
/// Attribution happens per slot with a two-pointer sweep over the busy
/// intervals and the demand-state step function, so Resolve() is
/// O(events log events) and recording stays allocation-amortized
/// (vector pushes only).
class Ledger {
 public:
  Ledger(int num_nodes, int map_slots_per_node);

  // --- recording ----------------------------------------------------------

  void OnSlotAcquired(int node, int slot, double t);
  void OnSlotReleased(int node, int slot, double t);
  /// Outcome (kOk, kFailed or kKilled) of the attempt occupying
  /// (node, slot); must be called before the matching OnSlotReleased.
  void OnAttemptOutcome(int node, int slot, int job, Outcome outcome);
  /// First time `job`'s cumulative matching output reached its LIMIT k.
  void OnSampleSatisfiable(int job, double t);
  /// Cluster-wide demand state for free slots, as a step function of time.
  using FreeState = obs::FreeState;
  void OnFreeState(FreeState state, double t);
  void OnDelayHold() { ++delay_holds_; }
  /// The tracker went quiescent (no active jobs). The last such mark wins
  /// and bounds the makespan; cleared again if more work arrives.
  void MarkQuiescent(double t);
  void ClearQuiescent() { quiescent_valid_ = false; }

  /// Closes the ledger at simulated time `t` (testbed teardown). The
  /// makespan becomes the quiescence mark if one is pending, else `t`,
  /// never earlier than the last recorded busy event.
  void Seal(double t);
  bool sealed() const { return sealed_; }

  // --- resolution ---------------------------------------------------------

  struct Totals {
    double seconds[kNumSlotCategories] = {};
    double makespan = 0.0;
    /// nodes x slots_per_node x makespan; the category sum is checked
    /// against this at resolve time.
    double expected_total = 0.0;
    int64_t delay_holds = 0;
    int64_t attempts_completed = 0;
    int64_t attempts_speculative = 0;
    double sum() const {
      double s = 0.0;
      for (double v : seconds) s += v;
      return s;
    }
  };

  /// Attributes every slot-second and asserts the exhaustiveness invariant
  /// (sum == expected_total within float tolerance). Requires Seal().
  Totals Resolve() const;

  int num_nodes() const { return num_nodes_; }
  int map_slots_per_node() const { return map_slots_per_node_; }

 private:
  struct BusyInterval {
    double begin = 0.0;
    double end = -1.0;  // open until released
    int job = -1;
    Outcome outcome = Outcome::kNone;  // kNone: still running
  };
  struct FreeTransition {
    double t;
    FreeState state;
  };

  int SlotIndex(int node, int slot) const;

  int num_nodes_;
  int map_slots_per_node_;
  /// Per (node, slot) busy intervals, in time order (slots are serially
  /// reused, so intervals never overlap within one slot).
  std::vector<std::vector<BusyInterval>> busy_;
  std::vector<FreeTransition> free_states_;
  std::map<int, double> satisfiable_;  // job -> first-satisfiable time
  int64_t delay_holds_ = 0;
  double last_event_time_ = 0.0;
  bool quiescent_valid_ = false;
  double quiescent_time_ = 0.0;
  bool sealed_ = false;
  double makespan_ = 0.0;
};

}  // namespace dmr::obs

#endif  // DMR_OBS_LEDGER_H_
