#include "obs/ledger.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace dmr::obs {

const char* SlotCategoryName(SlotCategory category) {
  switch (category) {
    case SlotCategory::kUseful: return "useful";
    case SlotCategory::kWasted: return "wasted";
    case SlotCategory::kSpeculative: return "speculative";
    case SlotCategory::kQueueing: return "queueing";
    case SlotCategory::kProviderWait: return "provider_wait";
    case SlotCategory::kIdle: return "idle";
  }
  return "unknown";
}

Ledger::Ledger(int num_nodes, int map_slots_per_node)
    : num_nodes_(num_nodes),
      map_slots_per_node_(map_slots_per_node),
      busy_(static_cast<size_t>(num_nodes) * map_slots_per_node) {}

int Ledger::SlotIndex(int node, int slot) const {
  DMR_CHECK(node >= 0 && node < num_nodes_) << "ledger node " << node;
  DMR_CHECK(slot >= 0 && slot < map_slots_per_node_) << "ledger slot "
                                                     << slot;
  return node * map_slots_per_node_ + slot;
}

void Ledger::OnSlotAcquired(int node, int slot, double t) {
  auto& intervals = busy_[SlotIndex(node, slot)];
  DMR_CHECK(intervals.empty() || intervals.back().end >= 0.0)
      << "slot acquired while busy (node " << node << " slot " << slot << ")";
  BusyInterval iv;
  iv.begin = t;
  intervals.push_back(iv);
  last_event_time_ = std::max(last_event_time_, t);
}

void Ledger::OnSlotReleased(int node, int slot, double t) {
  auto& intervals = busy_[SlotIndex(node, slot)];
  DMR_CHECK(!intervals.empty() && intervals.back().end < 0.0)
      << "slot released while free (node " << node << " slot " << slot << ")";
  intervals.back().end = t;
  last_event_time_ = std::max(last_event_time_, t);
}

void Ledger::OnAttemptOutcome(int node, int slot, int job, Outcome outcome) {
  auto& intervals = busy_[SlotIndex(node, slot)];
  DMR_CHECK(!intervals.empty() && intervals.back().end < 0.0)
      << "attempt outcome on a free slot (node " << node << " slot " << slot
      << ")";
  intervals.back().job = job;
  intervals.back().outcome = outcome;
}

void Ledger::OnSampleSatisfiable(int job, double t) {
  satisfiable_.emplace(job, t);  // first call wins
}

void Ledger::OnFreeState(FreeState state, double t) {
  if (!free_states_.empty()) {
    FreeTransition& last = free_states_.back();
    if (last.state == state) return;
    if (last.t == t) {
      last.state = state;
      return;
    }
    DMR_CHECK(t >= last.t) << "free-state transitions must be time-ordered";
  } else if (state == FreeState::kIdle) {
    return;  // idle is the implicit initial state
  }
  free_states_.push_back({t, state});
}

void Ledger::MarkQuiescent(double t) {
  quiescent_valid_ = true;
  quiescent_time_ = std::max(t, last_event_time_);
}

void Ledger::Seal(double t) {
  if (sealed_) return;
  // RunJobToCompletion advances the simulation in coarse chunks, so the
  // teardown clock usually overshoots the real end of work; prefer the
  // tracker's quiescence mark when one is pending.
  makespan_ = quiescent_valid_ ? quiescent_time_ : t;
  makespan_ = std::max(makespan_, last_event_time_);
  sealed_ = true;
}

Ledger::Totals Ledger::Resolve() const {
  DMR_CHECK(sealed_) << "Ledger::Resolve requires Seal()";
  Totals totals;
  totals.makespan = makespan_;
  totals.expected_total =
      static_cast<double>(num_nodes_) * map_slots_per_node_ * makespan_;
  totals.delay_holds = delay_holds_;

  for (const auto& intervals : busy_) {
    double cursor = 0.0;  // start of the current free gap in this slot
    size_t free_idx = 0;  // sweep pointer into free_states_

    auto attribute_free = [&](double a, double b) {
      if (b <= a) return;
      // Advance to the transition governing time `a` (the last one <= a);
      // before any transition the cluster is idle.
      while (free_idx < free_states_.size() && free_states_[free_idx].t <= a) {
        ++free_idx;
      }
      double pos = a;
      FreeState state = free_idx == 0 ? FreeState::kIdle
                                      : free_states_[free_idx - 1].state;
      size_t i = free_idx;
      while (pos < b) {
        double next = i < free_states_.size()
                          ? std::min(free_states_[i].t, b)
                          : b;
        SlotCategory cat = state == FreeState::kQueue
                               ? SlotCategory::kQueueing
                               : state == FreeState::kProviderWait
                                     ? SlotCategory::kProviderWait
                                     : SlotCategory::kIdle;
        totals.seconds[static_cast<int>(cat)] += next - pos;
        pos = next;
        if (i < free_states_.size() && free_states_[i].t <= b) {
          state = free_states_[i].state;
          ++i;
        }
      }
    };

    for (const BusyInterval& iv : intervals) {
      double begin = std::min(iv.begin, makespan_);
      double end = iv.end < 0.0 ? makespan_ : std::min(iv.end, makespan_);
      attribute_free(cursor, begin);
      cursor = std::max(cursor, end);

      if (end <= begin) continue;
      if (iv.outcome != Outcome::kNone && iv.outcome != Outcome::kOk) {
        // Killed and failed attempts: discarded work.
        totals.seconds[static_cast<int>(SlotCategory::kSpeculative)] +=
            end - begin;
        ++totals.attempts_speculative;
        continue;
      }
      // Completed (or still-running-at-seal) map work: useful until the
      // job's sample became satisfiable, wasted afterwards. Jobs whose
      // sample never filled (k = 0, or the input ran out first) have no
      // satisfiability instant — all their processing counted.
      ++totals.attempts_completed;
      double sat = makespan_;
      if (auto it = satisfiable_.find(iv.job); it != satisfiable_.end()) {
        sat = it->second;
      }
      double useful_end = std::clamp(sat, begin, end);
      totals.seconds[static_cast<int>(SlotCategory::kUseful)] +=
          useful_end - begin;
      totals.seconds[static_cast<int>(SlotCategory::kWasted)] +=
          end - useful_end;
    }
    attribute_free(cursor, makespan_);
  }

  double tolerance = 1e-6 * std::max(1.0, totals.expected_total);
  DMR_CHECK(std::fabs(totals.sum() - totals.expected_total) <= tolerance)
      << "slot-time ledger is not exhaustive: categories sum to "
      << totals.sum() << " but nodes*slots*makespan = "
      << totals.expected_total;
  return totals;
}

}  // namespace dmr::obs
