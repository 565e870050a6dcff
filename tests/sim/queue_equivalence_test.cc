/// \file
/// The calendar/heap equivalence contract (DESIGN.md §14), checked as a
/// randomized property: for hundreds of seeded random event programs —
/// cascading schedules, deliberate virtual-time ties, cancellations,
/// detached events — the calendar queue must fire
/// the exact (id, time) sequence the binary-heap oracle fires, with and
/// without tie shuffling.
///
/// The programs consume their RNG inside event callbacks, so any ordering
/// divergence immediately desynchronizes the two traces instead of being
/// masked by later coincidences.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <random>
#include <utility>
#include <vector>

#include "sim/simulation.h"

namespace dmr::sim {
namespace {

struct Firing {
  int id;
  SimTime time;
  bool operator==(const Firing& other) const {
    return id == other.id && time == other.time;
  }
};

/// A seeded random event cascade. Times are drawn from a coarse 0.25 s
/// grid so same-instant ties (the interesting case for ordering) are
/// common; roughly half the events are detached, a quarter of the seeded
/// cancellable ones are cancelled (exercising tombstone compaction in
/// both queue kinds), and fired events sometimes schedule children.
class RandomProgram {
 public:
  RandomProgram(Simulation* sim, uint64_t seed) : sim_(sim), rng_(seed) {}

  void Seed(int n) {
    for (int i = 0; i < n; ++i) ScheduleOne(/*depth=*/0);
    for (std::size_t i = 0; i < handles_.size(); i += 4) {
      handles_[i].Cancel();
    }
  }

  std::vector<Firing> trace;

 private:
  void ScheduleOne(int depth) {
    static constexpr EventClass kClasses[] = {
        EventClass::kTaskLifecycle, EventClass::kInputGrowth,
        EventClass::kScheduling, EventClass::kDefault,
        EventClass::kBookkeeping};
    const int id = next_id_++;
    const SimTime when =
        sim_->Now() + 0.25 * static_cast<double>(rng_() % 200 + 1);
    const EventClass cls = kClasses[rng_() % 5];
    auto fire = [this, id, depth] {
      trace.push_back({id, sim_->Now()});
      // The RNG is consumed in firing order: a single out-of-order event
      // shifts every later draw, so divergence cannot cancel out.
      if (depth < 2 && rng_() % 3 == 0) ScheduleOne(depth + 1);
    };
    if (rng_() % 2 == 0) {
      handles_.push_back(sim_->ScheduleAt(when, cls, fire));
    } else {
      sim_->ScheduleDetachedAt(when, cls, fire);
    }
  }

  Simulation* sim_;
  std::mt19937_64 rng_;
  int next_id_ = 0;
  std::vector<EventHandle> handles_;
};

std::vector<Firing> RunProgram(uint64_t seed, QueueKind kind,
                               std::optional<uint64_t> shuffle_seed,
                               uint64_t* fired_out = nullptr) {
  SimulationOptions options;
  options.queue = kind;
  // Deliberately small near-future tier so programs spill into the
  // overflow tier and exercise Refill/rebase, not just bucket drains.
  options.bucket_width = 0.375;
  options.num_buckets = 64;
  Simulation sim(options);
  if (shuffle_seed.has_value()) sim.EnableTieShuffle(*shuffle_seed);
  RandomProgram program(&sim, seed);
  program.Seed(/*n=*/60);
  const uint64_t fired = sim.RunUntil(1000.0);
  if (fired_out != nullptr) *fired_out = fired;
  EXPECT_EQ(sim.live_size(), 0u) << "program did not drain";
  return std::move(program.trace);
}

TEST(QueueEquivalenceTest, RandomProgramsFireIdenticallyOnBothQueues) {
  for (uint64_t seed = 1; seed <= 500; ++seed) {
    uint64_t fired_calendar = 0;
    uint64_t fired_heap = 0;
    std::vector<Firing> calendar =
        RunProgram(seed, QueueKind::kCalendar, std::nullopt, &fired_calendar);
    std::vector<Firing> heap =
        RunProgram(seed, QueueKind::kBinaryHeap, std::nullopt, &fired_heap);
    ASSERT_EQ(calendar, heap) << "trace divergence at seed " << seed;
    ASSERT_EQ(fired_calendar, fired_heap) << "count mismatch at seed "
                                          << seed;
    ASSERT_GE(calendar.size(), 45u)
        << "degenerate program at seed " << seed;
  }
}

TEST(QueueEquivalenceTest, ShuffleSeedsPreserveEquivalence) {
  // Under tie shuffling both kinds must still produce one identical total
  // order per (program, shuffle seed): EventAfter is the single source of
  // truth for order, the queues only differ in how they realize it.
  for (uint64_t shuffle_seed : {7u, 23u, 41u, 97u, 1009u}) {
    for (uint64_t seed = 1; seed <= 25; ++seed) {
      std::vector<Firing> calendar =
          RunProgram(seed, QueueKind::kCalendar, shuffle_seed);
      std::vector<Firing> heap =
          RunProgram(seed, QueueKind::kBinaryHeap, shuffle_seed);
      ASSERT_EQ(calendar, heap)
          << "shuffled trace divergence at program seed " << seed
          << ", shuffle seed " << shuffle_seed;
    }
  }
}

TEST(QueueEquivalenceTest, ShuffleActuallyExercisesDifferentTieOrders) {
  // Sanity that the equivalence-under-shuffle property is not vacuous:
  // at least one shuffle seed must yield a trace different from the
  // unshuffled one, i.e. the random programs really do contain ties.
  // (Traces may differ in content, not just order: the cascade draws its
  // RNG in firing order, so a reordered tie changes later decisions.)
  std::vector<Firing> base =
      RunProgram(/*seed=*/3, QueueKind::kCalendar, std::nullopt);
  bool any_reorder = false;
  for (uint64_t shuffle_seed : {7u, 23u, 41u}) {
    std::vector<Firing> shuffled =
        RunProgram(/*seed=*/3, QueueKind::kCalendar, shuffle_seed);
    if (!(shuffled == base)) any_reorder = true;
  }
  EXPECT_TRUE(any_reorder)
      << "no shuffle seed produced a different tie order; the program has "
         "no effective ties and the property tests above are vacuous";
}

}  // namespace
}  // namespace dmr::sim
