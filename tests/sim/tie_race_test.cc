#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/simulation.h"

namespace dmr::sim {
namespace {

TEST(TieRaceDetectorTest, CountsSameInstantSameClassGroups) {
  Simulation sim;
  sim.Schedule(1.0, [] {});
  sim.Schedule(1.0, [] {});
  sim.Schedule(1.0, [] {});
  sim.Schedule(2.0, [] {});
  sim.RunUntil(100.0);
  EXPECT_EQ(sim.tie_stats().groups, 1u);
  EXPECT_EQ(sim.tie_stats().tied_events, 3u);
  EXPECT_EQ(sim.tie_stats().max_group, 3u);
}

TEST(TieRaceDetectorTest, DistinctTimesAreNotTies) {
  Simulation sim;
  sim.Schedule(1.0, [] {});
  sim.Schedule(2.0, [] {});
  sim.Schedule(3.0, [] {});
  sim.RunUntil(100.0);
  EXPECT_EQ(sim.tie_stats().groups, 0u);
  EXPECT_EQ(sim.tie_stats().tied_events, 0u);
}

TEST(TieRaceDetectorTest, DistinctClassesAtOneInstantAreNotTies) {
  // Cross-class order at one instant is fixed by the phase contract, so
  // simultaneous events of different classes are not racy.
  Simulation sim;
  sim.Schedule(1.0, EventClass::kTaskLifecycle, [] {});
  sim.Schedule(1.0, EventClass::kScheduling, [] {});
  sim.Schedule(1.0, EventClass::kBookkeeping, [] {});
  sim.RunUntil(100.0);
  EXPECT_EQ(sim.tie_stats().groups, 0u);
  EXPECT_EQ(sim.tie_stats().tied_events, 0u);
}

TEST(TieRaceDetectorTest, TracksSeveralGroupsAndTheMaximum) {
  Simulation sim;
  for (int i = 0; i < 2; ++i) sim.Schedule(1.0, [] {});
  for (int i = 0; i < 4; ++i) sim.Schedule(2.0, [] {});
  sim.RunUntil(100.0);
  EXPECT_EQ(sim.tie_stats().groups, 2u);
  EXPECT_EQ(sim.tie_stats().tied_events, 6u);
  EXPECT_EQ(sim.tie_stats().max_group, 4u);
}

TEST(TieShuffleTest, ClassPhaseOrderHoldsForEverySeed) {
  // Insertion order is the reverse of phase order; firing order must be
  // phase order, with or without shuffling.
  for (std::optional<uint64_t> seed :
       {std::optional<uint64_t>(), std::optional<uint64_t>(7),
        std::optional<uint64_t>(991)}) {
    Simulation sim;
    if (seed.has_value()) sim.EnableTieShuffle(*seed);
    std::string order;
    sim.Schedule(1.0, EventClass::kBookkeeping, [&order] { order += 'B'; });
    sim.Schedule(1.0, EventClass::kDefault, [&order] { order += 'D'; });
    sim.Schedule(1.0, EventClass::kScheduling, [&order] { order += 'S'; });
    sim.Schedule(1.0, EventClass::kInputGrowth, [&order] { order += 'I'; });
    sim.Schedule(1.0, EventClass::kTaskLifecycle,
                 [&order] { order += 'T'; });
    sim.RunUntil(100.0);
    EXPECT_EQ(order, "TISDB");
  }
}

std::vector<int> FiringOrder(std::optional<uint64_t> seed, int n) {
  Simulation sim;
  if (seed.has_value()) sim.EnableTieShuffle(*seed);
  std::vector<int> order;
  for (int i = 0; i < n; ++i) {
    sim.Schedule(1.0, [&order, i] { order.push_back(i); });
  }
  sim.RunUntil(100.0);
  return order;
}

TEST(TieShuffleTest, PermutesWithinClassReproducibly) {
  const int n = 8;
  std::vector<int> insertion = FiringOrder(std::nullopt, n);
  std::vector<int> expected(n);
  for (int i = 0; i < n; ++i) expected[i] = i;
  EXPECT_EQ(insertion, expected);  // default: insertion order

  // The shuffle hashes the packed event key (class << 56 | seq), so these
  // permutations change if the key layout or the hash ever does — which
  // would silently move every --shuffle-ties digest.
  const std::vector<std::vector<int>> pinned = {
      {1, 5, 3, 4, 2, 0, 7, 6},
      {2, 6, 0, 7, 1, 3, 4, 5},
      {3, 7, 1, 6, 0, 2, 5, 4},
      {4, 0, 6, 1, 7, 5, 2, 3},
      {5, 1, 7, 0, 6, 4, 3, 2},
  };
  bool any_permuted = false;
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    std::vector<int> a = FiringOrder(seed, n);
    EXPECT_EQ(a, pinned[seed - 1]) << "seed " << seed;
    EXPECT_EQ(a, FiringOrder(seed, n)) << "seed " << seed;  // reproducible
    std::vector<int> sorted = a;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, expected) << "seed " << seed;  // still a permutation
    if (a != insertion) any_permuted = true;
  }
  EXPECT_TRUE(any_permuted);  // the shuffle really exercises other orders
}

TEST(TieShuffleTest, CommutingHandlersGiveSeedInvariantState) {
  // The property --shuffle-ties exists to check, in miniature: when tied
  // handlers commute, final state is identical for every tie order.
  auto digest = [](std::optional<uint64_t> seed) {
    Simulation sim;
    if (seed.has_value()) sim.EnableTieShuffle(*seed);
    int64_t sum = 0;
    uint64_t fired = 0;
    for (int i = 0; i < 16; ++i) {
      sim.Schedule(1.0, [&sum, &fired, i] {
        sum += static_cast<int64_t>(i) * i;
        ++fired;
      });
    }
    sim.RunUntil(100.0);
    return std::to_string(sum) + "/" + std::to_string(fired) + "/" +
           std::to_string(sim.tie_stats().tied_events);
  };
  std::string base = digest(std::nullopt);
  for (uint64_t seed : {11u, 23u, 37u}) {
    EXPECT_EQ(digest(seed), base) << "seed " << seed;
  }
}

TEST(TieShuffleTest, GlobalSeedAppliesToNewSimulations) {
  Simulation::SetGlobalTieShuffle(7);
  {
    Simulation sim;
    EXPECT_TRUE(sim.tie_shuffle_enabled());
    EXPECT_EQ(sim.tie_shuffle_seed(), 7u);
  }
  Simulation::SetGlobalTieShuffle(std::nullopt);
  EXPECT_FALSE(Simulation::GlobalTieShuffle().has_value());
  Simulation sim;
  EXPECT_FALSE(sim.tie_shuffle_enabled());
}

TEST(TieShuffleTest, CancelledTiesDoNotFireOrCount) {
  Simulation sim;
  sim.EnableTieShuffle(5);
  int fired = 0;
  sim.Schedule(1.0, [&fired] { ++fired; });
  EventHandle cancelled = sim.Schedule(1.0, [&fired] { ++fired; });
  sim.Schedule(1.0, [&fired] { ++fired; });
  cancelled.Cancel();
  sim.RunUntil(100.0);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.tie_stats().tied_events, 2u);
}

}  // namespace
}  // namespace dmr::sim
