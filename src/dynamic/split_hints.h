#ifndef DMR_DYNAMIC_SPLIT_HINTS_H_
#define DMR_DYNAMIC_SPLIT_HINTS_H_

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "mapred/types.h"

namespace dmr::dynamic {

/// Per-split stats-hint consumption for the Input Providers (DESIGN.md
/// §16). Once zone maps and piggybacked indexes land, split costs are
/// non-stationary — a pruned split costs only a stats-read while an
/// unindexed one costs a full scan — so the provider can stop treating
/// the input as exchangeable: grab the cheap splits first and project
/// yield per split instead of with one global selectivity. Both helpers
/// are deterministic (no RNG): cheapest-first order is ascending
/// scan_fraction with insertion order breaking ties.

/// Positions in `pool` (split ids of `input`) in cheapest-first order.
inline std::vector<size_t> CheapestOrder(
    const mapred::SplitTable& input,
    const std::vector<mapred::SplitId>& pool) {
  std::vector<size_t> order(pool.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&input, &pool](size_t a, size_t b) {
                     return input[pool[a]].scan_fraction <
                            input[pool[b]].scan_fraction;
                   });
  return order;
}

/// Removes and returns up to `count` split ids from `pool`, cheapest first.
inline std::vector<mapred::SplitId> TakeCheapestSplits(
    const mapred::SplitTable& input, std::vector<mapred::SplitId>* pool,
    int64_t count) {
  std::vector<size_t> order = CheapestOrder(input, *pool);
  size_t n = std::min<size_t>(static_cast<size_t>(std::max<int64_t>(0, count)),
                              pool->size());
  std::vector<mapred::SplitId> drawn;
  drawn.reserve(n);
  std::vector<size_t> taken(order.begin(), order.begin() + n);
  for (size_t index : taken) drawn.push_back((*pool)[index]);
  // Erase the taken slots back-to-front so earlier indices stay valid.
  std::sort(taken.begin(), taken.end());
  for (auto it = taken.rbegin(); it != taken.rend(); ++it) {
    pool->erase(pool->begin() + static_cast<ptrdiff_t>(*it));
  }
  return drawn;
}

/// Splits needed to cover `matches_gap` more matching records, walking
/// `pool` cheapest-first and projecting each split's yield from its
/// hint_selectivity when known (fall back to `global_selectivity`).
/// Returns at least 1 while the pool is non-empty; callers clamp by the
/// policy's grab limit as usual.
inline int64_t SplitsNeededWithHints(const mapred::SplitTable& input,
                                     const std::vector<mapred::SplitId>& pool,
                                     double matches_gap,
                                     double global_selectivity) {
  if (pool.empty()) return 0;
  double expected = 0.0;
  int64_t needed = 0;
  for (size_t index : CheapestOrder(input, pool)) {
    const mapred::InputSplit& split = input[pool[index]];
    double sel = split.hint_selectivity >= 0.0 ? split.hint_selectivity
                                               : global_selectivity;
    expected += sel * static_cast<double>(split.num_records);
    ++needed;
    if (expected >= matches_gap) break;
  }
  return std::max<int64_t>(1, needed);
}

}  // namespace dmr::dynamic

#endif  // DMR_DYNAMIC_SPLIT_HINTS_H_
