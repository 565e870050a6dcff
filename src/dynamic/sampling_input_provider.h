#ifndef DMR_DYNAMIC_SAMPLING_INPUT_PROVIDER_H_
#define DMR_DYNAMIC_SAMPLING_INPUT_PROVIDER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/random.h"
#include "dynamic/growth_policy.h"
#include "mapred/input_provider.h"

namespace dmr::dynamic {

/// \brief The Input Provider for predicate-based sampling (paper Section IV).
///
/// Behaviour at each evaluation:
///  1. If completed maps already produced >= k output records: end-of-input.
///  2. Otherwise estimate the predicate selectivity sigma = matched /
///     processed from the finished maps' counters, project the expected
///     output of the in-flight ("pending") input, and:
///     - if matched + expected(pending) >= k: "no input available"
///       (wait and see);
///     - else compute the records still needed, convert to a split count via
///       the estimated records-per-split, clamp by the policy's GrabLimit,
///       and return that many splits drawn uniformly at random from the
///       unprocessed partitions (randomness of the final sample comes from
///       this uniform draw, Section IV).
///  3. When nothing has matched yet (sigma estimate is 0), it grows blindly
///     by the GrabLimit.
///  4. When every partition has been handed to the job: end-of-input (the
///     job must finish with whatever it found).
class SamplingInputProvider : public mapred::InputProvider {
 public:
  struct Options {
    /// When false, the provider grows blindly by the GrabLimit whenever the
    /// job is starved, ignoring the selectivity estimate (ablation knob;
    /// the paper's provider always estimates).
    bool use_selectivity_estimation = true;
    /// Per-split stats hints (DESIGN.md §16): replace the uniform draw
    /// with a deterministic cheapest-first grab (ascending scan_fraction)
    /// and project expected yield per split from hint_selectivity where
    /// known instead of the single global estimate. This draws a
    /// *different* (still deterministic) sample than the uniform mode, so
    /// pruned-vs-unpruned digest comparisons must hold it fixed.
    bool use_split_hints = false;
  };

  /// \param policy  growth policy whose GrabLimit bounds each intake.
  /// \param seed    seed for the uniform split draw.
  SamplingInputProvider(GrowthPolicy policy, uint64_t seed);
  SamplingInputProvider(GrowthPolicy policy, uint64_t seed, Options options);

  Status Initialize(std::shared_ptr<const mapred::SplitTable> input,
                    const mapred::JobConf& conf) override;

  mapred::InputResponse GetInitialInput(
      const mapred::ClusterStatus& cluster) override;

  mapred::InputResponse Evaluate(const mapred::JobProgress& progress,
                                 const mapred::ClusterStatus& cluster) override;

  /// Latest selectivity estimate (for tests/diagnostics); -1 before any
  /// completed map.
  double estimated_selectivity() const { return estimated_selectivity_; }

  int remaining_splits() const {
    return static_cast<int>(unprocessed_.size());
  }

 private:
  /// The decision logic proper; Evaluate wraps it to attach the decision
  /// diagnostics (selectivity estimate, grab limit) to the response.
  mapred::InputResponse EvaluateImpl(const mapred::JobProgress& progress,
                                     const mapred::ClusterStatus& cluster);

  /// Draws up to `count` splits uniformly without replacement.
  std::vector<mapred::SplitId> DrawSplits(int64_t count);

  GrowthPolicy policy_;
  Options options_;
  Rng rng_;
  uint64_t sample_size_ = 0;
  std::shared_ptr<const mapred::SplitTable> input_;
  /// Ids of the splits not handed to the job yet.
  std::vector<mapred::SplitId> unprocessed_;
  double estimated_selectivity_ = -1.0;
  bool initialized_ = false;
};

}  // namespace dmr::dynamic

#endif  // DMR_DYNAMIC_SAMPLING_INPUT_PROVIDER_H_
