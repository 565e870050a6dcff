#ifndef DMR_DYNAMIC_ADAPTIVE_INPUT_PROVIDER_H_
#define DMR_DYNAMIC_ADAPTIVE_INPUT_PROVIDER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/random.h"
#include "mapred/input_provider.h"

namespace dmr::dynamic {

/// \brief An Input Provider that re-tunes its own aggressiveness at every
/// evaluation — the paper's future-work proposal ("a more flexible model
/// wherein a job could decide and change the policy at runtime, based on
/// the discovered characteristics of the input data together with the
/// existing load on the cluster", Section VII).
///
/// Two runtime signals drive the choice:
///
///  1. **Cluster load.** The grab limit scales as AS^2 / TS: on an idle
///     cluster this is AS (HA-like), at 50 % occupancy 0.5*AS (MA-like),
///     at 90 % occupancy 0.1*AS (C-like) — a smooth sweep over the paper's
///     Table I spectrum.
///  2. **Observed skew.** The provider tracks the per-evaluation yield of
///     completed maps and computes a coefficient of variation. High
///     variance means the selectivity estimate is unreliable (skewed
///     placement of matching records), so the records-needed projection is
///     inflated by (1 + CV) — the adaptive analogue of the paper's finding
///     that aggressive intake is what overcomes skew.
class AdaptiveInputProvider : public mapred::InputProvider {
 public:
  struct Options {
    /// Per-split stats hints (DESIGN.md §16): deterministic cheapest-first
    /// grab and per-split yield projection, as in
    /// SamplingInputProvider::Options::use_split_hints.
    bool use_split_hints = false;
  };

  AdaptiveInputProvider(uint64_t seed, Options options);
  explicit AdaptiveInputProvider(uint64_t seed);

  Status Initialize(std::shared_ptr<const mapred::SplitTable> input,
                    const mapred::JobConf& conf) override;

  mapred::InputResponse GetInitialInput(
      const mapred::ClusterStatus& cluster) override;

  mapred::InputResponse Evaluate(const mapred::JobProgress& progress,
                                 const mapred::ClusterStatus& cluster) override;

  /// Latest skew signal: coefficient of variation of per-evaluation map
  /// yields (0 until two evaluations have data).
  double observed_skew_cv() const { return skew_cv_; }

  /// The grab limit the provider derived at the last evaluation.
  int64_t last_grab_limit() const { return last_grab_limit_; }

  int remaining_splits() const {
    return static_cast<int>(unprocessed_.size());
  }

 private:
  /// The decision logic proper; Evaluate wraps it to attach the decision
  /// diagnostics (skew CV, grab limit) to the response.
  mapred::InputResponse EvaluateImpl(const mapred::JobProgress& progress,
                                     const mapred::ClusterStatus& cluster);

  /// Load-adaptive grab limit: AS^2 / TS, floored at kMinGrab.
  int64_t LoadScaledGrab(const mapred::ClusterStatus& cluster) const;

  /// Draws up to `count` splits uniformly without replacement.
  std::vector<mapred::SplitId> DrawSplits(int64_t count);

  Options options_;
  Rng rng_;
  uint64_t sample_size_ = 0;
  std::shared_ptr<const mapred::SplitTable> input_;
  /// Ids of the splits not handed to the job yet.
  std::vector<mapred::SplitId> unprocessed_;
  bool initialized_ = false;

  // Per-evaluation yield history for the skew signal.
  int last_maps_completed_ = 0;
  uint64_t last_output_records_ = 0;
  std::vector<double> yields_;  // matches per completed map, per interval
  double skew_cv_ = 0.0;
  int64_t last_grab_limit_ = 0;
};

}  // namespace dmr::dynamic

#endif  // DMR_DYNAMIC_ADAPTIVE_INPUT_PROVIDER_H_
