#include "dynamic/adaptive_input_provider.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"
#include "dynamic/split_hints.h"

namespace dmr::dynamic {

using mapred::ClusterStatus;
using mapred::InputResponse;
using mapred::JobProgress;
using mapred::SplitId;

namespace {

/// Safety-factor cap applied to the skew inflation term.
constexpr double kMaxSkewInflation = 3.0;
/// Lower bound on the load-scaled grab (keeps starved jobs alive).
constexpr int64_t kMinGrab = 1;

}  // namespace

AdaptiveInputProvider::AdaptiveInputProvider(uint64_t seed, Options options)
    : options_(options), rng_(seed) {}

AdaptiveInputProvider::AdaptiveInputProvider(uint64_t seed)
    : AdaptiveInputProvider(seed, Options{}) {}

Status AdaptiveInputProvider::Initialize(
    std::shared_ptr<const mapred::SplitTable> input,
    const mapred::JobConf& conf) {
  if (initialized_) {
    return Status::FailedPrecondition("provider already initialized");
  }
  sample_size_ = conf.sample_size();
  if (sample_size_ == 0) {
    return Status::InvalidArgument(
        "adaptive sampling requires a positive sample size");
  }
  if (input == nullptr) {
    return Status::InvalidArgument("provider needs an input split table");
  }
  input_ = std::move(input);
  unprocessed_.resize(input_->size());
  std::iota(unprocessed_.begin(), unprocessed_.end(), SplitId{0});
  initialized_ = true;
  return Status::OK();
}

int64_t AdaptiveInputProvider::LoadScaledGrab(
    const ClusterStatus& cluster) const {
  double as = static_cast<double>(cluster.available_map_slots());
  double ts = static_cast<double>(cluster.total_map_slots);
  if (ts <= 0.0) return kMinGrab;
  double raw = as * as / ts;
  return std::max<int64_t>(kMinGrab,
                           static_cast<int64_t>(std::llround(raw)));
}

std::vector<SplitId> AdaptiveInputProvider::DrawSplits(int64_t count) {
  if (options_.use_split_hints) {
    return TakeCheapestSplits(*input_, &unprocessed_, count);
  }
  std::vector<SplitId> drawn;
  int64_t n = std::min<int64_t>(count,
                                static_cast<int64_t>(unprocessed_.size()));
  drawn.reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    size_t pick = static_cast<size_t>(rng_.NextBounded(unprocessed_.size()));
    drawn.push_back(unprocessed_[pick]);
    unprocessed_[pick] = unprocessed_.back();
    unprocessed_.pop_back();
  }
  return drawn;
}

InputResponse AdaptiveInputProvider::GetInitialInput(
    const ClusterStatus& cluster) {
  DMR_CHECK(initialized_);
  if (unprocessed_.empty()) return InputResponse::EndOfInput();
  last_grab_limit_ = LoadScaledGrab(cluster);
  return InputResponse::Available(DrawSplits(last_grab_limit_));
}

InputResponse AdaptiveInputProvider::Evaluate(const JobProgress& progress,
                                              const ClusterStatus& cluster) {
  InputResponse response = EvaluateImpl(progress, cluster);
  response.WithDiagnostic("skew_cv", skew_cv_)
      .WithDiagnostic("grab_limit", static_cast<double>(last_grab_limit_));
  return response;
}

InputResponse AdaptiveInputProvider::EvaluateImpl(
    const JobProgress& progress, const ClusterStatus& cluster) {
  DMR_CHECK(initialized_);

  // Update the per-evaluation yield history (the skew signal).
  int new_maps = progress.maps_completed - last_maps_completed_;
  uint64_t new_output = progress.output_records - last_output_records_;
  if (new_maps > 0) {
    yields_.push_back(static_cast<double>(new_output) /
                      static_cast<double>(new_maps));
    last_maps_completed_ = progress.maps_completed;
    last_output_records_ = progress.output_records;
  }
  if (yields_.size() >= 2) {
    double sum = 0.0;
    for (double y : yields_) sum += y;
    double mean = sum / static_cast<double>(yields_.size());
    if (mean > 0.0) {
      double var = 0.0;
      for (double y : yields_) var += (y - mean) * (y - mean);
      var /= static_cast<double>(yields_.size());
      skew_cv_ = std::sqrt(var) / mean;
    }
  }

  if (progress.output_records >= sample_size_) {
    return InputResponse::EndOfInput();
  }
  if (unprocessed_.empty()) {
    return InputResponse::EndOfInput();
  }

  double selectivity =
      progress.records_processed > 0
          ? static_cast<double>(progress.output_records) /
                static_cast<double>(progress.records_processed)
          : 0.0;

  last_grab_limit_ = LoadScaledGrab(cluster);

  if (selectivity <= 0.0) {
    // No estimate yet: grow by the load-scaled limit once starved.
    if (!progress.starved()) return InputResponse::NoInput();
    return InputResponse::Available(DrawSplits(last_grab_limit_));
  }

  // Projected yield of in-flight work, discounted when the data looks
  // skewed (an unreliable estimate should not talk us into waiting).
  double inflation =
      1.0 + std::min(skew_cv_, kMaxSkewInflation - 1.0);
  double expected_pending =
      selectivity * static_cast<double>(progress.pending_records);
  double expected_total =
      static_cast<double>(progress.output_records) +
      expected_pending / inflation;
  if (expected_total >= static_cast<double>(sample_size_)) {
    return InputResponse::NoInput();
  }

  int64_t splits_needed;
  if (options_.use_split_hints) {
    // Per-split yield projection over the cheapest-first grab order
    // (DESIGN.md §16); the skew inflation widens the matches gap instead
    // of the records estimate.
    splits_needed = SplitsNeededWithHints(
        *input_, unprocessed_,
        (static_cast<double>(sample_size_) - expected_total) * inflation,
        selectivity);
  } else {
    double records_needed =
        (static_cast<double>(sample_size_) - expected_total) / selectivity *
        inflation;
    double records_per_split =
        progress.maps_completed > 0
            ? static_cast<double>(progress.records_processed) /
                  static_cast<double>(progress.maps_completed)
            : static_cast<double>((*input_)[unprocessed_.front()].num_records);
    if (records_per_split <= 0.0) records_per_split = 1.0;
    splits_needed = std::max<int64_t>(
        1,
        static_cast<int64_t>(std::ceil(records_needed / records_per_split)));
  }

  int64_t grab = std::min(splits_needed, last_grab_limit_);
  if (grab <= 0) return InputResponse::NoInput();
  return InputResponse::Available(DrawSplits(grab));
}

}  // namespace dmr::dynamic
