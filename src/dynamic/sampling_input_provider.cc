#include "dynamic/sampling_input_provider.h"

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

SamplingInputProvider::SamplingInputProvider(GrowthPolicy policy,
                                             uint64_t seed)
    : SamplingInputProvider(std::move(policy), seed, Options{}) {}

SamplingInputProvider::SamplingInputProvider(GrowthPolicy policy,
                                             uint64_t seed, Options options)
    : policy_(std::move(policy)), options_(options), rng_(seed) {}

Status SamplingInputProvider::Initialize(
    std::shared_ptr<const mapred::SplitTable> input,
    const mapred::JobConf& conf) {
  if (initialized_) {
    return Status::FailedPrecondition("provider already initialized");
  }
  sample_size_ = conf.sample_size();
  if (sample_size_ == 0) {
    return Status::InvalidArgument(
        "sampling job requires a positive sample size (" +
        std::string(mapred::kSampleSizeKey) + ")");
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

std::vector<SplitId> SamplingInputProvider::DrawSplits(int64_t count) {
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

InputResponse SamplingInputProvider::GetInitialInput(
    const ClusterStatus& cluster) {
  DMR_CHECK(initialized_);
  if (unprocessed_.empty()) return InputResponse::EndOfInput();
  // The initial intake is GrabLimit splits; at least one so the job can
  // start learning the data even on a saturated cluster.
  int64_t limit = std::max<int64_t>(1, policy_.GrabLimit(cluster));
  return InputResponse::Available(DrawSplits(limit));
}

InputResponse SamplingInputProvider::Evaluate(const JobProgress& progress,
                                              const ClusterStatus& cluster) {
  InputResponse response = EvaluateImpl(progress, cluster);
  response
      .WithDiagnostic("selectivity_estimate", estimated_selectivity_)
      .WithDiagnostic("grab_limit",
                      static_cast<double>(policy_.GrabLimit(cluster)))
      // Feed the decision-instant trace (and dmr-analyze drill-downs) with
      // the provider's remaining-input view, so the provider-wait ledger
      // category can be cross-checked against what the provider still held.
      .WithDiagnostic("splits_remaining",
                      static_cast<double>(unprocessed_.size()))
      .WithDiagnostic("splits_granted",
                      static_cast<double>(response.splits.size()));
  return response;
}

InputResponse SamplingInputProvider::EvaluateImpl(
    const JobProgress& progress, const ClusterStatus& cluster) {
  DMR_CHECK(initialized_);

  // Completed maps already found enough matching records.
  if (progress.output_records >= sample_size_) {
    return InputResponse::EndOfInput();
  }

  // All partitions handed over: the job finishes with whatever it finds.
  if (unprocessed_.empty()) {
    return InputResponse::EndOfInput();
  }

  // Estimate selectivity from the completed maps' counters.
  double selectivity = 0.0;
  if (progress.records_processed > 0) {
    selectivity = static_cast<double>(progress.output_records) /
                  static_cast<double>(progress.records_processed);
    estimated_selectivity_ = selectivity;
  }

  int64_t limit = policy_.GrabLimit(cluster);

  if (!options_.use_selectivity_estimation) {
    // Ablation mode: blind fixed-policy growth, no yield projection.
    if (!progress.starved()) return InputResponse::NoInput();
    return InputResponse::Available(DrawSplits(std::max<int64_t>(1, limit)));
  }

  if (selectivity <= 0.0) {
    // Nothing matched yet (or nothing finished yet): no basis for an
    // estimate. If work is still in flight, wait and see; if the job is
    // starved, grow blindly by the grab limit.
    if (!progress.starved()) return InputResponse::NoInput();
    return InputResponse::Available(DrawSplits(std::max<int64_t>(1, limit)));
  }

  // Expected output still to come from the added-but-unfinished input.
  double expected_pending =
      selectivity * static_cast<double>(progress.pending_records);
  double expected_total =
      static_cast<double>(progress.output_records) + expected_pending;
  if (expected_total >= static_cast<double>(sample_size_)) {
    return InputResponse::NoInput();  // wait and see
  }

  // Records that still need to be scanned to close the gap, and the split
  // count that covers them (records-per-split estimated from the processed
  // prefix, since split metadata record counts may vary; Section IV).
  // With per-split hints the projection walks the cheapest-first grab
  // order and uses each split's own selectivity bound where stats gave
  // one — the non-stationary-cost refinement of DESIGN.md §16.
  int64_t splits_needed;
  if (options_.use_split_hints) {
    splits_needed = SplitsNeededWithHints(
        *input_, unprocessed_,
        static_cast<double>(sample_size_) - expected_total, selectivity);
  } else {
    double records_needed =
        (static_cast<double>(sample_size_) - expected_total) / selectivity;
    double records_per_split =
        progress.maps_completed > 0
            ? static_cast<double>(progress.records_processed) /
                  static_cast<double>(progress.maps_completed)
            : static_cast<double>((*input_)[unprocessed_.front()].num_records);
    if (records_per_split <= 0.0) records_per_split = 1.0;
    splits_needed = static_cast<int64_t>(
        std::ceil(records_needed / records_per_split));
    splits_needed = std::max<int64_t>(1, splits_needed);
  }

  int64_t grab = std::min(splits_needed, limit);
  if (grab <= 0) {
    // GrabLimit says the cluster has no room right now.
    return InputResponse::NoInput();
  }
  return InputResponse::Available(DrawSplits(grab));
}

}  // namespace dmr::dynamic
