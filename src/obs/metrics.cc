#include "obs/metrics.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <iterator>

namespace dmr::obs {

// ---------------------------------------------------------------------------
// ExactSum

void ExactSum::Add(double value) {
  if (value == 0.0) return;
  if (!std::isfinite(value)) {
    special_ += value;
    return;
  }
  // |value| = mantissa * 2^(exp - 53), with an integer mantissa < 2^53.
  int exp = 0;
  const auto mantissa = static_cast<uint64_t>(
      std::ldexp(std::frexp(std::fabs(value), &exp), 53));
  const int bit = exp - 53 + kBias;
  const unsigned __int128 shifted = static_cast<unsigned __int128>(mantissa)
                                    << (bit % 32);
  const int64_t sign = value < 0.0 ? -1 : 1;
  for (int i = 0; i < 3; ++i) {
    chunks_[bit / 32 + i] +=
        sign * static_cast<int64_t>((shifted >> (32 * i)) & 0xFFFFFFFFu);
  }
  // Each add moves a word by under 2^32; normalizing every 2^29 adds keeps
  // words (and the sum of two merged ones) far from overflow.
  if (++pending_ >= (1u << 29)) Normalize();
}

void ExactSum::Merge(const ExactSum& other) {
  for (int i = 0; i < kChunks; ++i) chunks_[i] += other.chunks_[i];
  special_ += other.special_;
  pending_ += other.pending_ + 1;
  if (pending_ >= (1u << 29)) Normalize();
}

void ExactSum::Normalize() {
  for (int i = 0; i + 1 < kChunks; ++i) {
    chunks_[i + 1] += chunks_[i] >> 32;  // floor division by 2^32
    chunks_[i] &= 0xFFFFFFFF;
  }
  pending_ = 0;
}

double ExactSum::Value() const {
  if (special_ != 0.0) return special_;  // true for NaN as well
  ExactSum total = *this;
  total.Normalize();
  // The sign is the top chunk's; sum the magnitude from the top down.
  const bool negative = total.chunks_[kChunks - 1] < 0;
  if (negative) {
    for (int64_t& chunk : total.chunks_) chunk = -chunk;
    total.Normalize();
  }
  double result = 0.0;
  for (int i = kChunks - 1; i >= 0; --i) {
    result += std::ldexp(static_cast<double>(total.chunks_[i]),
                         32 * i - kBias);
  }
  return negative ? -result : result;
}

// ---------------------------------------------------------------------------
// HistogramData

int HistogramData::BucketFor(double value) {
  if (!(value > 0.0) || !std::isfinite(value)) return 0;  // underflow bucket
  int exp = 0;
  double mantissa = std::frexp(value, &exp);  // mantissa in [0.5, 1)
  if (exp - 1 < kMinExponent) return 0;
  if (exp - 1 > kMaxExponent) exp = kMaxExponent + 1;
  int sub = static_cast<int>((mantissa - 0.5) * 2.0 * kSubBuckets);
  sub = std::min(sub, kSubBuckets - 1);
  return 1 + (exp - 1 - kMinExponent) * kSubBuckets + sub;
}

double HistogramData::BucketLowerEdge(int bucket) {
  if (bucket <= 0) return 0.0;
  int offset = bucket - 1;
  int exp = kMinExponent + offset / kSubBuckets;
  int sub = offset % kSubBuckets;
  double mantissa = 0.5 + static_cast<double>(sub) / (2.0 * kSubBuckets);
  return std::ldexp(mantissa, exp + 1);
}

void HistogramData::Observe(double value) {
  if (buckets_.empty()) buckets_.assign(kNumBuckets, 0);
  ++buckets_[static_cast<size_t>(BucketFor(value))];
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  sum_.Add(value);
  ++count_;
}

void HistogramData::MergeFrom(const HistogramData& other) {
  if (other.count_ == 0) return;
  if (buckets_.empty()) buckets_.assign(kNumBuckets, 0);
  for (size_t i = 0; i < other.buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  sum_.Merge(other.sum_);
  count_ += other.count_;
}

double HistogramData::Percentile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 100.0);
  // Nearest-rank: the value at 1-based rank ceil(q/100 * count).
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(q / 100.0 * static_cast<double>(count_)));
  rank = std::clamp<uint64_t>(rank, 1, count_);
  // The extreme ranks are tracked exactly; skip the bucket approximation.
  if (rank <= 1) return min_;
  if (rank >= count_) return max_;
  uint64_t seen = 0;
  for (size_t b = 0; b < buckets_.size(); ++b) {
    seen += buckets_[b];
    if (seen >= rank) {
      return std::clamp(BucketLowerEdge(static_cast<int>(b)), min_, max_);
    }
  }
  return max_;
}

// ---------------------------------------------------------------------------
// Metrics

namespace {

constexpr const char* kCounterNames[] = {
    "mapred.heartbeats",        "mapred.jobs_submitted",
    "mapred.jobs_completed",    "mapred.splits_added",
    "mapred.maps_launched",     "mapred.maps_completed",
    "mapred.maps_failed",       "mapred.backups_launched",
    "mapred.attempts_killed",   "mapred.reduces_launched",
    "provider.evaluations",     "provider.grows",
    "provider.waits",           "provider.end_of_input",
    "sched.decisions",          "sched.delay_holds",
    "sched.delay_skips",        "dfs.files_created",
    "dfs.partitions_placed",    "dfs.bytes_placed",
    "exec.partitions_pruned",   "exec.batches_pruned",
    "exec.rows_skipped",        "exec.index_builds",
    "exec.index_hits",          "mapred.splits_pruned",
    "sim.tie_groups",           "sim.tie_events",
};
static_assert(std::size(kCounterNames) == kNumCounters);

constexpr const char* kGaugeNames[] = {"provider.selectivity_estimate",
                                       "provider.observed_skew_cv"};
static_assert(std::size(kGaugeNames) == kNumGauges);

constexpr const char* kHistogramNames[] = {
    "mapred.task_wait", "mapred.task_run", "mapred.job_response"};
static_assert(std::size(kHistogramNames) == kNumHistograms);

std::atomic<uint64_t> g_gauge_version{0};

}  // namespace

void Metrics::Set(Gauge g, double value) {
  gauges_[static_cast<int>(g)] = {
      g_gauge_version.fetch_add(1, std::memory_order_relaxed) + 1, value};
}

void Metrics::MergeFrom(const Metrics& other) {
  for (int i = 0; i < kNumCounters; ++i) counters_[i] += other.counters_[i];
  for (int i = 0; i < kNumGauges; ++i) {
    if (other.gauges_[i].version > gauges_[i].version) {
      gauges_[i] = other.gauges_[i];
    }
  }
  for (int i = 0; i < kNumHistograms; ++i) {
    histograms_[i].MergeFrom(other.histograms_[i]);
  }
}

const int64_t* Metrics::Snapshot::FindCounter(std::string_view name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return &v;
  }
  return nullptr;
}

const Metrics::HistogramSnapshot* Metrics::Snapshot::FindHistogram(
    std::string_view name) const {
  for (const auto& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

Metrics::Snapshot Metrics::TakeSnapshot() const {
  Snapshot snap;
  for (int i = 0; i < kNumCounters; ++i) {
    snap.counters.emplace_back(kCounterNames[i], counters_[i]);
  }
  std::sort(snap.counters.begin(), snap.counters.end());
  for (int i = 0; i < kNumGauges; ++i) {
    snap.gauges.emplace_back(kGaugeNames[i], gauges_[i].value);
  }
  std::sort(snap.gauges.begin(), snap.gauges.end());
  for (int i = 0; i < kNumHistograms; ++i) {
    const HistogramData& data = histograms_[i];
    HistogramSnapshot h;
    h.name = kHistogramNames[i];
    h.unit = "sim_s";
    h.count = data.count();
    h.sum = data.sum();
    h.min = data.min();
    h.max = data.max();
    h.mean = data.Mean();
    h.p50 = data.Percentile(50.0);
    h.p95 = data.Percentile(95.0);
    h.p99 = data.Percentile(99.0);
    snap.histograms.push_back(std::move(h));
  }
  std::sort(snap.histograms.begin(), snap.histograms.end(),
            [](const HistogramSnapshot& a, const HistogramSnapshot& b) {
              return a.name < b.name;
            });
  return snap;
}

}  // namespace dmr::obs
