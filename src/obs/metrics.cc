#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

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
// MetricsRegistry

namespace {

std::atomic<uint64_t> g_next_registry_id{1};

}  // namespace

struct MetricsRegistry::Shard {
  std::vector<int64_t> counters;
  std::vector<GaugeCell> gauges;
  std::vector<HistogramData> histograms;
};

namespace {

/// One-entry thread-local cache: the registry a thread last wrote to and
/// its shard. Registry ids are never reused, so a stale cache entry can
/// never alias a new registry.
struct LocalShardCache {
  uint64_t registry_id = 0;
  void* shard = nullptr;
};

thread_local LocalShardCache tls_shard_cache;

}  // namespace

MetricsRegistry::MetricsRegistry()
    : id_(g_next_registry_id.fetch_add(1, std::memory_order_relaxed)) {}

MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry::Shard* MetricsRegistry::ShardSlow() {
  std::lock_guard<std::mutex> lock(mu_);
  shards_.push_back(std::make_unique<Shard>());
  Shard* shard = shards_.back().get();
  tls_shard_cache = {id_, shard};
  return shard;
}

MetricsRegistry::Shard& MetricsRegistry::LocalShard() {
  if (tls_shard_cache.registry_id == id_) {
    return *static_cast<Shard*>(tls_shard_cache.shard);
  }
  return *ShardSlow();
}

CounterHandle MetricsRegistry::RegisterCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < counter_names_.size(); ++i) {
    if (counter_names_[i] == name) {
      return {static_cast<uint32_t>(i)};
    }
  }
  counter_names_.emplace_back(name);
  return {static_cast<uint32_t>(counter_names_.size() - 1)};
}

GaugeHandle MetricsRegistry::RegisterGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < gauge_names_.size(); ++i) {
    if (gauge_names_[i] == name) {
      return {static_cast<uint32_t>(i)};
    }
  }
  gauge_names_.emplace_back(name);
  return {static_cast<uint32_t>(gauge_names_.size() - 1)};
}

HistogramHandle MetricsRegistry::RegisterHistogram(std::string_view name,
                                                   std::string_view unit) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < histogram_names_.size(); ++i) {
    if (histogram_names_[i] == name) {
      return {static_cast<uint32_t>(i)};
    }
  }
  histogram_names_.emplace_back(name);
  histogram_units_.emplace_back(unit);
  return {static_cast<uint32_t>(histogram_names_.size() - 1)};
}

void MetricsRegistry::Add(CounterHandle h, int64_t delta) {
  if (!h.valid()) return;
  Shard& shard = LocalShard();
  if (h.index >= shard.counters.size()) shard.counters.resize(h.index + 1, 0);
  shard.counters[h.index] += delta;
}

void MetricsRegistry::Set(GaugeHandle h, double value) {
  if (!h.valid()) return;
  Shard& shard = LocalShard();
  if (h.index >= shard.gauges.size()) shard.gauges.resize(h.index + 1);
  shard.gauges[h.index] = {
      gauge_version_.fetch_add(1, std::memory_order_relaxed) + 1, value};
}

void MetricsRegistry::Observe(HistogramHandle h, double value) {
  if (!h.valid()) return;
  Shard& shard = LocalShard();
  if (h.index >= shard.histograms.size()) shard.histograms.resize(h.index + 1);
  shard.histograms[h.index].Observe(value);
}

size_t MetricsRegistry::num_shards() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shards_.size();
}

const int64_t* MetricsRegistry::Snapshot::FindCounter(
    std::string_view name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return &v;
  }
  return nullptr;
}

const MetricsRegistry::HistogramSnapshot*
MetricsRegistry::Snapshot::FindHistogram(std::string_view name) const {
  for (const auto& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

MetricsRegistry::Snapshot MetricsRegistry::TakeSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;

  std::vector<int64_t> counters(counter_names_.size(), 0);
  std::vector<GaugeCell> gauges(gauge_names_.size());
  std::vector<HistogramData> hists(histogram_names_.size());
  for (const auto& shard : shards_) {
    for (size_t i = 0; i < shard->counters.size(); ++i) {
      counters[i] += shard->counters[i];
    }
    for (size_t i = 0; i < shard->gauges.size(); ++i) {
      if (shard->gauges[i].version > gauges[i].version) {
        gauges[i] = shard->gauges[i];
      }
    }
    for (size_t i = 0; i < shard->histograms.size(); ++i) {
      hists[i].MergeFrom(shard->histograms[i]);
    }
  }

  snap.counters.reserve(counters.size());
  for (size_t i = 0; i < counters.size(); ++i) {
    snap.counters.emplace_back(counter_names_[i], counters[i]);
  }
  std::sort(snap.counters.begin(), snap.counters.end());

  snap.gauges.reserve(gauges.size());
  for (size_t i = 0; i < gauges.size(); ++i) {
    snap.gauges.emplace_back(gauge_names_[i], gauges[i].value);
  }
  std::sort(snap.gauges.begin(), snap.gauges.end());

  snap.histograms.reserve(hists.size());
  for (size_t i = 0; i < hists.size(); ++i) {
    HistogramSnapshot h;
    h.name = histogram_names_[i];
    h.unit = histogram_units_[i];
    h.count = hists[i].count();
    h.sum = hists[i].sum();
    h.min = hists[i].min();
    h.max = hists[i].max();
    h.mean = hists[i].Mean();
    h.p50 = hists[i].Percentile(50.0);
    h.p95 = hists[i].Percentile(95.0);
    h.p99 = hists[i].Percentile(99.0);
    snap.histograms.push_back(std::move(h));
  }
  std::sort(snap.histograms.begin(), snap.histograms.end(),
            [](const HistogramSnapshot& a, const HistogramSnapshot& b) {
              return a.name < b.name;
            });
  return snap;
}

}  // namespace dmr::obs
