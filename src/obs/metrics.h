#ifndef DMR_OBS_METRICS_H_
#define DMR_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dmr::obs {

/// Typed, index-based metric handles. A handle is obtained once via
/// Register* (which dedupes by name) and then used on the hot path: an
/// increment through a handle is an array index plus an add — no map
/// lookup, no string hashing, no lock.
struct CounterHandle {
  uint32_t index = UINT32_MAX;
  bool valid() const { return index != UINT32_MAX; }
};
struct GaugeHandle {
  uint32_t index = UINT32_MAX;
  bool valid() const { return index != UINT32_MAX; }
};
struct HistogramHandle {
  uint32_t index = UINT32_MAX;
  bool valid() const { return index != UINT32_MAX; }
};

/// \brief The exact sum of doubles, whatever the order they are added or
/// merged in. Every finite double is an integer multiple of 2^-1074, so
/// the total is one wide fixed-point integer (32-bit chunks in int64
/// words, carries propagated lazily) and Value() rounds it to a double.
/// Infinities and NaNs are summed apart and win over the finite part.
class ExactSum {
 public:
  void Add(double value);
  void Merge(const ExactSum& other);
  double Value() const;

 private:
  static constexpr int kChunks = 70;   // room above 2^1024 for carries
  static constexpr int kBias = 1126;   // chunk 0, bit 0 weighs 2^-kBias
  void Normalize();  // every chunk but the top one into [0, 2^32)

  std::array<int64_t, kChunks> chunks_{};
  uint32_t pending_ = 0;  // adds since Normalize (bounds the words)
  double special_ = 0.0;
};

/// \brief HDR-style log-bucketed latency histogram state, merged across
/// shards at snapshot time.
///
/// Values are bucketed by binary exponent with kSubBuckets linear
/// sub-buckets per octave (~3 % relative precision at 32 sub-buckets),
/// so merging shards is a commutative sum of bucket counts, and the sum
/// is exact (ExactSum) — snapshot results, sum and mean included, are
/// identical regardless of which worker recorded what.
class HistogramData {
 public:
  static constexpr int kSubBuckets = 32;
  static constexpr int kMinExponent = -64;  // 2^-64 .. 2^63 value range
  static constexpr int kMaxExponent = 63;
  static constexpr int kNumBuckets =
      1 + (kMaxExponent - kMinExponent + 1) * kSubBuckets;

  void Observe(double value);
  void MergeFrom(const HistogramData& other);

  uint64_t count() const { return count_; }
  double sum() const { return sum_.Value(); }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double Mean() const {
    return count_ == 0 ? 0.0 : sum() / static_cast<double>(count_);
  }

  /// Nearest-rank percentile over the bucket counts, q in [0, 100].
  /// Answers are bucket lower edges (clamped to the recorded min/max), so
  /// two runs that observed the same multiset of values — in any order,
  /// from any number of threads — report identical percentiles.
  double Percentile(double q) const;

  /// Bucket mapping, shared with obs::Timeline's sliding-window
  /// percentiles so the windowed p99 and the end-of-run p99 agree on
  /// bucket edges. Values <= 0 or non-finite land in bucket 0.
  static int BucketFor(double value);
  static double BucketLowerEdge(int bucket);

 private:
  /// Lazily sized to kNumBuckets on the first observation.
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  ExactSum sum_;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// \brief A registry of named counters, gauges and latency histograms with
/// per-thread (per-ThreadPool-worker) shards.
///
/// Design for the simulator's hot path (heartbeats, task launches):
///  * **Pre-registered handles.** Register* is called at setup (Scope
///    construction) under a lock; increments then index straight into the
///    calling thread's shard.
///  * **Per-worker shards.** Each writer thread lazily gets its own shard
///    (one pointer compare on the fast path via a thread-local cache), so
///    parallel experiment cells never contend on metric cache lines.
///  * **Deterministic merge.** TakeSnapshot sums counters, histogram
///    buckets and exact histogram sums across shards and sorts metrics by
///    name, so the snapshot is byte-stable for a given workload regardless
///    of thread schedule. Gauges are last-writer-wins (a global version
///    stamp picks the most recent set) and are the one knowingly
///    schedule-dependent exception.
///
/// Threading contract: Register*/Add/Set/Observe may be called from any
/// thread; TakeSnapshot must only run at a quiescent point (no concurrent
/// writers — e.g. after ThreadPool::Wait()).
class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registration dedupes by name: re-registering an existing metric of
  /// the same type returns the original handle, so independently
  /// constructed Scopes share one metric namespace.
  CounterHandle RegisterCounter(std::string_view name);
  GaugeHandle RegisterGauge(std::string_view name);
  HistogramHandle RegisterHistogram(std::string_view name,
                                    std::string_view unit = "s");

  void Add(CounterHandle h, int64_t delta = 1);
  void Set(GaugeHandle h, double value);
  void Observe(HistogramHandle h, double value);

  struct HistogramSnapshot {
    std::string name;
    std::string unit;
    uint64_t count = 0;
    double sum = 0.0, min = 0.0, max = 0.0, mean = 0.0;
    double p50 = 0.0, p95 = 0.0, p99 = 0.0;
  };

  struct Snapshot {
    /// Sorted by name.
    std::vector<std::pair<std::string, int64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<HistogramSnapshot> histograms;

    const int64_t* FindCounter(std::string_view name) const;
    const HistogramSnapshot* FindHistogram(std::string_view name) const;
  };

  /// Merges all shards; see the threading contract above.
  Snapshot TakeSnapshot() const;

  size_t num_shards() const;

 private:
  struct Shard;
  struct GaugeCell {
    uint64_t version = 0;
    double value = 0.0;
  };

  Shard* ShardSlow();
  Shard& LocalShard();

  const uint64_t id_;  // process-unique, guards the thread-local cache

  mutable std::mutex mu_;
  std::vector<std::string> counter_names_;
  std::vector<std::string> gauge_names_;
  std::vector<std::string> histogram_names_;
  std::vector<std::string> histogram_units_;
  /// Per-thread metric shards (each belongs to the thread that faulted it
  /// in via LocalShard), with mu_ guarding the list itself for the
  /// registration/snapshot seams.
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> gauge_version_{0};
};

}  // namespace dmr::obs

#endif  // DMR_OBS_METRICS_H_
