#ifndef DMR_OBS_METRICS_H_
#define DMR_OBS_METRICS_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dmr::obs {

/// The fixed metric table: every counter, gauge and histogram a cell
/// records, by index. Names are in metrics.cc; snapshots sort by name.
enum class Counter : uint8_t {
  // JobTracker lifecycle.
  kHeartbeats,
  kJobsSubmitted,
  kJobsCompleted,
  kSplitsAdded,
  kMapsLaunched,
  kMapsCompleted,
  kMapsFailed,
  kBackupsLaunched,
  kAttemptsKilled,
  kReducesLaunched,
  // Input-provider decisions (recorded by the JobClient loop).
  kProviderEvaluations,
  kProviderGrows,
  kProviderWaits,
  kProviderEndOfInput,
  // Scheduler.
  kSchedDecisions,
  kSchedDelayHolds,
  kSchedDelaySkips,
  // DFS placement.
  kDfsFilesCreated,
  kDfsPartitionsPlaced,
  kDfsBytesPlaced,
  // Adaptive layout (DESIGN.md §16): the exec.* set by the record-level
  // LocalRuntime, splits_pruned by the simulator's per-split cost model.
  kExecPartitionsPruned,
  kExecBatchesPruned,
  kExecRowsSkipped,
  kExecIndexBuilds,
  kExecIndexHits,
  kSplitsPruned,
  // Virtual-time tie-race totals, recorded once per cell at teardown
  // (see sim::TieStats).
  kSimTieGroups,
  kSimTieEvents,
};
inline constexpr int kNumCounters = 28;

/// Last-set values (diagnostic only).
enum class Gauge : uint8_t { kSelectivityEstimate, kObservedSkewCv };
inline constexpr int kNumGauges = 2;

/// Latencies in simulated seconds. Host time of the decision code (which
/// runs in zero simulated time) is the prof phases' job.
enum class Histogram : uint8_t { kTaskWait, kTaskRun, kJobResponse };
inline constexpr int kNumHistograms = 3;

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
/// cells into the run totals.
///
/// Values are bucketed by binary exponent with kSubBuckets linear
/// sub-buckets per octave (~3 % relative precision at 32 sub-buckets),
/// so merging is a commutative sum of bucket counts, and the sum is exact
/// (ExactSum) — snapshot results, sum and mean included, are identical
/// regardless of which cell recorded what.
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

/// \brief One cell's metrics, or a run's totals: counters, gauges and
/// histograms indexed by the fixed metric table. Recording is an array
/// index plus an add; a Metrics belongs to one writer.
///
/// MergeFrom is deterministic: it sums counters and histogram buckets and
/// merges the exact histogram sums, so totals do not depend on which cell
/// recorded what or in which order cells merge. A gauge keeps its most
/// recent set: every Set takes a process-wide version stamp and a merge
/// keeps the higher one (the one knowingly schedule-dependent value).
class Metrics {
 public:
  void Add(Counter c, int64_t delta = 1) {
    counters_[static_cast<int>(c)] += delta;
  }
  void Set(Gauge g, double value);
  void Observe(Histogram h, double value) {
    histograms_[static_cast<int>(h)].Observe(value);
  }

  void MergeFrom(const Metrics& other);

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

  /// Every metric of the table, sorted by name.
  Snapshot TakeSnapshot() const;

 private:
  struct GaugeValue {
    uint64_t version = 0;  // 0: never set
    double value = 0.0;
  };

  std::array<int64_t, kNumCounters> counters_{};
  std::array<GaugeValue, kNumGauges> gauges_{};
  std::array<HistogramData, kNumHistograms> histograms_;
};

}  // namespace dmr::obs

#endif  // DMR_OBS_METRICS_H_
