#ifndef DMR_OBS_TIMELINE_H_
#define DMR_OBS_TIMELINE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/slo.h"
#include "sim/arena.h"

namespace dmr::obs {

/// Configuration for one timeline cell. Every knob is in *virtual*
/// seconds/ticks — the timeline never reads the host clock, which is what
/// makes its output byte-identical across --threads/--queue/--shuffle-ties
/// (DESIGN.md §15).
struct TimelineOptions {
  /// Sampling cadence in simulated seconds.
  double interval = 1.0;
  /// Sliding windows (in simulated seconds) for percentile series. Each
  /// is rounded up to a whole number of ticks.
  std::vector<double> windows = {10.0, 60.0};
  /// Ring capacity: retain at most this many ticks per series; older
  /// ticks are evicted (counted in dropped_ticks).
  size_t max_ticks = 256;
  /// Flight-recorder ring capacity for the owning cell.
  size_t flight_capacity = 128;
};

/// \brief A virtual-time sampler: polls registered probes and closes
/// sliding-percentile windows on a fixed simulated cadence.
///
/// Two series families:
///  * **Probe series** (AddProbe): a `double()` callback polled once per
///    tick; each point records (t, value, rate) where rate is the delta
///    per simulated second since the previous tick — for kCounter probes
///    the interesting number, for kGauge probes a first derivative.
///  * **Windowed series** (AddWindowed): hot-path `Observe(id, value)`
///    calls are bucketed with HistogramData's HDR bucket map into a
///    per-tick sparse delta; at each tick every configured window rolls
///    forward (add the newest tick's buckets, retire the departing
///    tick's) and records (t, count, p50, p90, p99) by one scan of the
///    dense window counts. Cost per tick is O(observed distinct buckets +
///    window scan), independent of window length.
///
/// Determinism: ticks are driven by kBookkeeping simulation events
/// scheduled by the owner (Testbed) and every probe/observation is a pure
/// function of virtual-time state, so the emitted JSON is byte-identical
/// across thread counts, queue kinds and tie-shuffle seeds. Emission
/// iterates series sorted by name.
///
/// Threading: one Timeline belongs to one experiment cell; all calls
/// (registration, Observe, Sample, ToJson) come from that cell's
/// simulation thread or the driver's quiescent setup/teardown edges —
/// the same single-writer contract the Ledger uses.
class Timeline {
 public:
  enum class SeriesKind { kGauge, kCounter };

  struct WindowedId {
    uint32_t index = UINT32_MAX;
    bool valid() const { return index != UINT32_MAX; }
  };

  explicit Timeline(const TimelineOptions& options = TimelineOptions());
  ~Timeline();

  Timeline(const Timeline&) = delete;
  Timeline& operator=(const Timeline&) = delete;

  const TimelineOptions& options() const { return options_; }

  /// Registers a probe polled once per tick. Dedupes by name (the first
  /// registration's kind/unit/fn win).
  void AddProbe(std::string_view name, std::string_view unit,
                SeriesKind kind, std::function<double()> fn);

  /// Registers a windowed (sliding-percentile) series; dedupes by name.
  WindowedId AddWindowed(std::string_view name, std::string_view unit);

  /// Hot path: records one observation into the current tick. A handful
  /// of arithmetic ops + an amortized push_back; no map lookups.
  void Observe(WindowedId id, double value);

  /// Closes the tick at virtual time `now`: polls every probe, rolls
  /// every window, appends one point per series. `now` must be strictly
  /// greater than the previous tick time.
  void Sample(double now);

  /// Latest closed value of windowed percentile `q` (50/90/99) over
  /// `window` simulated seconds. False when the series/window is unknown
  /// or no tick has closed yet.
  bool LatestWindowStat(std::string_view series, double window, double q,
                        double* out) const;

  /// Latest polled value of a probe series; false when unknown/no tick.
  bool LatestProbeValue(std::string_view series, double* out) const;

  /// Marks the end of the run; ToJson refuses unsealed timelines (the
  /// book skips unsealed cells).
  void Seal(double now);
  bool sealed() const { return sealed_; }

  size_t ticks() const { return ticks_; }
  uint64_t dropped_ticks() const { return dropped_ticks_; }

  /// JSON object with "series" and "windowed" arrays, each sorted by
  /// series name. Points are compact arrays:
  ///   probe point:    [t, value, rate]
  ///   windowed point: [t, count, p50, p90, p99]
  /// Each series also carries a whole-run "summary" object (probe:
  /// ticks/min/max/mean/last/t_at_max; per window: count_max and
  /// p50/p90/p99 maxima) accumulated across *every* closed tick — the
  /// ring keeps only the last max_ticks points, so `dmr-analyze
  /// timeline` regression bands key on the summaries, not the points.
  std::string ToJson() const;

 private:
  struct ProbeSeries;
  struct WindowState;
  struct WindowedSeries;

  TimelineOptions options_;
  std::vector<size_t> window_ticks_;  // per options_.windows entry

  std::vector<std::unique_ptr<ProbeSeries>> probes_;
  std::vector<std::unique_ptr<WindowedSeries>> windowed_;

  double last_tick_time_ = 0.0;
  size_t ticks_ = 0;
  uint64_t dropped_ticks_ = 0;
  double sealed_at_ = 0.0;
  bool sealed_ = false;
};

}  // namespace dmr::obs

#endif  // DMR_OBS_TIMELINE_H_
