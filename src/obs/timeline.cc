#include "obs/timeline.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "common/json.h"
#include "common/logging.h"
#include "obs/metrics.h"

namespace dmr::obs {

using json::JsonNumber;

/// One polled series: a callback plus its ring of (t, value, rate) points.
struct Timeline::ProbeSeries {
  std::string name;
  std::string unit;
  SeriesKind kind = SeriesKind::kGauge;
  std::function<double()> fn;
  double prev_value = 0.0;

  struct Point {
    double t;
    double value;
    double rate;
  };
  std::deque<Point> points;

  // Whole-run running stats: the ring above keeps only the last max_ticks
  // points, so extrema must be accumulated here or eviction would blind
  // cross-run regression checks to everything before the final window.
  double min_value = 0.0;
  double max_value = 0.0;
  double sum_value = 0.0;
  double t_at_max = 0.0;
  size_t sampled_ticks = 0;
};

/// Rolling dense bucket counts for one (series, window) pair.
struct Timeline::WindowState {
  std::vector<uint64_t> counts;  // dense, HistogramData::kNumBuckets
  uint64_t total = 0;
  // Occupied-bucket bounds: the percentile scan walks [lo_bucket,
  // hi_bucket] instead of all ~4k buckets. Only ever widened (evictions
  // may leave the bounds conservative), so they bound — never clip — the
  // live range; a series that stays in one octave scans a handful of
  // buckets per tick instead of the whole dense array.
  int lo_bucket = HistogramData::kNumBuckets;
  int hi_bucket = -1;

  struct Point {
    double t;
    uint64_t count;
    double p50, p90, p99;
  };
  std::deque<Point> points;

  // Whole-run maxima across every closed tick (survive ring eviction).
  uint64_t count_max = 0;
  double p50_max = 0.0;
  double p90_max = 0.0;
  double p99_max = 0.0;
};

struct Timeline::WindowedSeries {
  std::string name;
  std::string unit;
  /// Observations of the *open* tick: (bucket, count) pairs, unsorted and
  /// possibly duplicated — merged once when the tick closes.
  std::vector<std::pair<int, uint64_t>> open_tick;
  /// Merged per-tick deltas of the last max-window ticks, oldest first.
  std::deque<std::vector<std::pair<int, uint64_t>>> history;
  std::vector<WindowState> windows;  // parallel to options_.windows
};

Timeline::Timeline(const TimelineOptions& options) : options_(options) {
  DMR_CHECK_GT(options_.interval, 0.0) << "timeline interval";
  DMR_CHECK_GT(options_.max_ticks, 0u) << "timeline ring capacity";
  window_ticks_.reserve(options_.windows.size());
  for (double w : options_.windows) {
    DMR_CHECK_GT(w, 0.0) << "timeline window";
    // Round up to whole ticks so a 10s window at a 3s cadence still
    // covers at least 10 simulated seconds.
    window_ticks_.push_back(
        static_cast<size_t>(std::ceil(w / options_.interval - 1e-9)));
  }
}

Timeline::~Timeline() = default;

void Timeline::AddProbe(std::string_view name, std::string_view unit,
                        SeriesKind kind, std::function<double()> fn) {
  for (const auto& p : probes_) {
    if (p->name == name) return;  // dedupe; first registration wins
  }
  auto series = std::make_unique<ProbeSeries>();
  series->name = std::string(name);
  series->unit = std::string(unit);
  series->kind = kind;
  series->fn = std::move(fn);
  // Seed the rate baseline from the registration-time value so the first
  // tick reports the delta since attach, not since an imaginary zero.
  series->prev_value = series->fn ? series->fn() : 0.0;
  probes_.push_back(std::move(series));
}

Timeline::WindowedId Timeline::AddWindowed(std::string_view name,
                                           std::string_view unit) {
  for (uint32_t i = 0; i < windowed_.size(); ++i) {
    if (windowed_[i]->name == name) return WindowedId{i};
  }
  auto series = std::make_unique<WindowedSeries>();
  series->name = std::string(name);
  series->unit = std::string(unit);
  series->windows.resize(window_ticks_.size());
  windowed_.push_back(std::move(series));
  return WindowedId{static_cast<uint32_t>(windowed_.size() - 1)};
}

void Timeline::Observe(WindowedId id, double value) {
  if (!id.valid() || id.index >= windowed_.size()) return;
  windowed_[id.index]->open_tick.emplace_back(
      HistogramData::BucketFor(value), uint64_t{1});
}

namespace {

/// Sorts-and-merges an open tick's (bucket, count) pairs in place.
void MergeOpenTick(std::vector<std::pair<int, uint64_t>>* deltas) {
  std::sort(deltas->begin(), deltas->end(),
            [](const std::pair<int, uint64_t>& a,
               const std::pair<int, uint64_t>& b) { return a.first < b.first; });
  size_t out = 0;
  for (size_t i = 0; i < deltas->size(); ++i) {
    if (out > 0 && (*deltas)[out - 1].first == (*deltas)[i].first) {
      (*deltas)[out - 1].second += (*deltas)[i].second;
    } else {
      (*deltas)[out++] = (*deltas)[i];
    }
  }
  deltas->resize(out);
}

/// p50/p90/p99 by one pass over the dense counts in [lo, hi] (nearest
/// rank; answers are bucket lower edges — the window has no exact min/max
/// to clamp to, unlike HistogramData::Percentile).
void ScanPercentiles(const std::vector<uint64_t>& counts, uint64_t total,
                     int lo, int hi, double* p50, double* p90, double* p99) {
  *p50 = *p90 = *p99 = 0.0;
  if (total == 0 || counts.empty()) return;
  if (lo < 0) lo = 0;
  if (hi >= static_cast<int>(counts.size())) {
    hi = static_cast<int>(counts.size()) - 1;
  }
  auto rank = [total](double q) -> uint64_t {
    auto r = static_cast<uint64_t>(
        std::ceil(q / 100.0 * static_cast<double>(total)));
    return r == 0 ? 1 : r;
  };
  const uint64_t r50 = rank(50.0), r90 = rank(90.0), r99 = rank(99.0);
  uint64_t cum = 0;
  bool need50 = true, need90 = true, need99 = true;
  for (int b = lo; b <= hi; ++b) {
    if (counts[b] == 0) continue;
    cum += counts[b];
    const double edge = HistogramData::BucketLowerEdge(b);
    if (need50 && cum >= r50) {
      *p50 = edge;
      need50 = false;
    }
    if (need90 && cum >= r90) {
      *p90 = edge;
      need90 = false;
    }
    if (need99 && cum >= r99) {
      *p99 = edge;
      need99 = false;
    }
    if (!need99) break;
  }
}

}  // namespace

void Timeline::Sample(double now) {
  DMR_CHECK(!sealed_) << "Timeline::Sample after Seal";
  DMR_CHECK_GT(now, last_tick_time_) << "timeline ticks must move forward";
  const double dt = now - last_tick_time_;

  for (auto& probe : probes_) {
    const double value = probe->fn ? probe->fn() : 0.0;
    const double rate = (value - probe->prev_value) / dt;
    probe->prev_value = value;
    probe->points.push_back({now, value, rate});
    if (probe->points.size() > options_.max_ticks) probe->points.pop_front();
    if (probe->sampled_ticks == 0) {
      probe->min_value = value;
      probe->max_value = value;
      probe->t_at_max = now;
    } else {
      probe->min_value = std::min(probe->min_value, value);
      if (value > probe->max_value) {
        probe->max_value = value;
        probe->t_at_max = now;
      }
    }
    probe->sum_value += value;
    ++probe->sampled_ticks;
  }

  const size_t max_window =
      window_ticks_.empty()
          ? 0
          : *std::max_element(window_ticks_.begin(), window_ticks_.end());
  for (auto& series : windowed_) {
    MergeOpenTick(&series->open_tick);
    series->history.push_back(std::move(series->open_tick));
    series->open_tick.clear();
    for (size_t w = 0; w < window_ticks_.size(); ++w) {
      WindowState& state = series->windows[w];
      if (state.counts.empty()) {
        state.counts.resize(HistogramData::kNumBuckets, 0);
      }
      for (const auto& [bucket, count] : series->history.back()) {
        state.counts[static_cast<size_t>(bucket)] += count;
        state.total += count;
        if (bucket < state.lo_bucket) state.lo_bucket = bucket;
        if (bucket > state.hi_bucket) state.hi_bucket = bucket;
      }
      if (series->history.size() > window_ticks_[w]) {
        const auto& departing =
            series->history[series->history.size() - 1 - window_ticks_[w]];
        for (const auto& [bucket, count] : departing) {
          DMR_CHECK_GE(state.counts[static_cast<size_t>(bucket)], count);
          state.counts[static_cast<size_t>(bucket)] -= count;
          state.total -= count;
        }
      }
      double p50, p90, p99;
      ScanPercentiles(state.counts, state.total, state.lo_bucket,
                      state.hi_bucket, &p50, &p90, &p99);
      state.points.push_back({now, state.total, p50, p90, p99});
      if (state.points.size() > options_.max_ticks) state.points.pop_front();
      state.count_max = std::max(state.count_max, state.total);
      state.p50_max = std::max(state.p50_max, p50);
      state.p90_max = std::max(state.p90_max, p90);
      state.p99_max = std::max(state.p99_max, p99);
    }
    if (series->history.size() > max_window) {
      // The retired tick's buffer becomes the next open tick, so a steady
      // series observes without allocating.
      series->open_tick = std::move(series->history.front());
      series->open_tick.clear();
      series->history.pop_front();
    }
  }

  if (ticks_ >= options_.max_ticks) ++dropped_ticks_;
  ++ticks_;
  last_tick_time_ = now;
}

bool Timeline::LatestWindowStat(std::string_view series, double window,
                                double q, double* out) const {
  for (const auto& s : windowed_) {
    if (s->name != series) continue;
    for (size_t w = 0; w < options_.windows.size(); ++w) {
      if (std::fabs(options_.windows[w] - window) > 1e-9) continue;
      const WindowState& state = s->windows[w];
      if (state.points.empty()) return false;
      const WindowState::Point& p = state.points.back();
      if (q == 50.0) {
        *out = p.p50;
      } else if (q == 90.0) {
        *out = p.p90;
      } else if (q == 99.0) {
        *out = p.p99;
      } else {
        return false;
      }
      return true;
    }
    return false;
  }
  return false;
}

bool Timeline::LatestProbeValue(std::string_view series, double* out) const {
  for (const auto& p : probes_) {
    if (p->name != series) continue;
    if (p->points.empty()) return false;
    *out = p->points.back().value;
    return true;
  }
  return false;
}

void Timeline::Seal(double now) {
  DMR_CHECK(!sealed_) << "Timeline sealed twice";
  sealed_ = true;
  sealed_at_ = now;
}

std::string Timeline::ToJson() const {
  DMR_CHECK(sealed_) << "Timeline::ToJson before Seal";
  std::string out = "{\"ticks\": " + std::to_string(ticks_) +
                    ", \"dropped_ticks\": " + std::to_string(dropped_ticks_) +
                    ", \"sealed_at\": " + JsonNumber(sealed_at_);

  // Emission iterates index vectors sorted by series name — registration
  // order is a program detail, not part of the output contract.
  std::vector<const ProbeSeries*> probes;
  probes.reserve(probes_.size());
  for (const auto& p : probes_) probes.push_back(p.get());
  std::sort(probes.begin(), probes.end(),
            [](const ProbeSeries* a, const ProbeSeries* b) {
              return a->name < b->name;
            });
  out += ",\n     \"series\": [";
  bool first = true;
  for (const ProbeSeries* p : probes) {
    if (!first) out += ",";
    first = false;
    const double mean = p->sampled_ticks > 0
                            ? p->sum_value /
                                  static_cast<double>(p->sampled_ticks)
                            : 0.0;
    out += "\n      {\"name\": " + json::JsonQuote(p->name) +
           ", \"unit\": " + json::JsonQuote(p->unit) + ", \"kind\": " +
           (p->kind == SeriesKind::kCounter ? "\"counter\"" : "\"gauge\"") +
           ",\n       \"summary\": {\"ticks\": " +
           std::to_string(p->sampled_ticks) + ", \"min\": " +
           JsonNumber(p->min_value) +
           ", \"max\": " + JsonNumber(p->max_value) +
           ", \"mean\": " + JsonNumber(mean) +
           ", \"last\": " + JsonNumber(p->prev_value) +
           ", \"t_at_max\": " + JsonNumber(p->t_at_max) +
           "}, \"points\": [";
    bool first_point = true;
    for (const ProbeSeries::Point& point : p->points) {
      if (!first_point) out += ", ";
      first_point = false;
      out += "[" + JsonNumber(point.t) + ", " + JsonNumber(point.value) + ", " +
             JsonNumber(point.rate) + "]";
    }
    out += "]}";
  }
  out += first ? "]" : "\n     ]";

  std::vector<const WindowedSeries*> windowed;
  windowed.reserve(windowed_.size());
  for (const auto& s : windowed_) windowed.push_back(s.get());
  std::sort(windowed.begin(), windowed.end(),
            [](const WindowedSeries* a, const WindowedSeries* b) {
              return a->name < b->name;
            });
  out += ",\n     \"windowed\": [";
  first = true;
  for (const WindowedSeries* s : windowed) {
    if (!first) out += ",";
    first = false;
    out += "\n      {\"name\": " + json::JsonQuote(s->name) +
           ", \"unit\": " + json::JsonQuote(s->unit) + ", \"windows\": [";
    bool first_window = true;
    for (size_t w = 0; w < options_.windows.size(); ++w) {
      if (!first_window) out += ",";
      first_window = false;
      const WindowState& state = s->windows[w];
      out += "\n       {\"window\": " + JsonNumber(options_.windows[w]) +
             ", \"summary\": {\"count_max\": " +
             std::to_string(state.count_max) + ", \"p50_max\": " +
             JsonNumber(state.p50_max) +
             ", \"p90_max\": " + JsonNumber(state.p90_max) +
             ", \"p99_max\": " + JsonNumber(state.p99_max) +
             "}, \"points\": [";
      bool first_point = true;
      for (const WindowState::Point& point : s->windows[w].points) {
        if (!first_point) out += ", ";
        first_point = false;
        out += "[" + JsonNumber(point.t) + ", " + std::to_string(point.count) +
               ", " + JsonNumber(point.p50) + ", " +
               JsonNumber(point.p90) + ", " + JsonNumber(point.p99) + "]";
      }
      out += "]}";
    }
    out += first_window ? "]}" : "\n      ]}";
  }
  out += first ? "]}" : "\n     ]}";
  return out;
}

}  // namespace dmr::obs
