#ifndef DMR_PERFBENCH_PERFBENCH_H_
#define DMR_PERFBENCH_PERFBENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram.h"

namespace dmr::perfbench {

/// What one invocation of the benchmark asks for.
struct RunOptions {
  uint64_t seed = 1;
  /// Length of the measured section, in host seconds (--seconds, which
  /// run.py defaults to BENCHMARK.json run_seconds).
  double seconds = 0.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Directory (inside the checkout) for files a workload writes.
  std::string scratch_dir;
};

/// What one workload measured. `metrics` is keyed by the names
/// BENCHMARK.json lists; main.cc emits exactly those.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> metrics;
  /// Human-readable lines printed before the result (digests, checks,
  /// metrics that only this workload has).
  std::vector<std::string> notes;
};

Outcome RunFig6ClosedLoop(const RunOptions& options);
Outcome RunFig8FairObserved(const RunOptions& options);
Outcome RunLocalSampling(const RunOptions& options);

// ---------------------------------------------------------------------------
// Measurement helpers (trace.cc).
// ---------------------------------------------------------------------------

/// Host nanoseconds from std::chrono::steady_clock.
uint64_t NowNs();
/// CPU nanoseconds used by the whole process (every thread).
uint64_t ProcessCpuNs();
/// Peak resident set size of the process (VmHWM), in MiB.
double PeakRssMb();

/// wall_s is this percentile of a run's per-cell or per-batch times. On a
/// shared host a run mixes fast and slow stretches in a share that changes
/// from run to run; the slow level repeats, so a high percentile moves far
/// less between runs than the median (perfbench/README.md, Steadiness).
constexpr double kWallPercentile = 90.0;

/// The highest of p50/p90/p99/p99.9/p99.99 with at least 10 samples above
/// it, as {percentile, value}; {50, median} when fewer samples exist.
std::pair<double, double> TailPercentile(const Histogram& samples);

/// 64-bit FNV-1a of `text`, as 16 hex digits.
std::string Digest(const std::string& text);
/// Derives an independent 64-bit seed from (seed, a, b) with splitmix64.
uint64_t MixSeed(uint64_t seed, uint64_t a, uint64_t b = 0);

std::string Format(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

// ---------------------------------------------------------------------------
// Traced-run instrumentation (trace.cc).
// ---------------------------------------------------------------------------

/// Allocation counting through the binary's global operator new. Counts
/// only while armed; unarmed, operator new is malloc plus one relaxed load.
void ArmAllocCounting(bool armed);
/// Allocations counted since the process started (all threads).
uint64_t AllocCount();

/// \brief In-memory spans around the benchmark's calls into the program.
///
/// A span records name, start, end and its parent (the innermost span open
/// on the recording thread); spans of one job or query share `op`. Only
/// the benchmark's main thread records spans. Disabled, Begin/End cost one
/// branch.
class Tracer {
 public:
  struct Span {
    const char* name = nullptr;
    uint64_t op = 0;
    int parent = -1;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    uint64_t child_ns = 0;  // summed durations of direct children
    uint64_t allocs = 0;    // allocations counted between Begin and End
  };

  /// Per-name aggregate over every closed span.
  struct Stat {
    uint64_t count = 0;
    double total_ns = 0;
    double self_ns = 0;
    double allocs = 0;
    Histogram durations_ns;
  };

  static Tracer& Global();

  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Opens a span; returns its index, or -1 when disabled.
  int Begin(const char* name, uint64_t op);
  void End(int index);

  std::map<std::string, Stat> Aggregate() const;
  /// One line per span name: count, total ms, self ms, mean us.
  std::vector<std::string> Summary() const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span on the global tracer.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, uint64_t op)
      : index_(Tracer::Global().Begin(name, op)) {}
  ~ScopedSpan() { Tracer::Global().End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int index_;
};

/// Self time of the profiler phase named `phase` ("sim.dispatch"), summed
/// over every path it appears on, from a sealed prof::Collect() report;
/// and its call count.
struct PhaseTotals {
  double self_ms = 0;
  double count = 0;
};
class ProfView {
 public:
  /// Seals the profiler (prof::Disable + prof::Collect).
  static ProfView Seal();
  PhaseTotals Phase(const std::string& phase) const;
  /// Allocation count of a prof::AllocSite by dump name.
  double AllocSiteCount(const std::string& site) const;

 private:
  std::map<std::string, PhaseTotals> phases_;
  std::map<std::string, double> alloc_;
};

}  // namespace dmr::perfbench

#endif  // DMR_PERFBENCH_PERFBENCH_H_
