#ifndef DMR_PROF_PROF_H_
#define DMR_PROF_PROF_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace dmr::prof {

/// \brief Host-side phase profiling: where does the *simulator* spend real
/// time?
///
/// The obs layer answers "where did simulated slot-seconds go"; this seam
/// answers the dual question for host wall time — which is the binding
/// constraint on 1M+-query runs and 10k-node sweeps (ROADMAP items 1/3).
/// Design goals, in order:
///
///  1. **Near-free when idle.** Every entry point is a single relaxed-ish
///     atomic load and a predictable branch when profiling is off. Hot
///     loops (event dispatch) amortize the two clock reads of an enabled
///     frame over a ~1k-event chunk, so even enabled cost stays within the
///     2% budget benchmarked by `BENCH_sim_scale.json`
///     (`sim_scale_prof_overhead` cells).
///  2. **Determinism-invisible.** Profiling only *observes*: it never
///     reads results back into simulation decisions, so every simulation
///     digest is byte-identical with profiling on or off, across thread
///     counts and tie-shuffle seeds (tier-1 gates this). The seam reads
///     `std::chrono::steady_clock` directly because prof timings never
///     feed a digest-checked output; it is the sanctioned home for raw
///     host-clock reads (`wall-clock` / `raw-host-timer` dmr-lint
///     checks), and bench drivers that time real engines justify each
///     read with an allow() comment.
///  3. **Attributed, not aggregate.** Scopes nest into a per-thread timer
///     tree keyed by (subsystem, phase); `Collect()` merges the threads
///     into one deterministic-by-name tree with call counts, total/self
///     time and min/max, exportable as a JSON report section and as
///     Brendan-Gregg collapsed-stack text for flamegraph/speedscope.
///
/// Threading contract: frames are strictly thread-local (a scope opened on
/// one thread must close on the same thread — RAII enforces this).
/// `Enable()` / `Disable()` / `Collect()` / `ResetForTest()` must run from
/// a quiesced point: no other thread may be inside a frame or about to
/// open one (drivers call them before the worker pool starts and after all
/// cells joined). Collect() flags still-open stacks as imbalances rather
/// than crashing.
class ScopedTimer;

/// Dense id of a registered (subsystem, phase) pair. Register once per
/// call site through a static local:
///
///     static const prof::PhaseId kPhase =
///         prof::RegisterPhase("mapred", "heartbeat");
///     prof::ScopedTimer timer(kPhase);
using PhaseId = int32_t;

/// Registers (or finds) the phase named `subsystem.phase`. Thread-safe;
/// idempotent per name.
PhaseId RegisterPhase(std::string_view subsystem, std::string_view phase);

/// The registered display name ("sim.dispatch") of a phase id.
const std::string& PhaseName(PhaseId id);

namespace internal {
extern std::atomic<bool> g_enabled;
void Begin(PhaseId id);
/// Closes the innermost frame; `count_delta` is the number of logical
/// operations the frame covered (1 for a plain scope, the events fired for
/// a dispatch chunk). An End with no matching Begin is counted as an
/// imbalance and otherwise ignored.
void End(uint64_t count_delta);
}  // namespace internal

/// True when profiling is collecting. Acquire ordering so state cleared by
/// ResetForTest()+Enable() is visible to every thread that observes the
/// flag flip.
inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_acquire);
}

/// Starts collection (idempotent). Calibrates the timer-pair overhead on
/// first use; calibration is subtracted from every frame so ~100 ns phases
/// stay honest.
void Enable();

/// Stops collection. Aggregated state is kept for Collect().
void Disable();

/// Nanoseconds from the sanctioned raw monotonic clock (prof-internal
/// epoch). Exposed for bench drivers that want manual bracketing.
uint64_t NowNanos();

/// \brief RAII frame: opens a child of the calling thread's current phase
/// node on construction, records duration/count on destruction. ~2 clock
/// reads when enabled, one atomic load when disabled.
class ScopedTimer {
 public:
  explicit ScopedTimer(PhaseId id) : active_(Enabled()) {
    if (active_) internal::Begin(id);
  }
  ~ScopedTimer() {
    if (active_) internal::End(1);
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  bool active_;
};

/// Explicit frame API for bulk-amortized sites (the event-dispatch chunk):
/// callers gate on Enabled() themselves, then attribute `count` logical
/// operations to the one frame.
///
///     if (prof::Enabled()) {
///       prof::BeginPhase(kDispatch);
///       ... fire up to N events ...
///       prof::EndPhase(fired);
///     }
inline void BeginPhase(PhaseId id) { internal::Begin(id); }
inline void EndPhase(uint64_t count_delta) { internal::End(count_delta); }

// ---------------------------------------------------------------------------
// Allocation accounting: fixed well-known sites (bytes + counts), cheap
// enough to hook slab carves and cache builds without a registry lookup.
// ---------------------------------------------------------------------------

enum class AllocSite : int {
  kArenaChunk = 0,     // sim::Arena 64 KB chunk carved from the OS
  kArenaLarge,         // sim::Arena request above the biggest size class
  kCallbackSpill,      // EventCallback too big for inline SBO storage
  kColumnarBuild,      // ColumnarPartition materialized from row form
  kDatasetCacheBuild,  // MaterializeDatasetShared cache miss (bytes built)
  kDatasetCacheHit,    // MaterializeDatasetShared cache hit (bytes reused)
  kNumSites,
};

/// Dump name of a site ("sim.arena.chunk", ...).
std::string_view AllocSiteName(AllocSite site);

/// Adds `count` allocations totalling `bytes` to the site. No-op when
/// profiling is disabled. Relaxed atomics: totals, never ordering.
void AccountAlloc(AllocSite site, uint64_t count, uint64_t bytes);

// ---------------------------------------------------------------------------
// Sealing and export.
// ---------------------------------------------------------------------------

/// One merged phase node, identified by its root-to-node path (phase
/// names joined with ';' — the collapsed-stack convention).
struct PhaseStat {
  std::string path;
  uint64_t count = 0;     // logical operations attributed to the node
  uint64_t total_ns = 0;  // inclusive wall time across all frames
  uint64_t self_ns = 0;   // total minus direct children (clamped >= 0)
  uint64_t min_ns = 0;    // fastest single frame
  uint64_t max_ns = 0;    // slowest single frame
};

struct AllocStat {
  std::string site;
  uint64_t count = 0;
  uint64_t bytes = 0;
};

/// A sealed profile: thread trees merged by path, sorted by path so every
/// rendering is deterministic for a given set of measurements.
struct ProfReport {
  double calibration_ns = 0.0;  // per-frame overhead subtracted
  int threads = 0;              // thread-local trees merged
  int imbalances = 0;           // still-open frames + unmatched Ends
  std::vector<PhaseStat> phases;  // sorted by path
  std::vector<AllocStat> alloc;   // sites with activity, in enum order

  const PhaseStat* FindPhase(std::string_view path) const;
};

/// Merges every thread's tree into one report. Must run quiesced (see the
/// class comment); still-open frames are reported as imbalances, with the
/// time accumulated so far excluded.
ProfReport Collect();

/// Drops all recorded state (trees, alloc counters, imbalance counts).
/// Quiesced-only, like Collect. For A/B overhead cells and tests.
void ResetForTest();

/// JSON object: {"calibration_ns":.., "threads":.., "imbalances":..,
/// "phases":[{"path":..,"count":..,"total_ns":..,"self_ns":..,"min_ns":..,
/// "max_ns":..}], "alloc":[{"site":..,"count":..,"bytes":..}]}.
std::string ToJson(const ProfReport& report);

/// Brendan-Gregg collapsed-stack text: one `path self_ns` line per phase
/// node (flamegraph.pl / speedscope input), sorted by path.
std::string ToCollapsed(const ProfReport& report);

/// Parses collapsed-stack text back into a report skeleton (paths +
/// self_ns; counts/extrema are not representable in the format). The
/// exact inverse of ToCollapsed for round-trip checks.
Result<ProfReport> ParseCollapsed(std::string_view text);

}  // namespace dmr::prof

#endif  // DMR_PROF_PROF_H_
