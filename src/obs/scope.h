#ifndef DMR_OBS_SCOPE_H_
#define DMR_OBS_SCOPE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "obs/lifecycle.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dmr::obs {

class EventGraph;
class FlightRecorder;
class Ledger;
class LedgerBook;
struct LedgerCell;
class SloMonitor;
class Timeline;
class TimelineBook;
struct TimelineCell;

/// \brief The standard pre-registered metric handle set shared by every
/// instrumented component. Registering the same names twice is safe
/// (MetricsRegistry dedupes), so each Scope owns its own copy of the
/// handles while all Scopes on one registry share the metrics.
struct StandardMetrics {
  StandardMetrics() = default;
  /// Registers everything on `registry` (null leaves the handles invalid,
  /// which makes every recording call a no-op).
  explicit StandardMetrics(MetricsRegistry* registry);

  // JobTracker lifecycle counters.
  CounterHandle heartbeats;
  CounterHandle jobs_submitted;
  CounterHandle jobs_completed;
  CounterHandle splits_added;
  CounterHandle maps_launched;
  CounterHandle maps_completed;
  CounterHandle maps_failed;
  CounterHandle backups_launched;
  CounterHandle attempts_killed;
  CounterHandle reduces_launched;

  // Input-provider decision counters (recorded by the JobClient loop).
  CounterHandle provider_evaluations;
  CounterHandle provider_grows;
  CounterHandle provider_waits;
  CounterHandle provider_end_of_input;

  // Scheduler counters.
  CounterHandle sched_decisions;
  CounterHandle sched_delay_holds;
  CounterHandle sched_delay_skips;

  // DFS counters.
  CounterHandle dfs_files_created;
  CounterHandle dfs_partitions_placed;
  CounterHandle dfs_bytes_placed;

  // Adaptive-layout counters (zone-map pruning + piggybacked indexing,
  // DESIGN.md §16). The exec.* set is recorded by the record-level
  // LocalRuntime; splits_pruned by the simulator's per-split cost model
  // when a grabbed split's stats hint reduced it to a stats-read.
  CounterHandle exec_partitions_pruned;
  CounterHandle exec_batches_pruned;
  CounterHandle exec_rows_skipped;
  CounterHandle exec_index_builds;
  CounterHandle exec_index_hits;
  CounterHandle splits_pruned;

  // Virtual-time tie-race detector totals (recorded once per cell when the
  // testbed tears down; see sim::TieStats). Invariant across
  // --shuffle-ties seeds when the system is tie-order independent.
  CounterHandle sim_tie_groups;
  CounterHandle sim_tie_events;

  // Latency histograms, in simulated seconds. Host time of the decision
  // code (which runs in zero simulated time) is the prof phases' job.
  HistogramHandle task_wait;
  HistogramHandle task_run;
  HistogramHandle job_response;

  // Gauges (last-writer-wins; diagnostic only).
  GaugeHandle selectivity_estimate;
  GaugeHandle observed_skew_cv;
};

/// \brief The nullable observability context threaded through the
/// execution layers (JobTracker, providers, DFS, cluster).
///
/// Components hold an `obs::Scope*` that is null by default; every
/// instrumentation site is guarded by that null check, which preserves
/// the zero-overhead-when-off contract (no obs work, no allocations, no
/// atomic traffic on the simulation hot path unless a scope is attached).
///
/// A Scope pairs one (shared, sharded) MetricsRegistry with one
/// (per-cell) TraceStream, one (per-cell) LedgerCell holding the
/// slot-time ledger + critical-path event graph, and one (per-cell)
/// TimelineCell holding the virtual-time sampler + SLO monitor + flight
/// recorder; any may be absent. Record() is the one entry point through
/// which job lifecycle steps reach all of them.
class Scope {
 public:
  /// `map_slots_per_node` places reduce spans on the trace lane after a
  /// node's map slots.
  Scope(MetricsRegistry* metrics, TraceStream* trace,
        LedgerCell* cell = nullptr, TimelineCell* tcell = nullptr,
        int map_slots_per_node = 0);
  ~Scope();

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Null when tracing is off — callers must check.
  TraceStream* trace() const { return trace_; }
  /// Null when no ledger book is installed — callers must check. These
  /// are defined out-of-line so this header needn't pull in ledger.h /
  /// timeline.h.
  Ledger* ledger() const;
  /// Null when no timeline book is installed — callers must check.
  Timeline* timeline() const;
  SloMonitor* slo() const;
  /// Attaches a driver-provided (key, value) annotation to the cell (used
  /// to key cross-run joins in dmr-analyze). Mirrors into both the ledger
  /// and the timeline cell; no-op when neither is present.
  void Annotate(std::string_view key, std::string_view value);
  const StandardMetrics& m() const { return m_; }

  /// Feeds one job lifecycle step to every attached recorder. An attempt's
  /// end must arrive before its node releases the slot, so the ledger
  /// learns the outcome of the busy interval the release closes.
  void Record(const LifecycleRecord& rec);

  void Count(CounterHandle h, int64_t delta = 1) {
    if (metrics_ != nullptr) metrics_->Add(h, delta);
  }
  void Observe(HistogramHandle h, double value) {
    if (metrics_ != nullptr) metrics_->Observe(h, value);
  }
  void SetGauge(GaugeHandle h, double value) {
    if (metrics_ != nullptr) metrics_->Set(h, value);
  }

 private:
  /// What Record keeps between steps (defined in scope.cc).
  struct LifecycleState;

  MetricsRegistry* metrics_;
  TraceStream* trace_;
  LedgerCell* cell_;
  TimelineCell* tcell_;
  StandardMetrics m_;
  std::unique_ptr<LifecycleState> lifecycle_;
};

/// \brief A process-global observability session, installed by the bench
/// harness when `--trace=`/`--metrics=` are given.
///
/// Components never read the hub directly; only the Testbed does, to
/// auto-attach a Scope per experiment cell, so library users who pass
/// their own Scope (or none) are unaffected. Install/Uninstall are meant
/// for the single-threaded setup/teardown edges of a driver run.
class Hub {
 public:
  /// Installs the global session (non-owning; any may be null).
  static void Install(MetricsRegistry* registry, TraceRecorder* recorder,
                      LedgerBook* book = nullptr,
                      TimelineBook* timelines = nullptr);
  static void Uninstall();

  static bool active();
  static MetricsRegistry* registry();
  static TraceRecorder* recorder();
  static LedgerBook* book();
  static TimelineBook* timeline_book();

  /// Monotone per-install cell sequence, used to label auto-attached
  /// testbed streams ("cell-0001", ...).
  static std::string NextCellLabel();
};

/// Creates a trace stream + scope for one simulated cluster: pids 0..n-1
/// are the nodes (one lane per map slot, then a reduce lane), pid n is
/// the client/provider track. When `book` is
/// non-null, a LedgerCell (slot-time ledger + event graph, dimensioned
/// `num_nodes x map_slots_per_node`) is opened under `label` as well;
/// when `timelines` is non-null, a TimelineCell is opened too. Any input
/// may be null; returns a scope recording whatever is available.
std::unique_ptr<Scope> MakeClusterScope(MetricsRegistry* registry,
                                        TraceRecorder* recorder,
                                        LedgerBook* book,
                                        std::string_view label,
                                        int num_nodes,
                                        int map_slots_per_node,
                                        TimelineBook* timelines = nullptr);

}  // namespace dmr::obs

#endif  // DMR_OBS_SCOPE_H_
