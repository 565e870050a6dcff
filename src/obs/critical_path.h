#ifndef DMR_OBS_CRITICAL_PATH_H_
#define DMR_OBS_CRITICAL_PATH_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/lifecycle.h"

namespace dmr::obs {

/// \brief Records the causal structure of one simulated cluster run as a
/// DAG of lifecycle events (submit -> provider decision -> split added ->
/// attempt launched -> attempt done -> sample satisfiable -> finalize ->
/// reduce -> complete), with parent edges capturing *why* each event
/// happened when it did.
///
/// Every event carries its virtual timestamp; an event with several parents
/// was gated by the latest of them (the *binding* parent — e.g. an attempt
/// launch waits on both "split available" and "slot free"). Walking binding
/// parents backwards from a job-completion event yields the chain that set
/// that job's finish time: its critical path. The slack of the runner-up
/// parents says how much the binding dependency could shrink before another
/// one starts to bind.
///
/// One EventGraph per experiment cell, written single-threaded by the cell's
/// simulation (same threading model as TraceStream). Recording is only
/// reachable through a non-null obs::Cell, so the zero-observer path pays
/// nothing.
///
/// Notifications sharing one virtual timestamp are buffered and applied in a
/// canonical semantic order (completions, then provider activity, then
/// launches — see InstantRank), not arrival order. Several attempts finishing
/// at the same instant are semantically concurrent: which one fires first is
/// a tie the event queue may break either way (see Simulation's
/// --shuffle-ties). Buffering makes every "latest X" registry — and therefore
/// the extracted critical paths — a function of the *set* of events at each
/// instant, so the analysis is invariant under tie reordering.
class EventGraph {
 public:
  enum class EventType : uint8_t {
    kSubmit,
    kProviderDecision,
    kSplitAdded,
    kAttemptLaunched,
    kAttemptDone,
    kSampleSatisfiable,
    kInputFinalized,
    kReduceStarted,
    kJobCompleted,
  };

  /// What kind of wait a parent->child edge represents (feeds the
  /// per-category time breakdown of the critical path).
  enum class EdgeCategory : uint8_t {
    kProvider,   // waiting on an Input Provider decision / input handover
    kQueueing,   // split queued behind busy slots / scheduler decisions
    kExecution,  // a map attempt actually running
    kBarrier,    // map-phase barrier before the reduce launch
    kReduce,     // the reduce task running
  };
  static constexpr int kNumEdgeCategories = 5;

  /// An event has at most two parents: what it waited on, and for a
  /// launch, decision, finalize or reduce, the second thing it waited on.
  static constexpr int kMaxParents = 2;

  struct Event {
    EventType type;
    /// Parent edges, in recording order: the first `num_parents` entries
    /// of `parents` and `categories`.
    uint8_t num_parents = 0;
    std::array<EdgeCategory, kMaxParents> categories{};
    int job = -1;
    double t = 0.0;
    /// Split index for split/attempt events, -1 otherwise.
    int detail = -1;
    int node = -1;
    int slot = -1;
    std::array<int32_t, kMaxParents> parents{};
  };

  // --- recording (fed by Cell::Record) ----------------------------------

  /// Buffers the lifecycle steps that are graph events and ignores the
  /// rest. A failed attempt re-arms its split (the retry's launch hangs
  /// off it); only a job's first sample-satisfiable counts.
  void Record(const LifecycleRecord& rec);

  const std::vector<Event>& events() const { return events_; }
  size_t size() const { return events_.size(); }

  // --- analysis -----------------------------------------------------------

  struct PathStep {
    EventType type;
    double t = 0.0;
    int job = -1;
    int detail = -1;
    int node = -1;
    /// Time since the binding parent (0 for the root).
    double dur = 0.0;
    /// Category of the binding edge (meaningless for the root).
    EdgeCategory category = EdgeCategory::kQueueing;
    /// binding.t - runner_up.t when the event had >= 2 parents (how much the
    /// binding dependency could shrink before another parent binds); equal
    /// to `dur` for single-parent events (the whole edge is compressible).
    double slack = 0.0;
  };

  struct JobPath {
    int job = -1;
    double finish_time = 0.0;
    /// finish_time - the job's own submit time (response time as the user
    /// saw it; falls back to path_time if the submit was never recorded).
    double response_time = 0.0;
    /// finish_time - path root time. On a shared cluster the binding chain
    /// may cross into another job (a slot freed by someone else's attempt),
    /// so the root is not necessarily this job's own submit event.
    double path_time = 0.0;
    int root_job = -1;
    EventType root_type = EventType::kSubmit;
    /// Root-first binding chain ending at the job-completed event.
    std::vector<PathStep> steps;
    /// Seconds per EdgeCategory along the path, set for exactly the
    /// categories the path visits (sums to path_time).
    std::array<std::optional<double>, kNumEdgeCategories> breakdown;
  };

  /// Extracts the critical path of every completed job, in canonical event
  /// order. Deterministic and tie-order independent: same-instant
  /// notifications were applied in InstantRank order, and timestamp ties
  /// between parents break towards the later-applied event.
  std::vector<JobPath> AnalyzeCriticalPaths() const;

  /// Renders the analysis of this graph as a JSON object:
  /// `{"jobs": [{"job":, "finish_time":, "path_time":, "breakdown": {...},
  ///   "path": [...], "path_truncated":}, ...]}`. Paths longer than
  /// `max_path_steps` keep only the last entries (closest to completion).
  std::string AnalysisToJson(size_t max_path_steps = 40) const;

  static const char* EventTypeName(EventType type);
  static const char* EdgeCategoryName(EdgeCategory category);

 private:
  /// Canonical application order for records sharing a timestamp,
  /// mirroring the simulator's semantic phases at one instant: settle
  /// finished work first, then input/provider activity, then launches, then
  /// job completion. Guarantees intra-instant parents apply before their
  /// children. -1 for steps that are not graph events.
  static int InstantRank(LifecycleStep step);

  /// Sorts the buffered instant by (InstantRank, job, split, node, slot)
  /// and applies it.
  void FlushPending();
  /// The recording logic, run at flush time in canonical order.
  void Apply(const LifecycleRecord& rec);

  int32_t AddEvent(EventType type, double t, int job, int detail, int node,
                   int slot);
  /// Appends a parent edge; a third parent is a DMR_CHECK failure.
  void AddParent(int32_t child, int32_t parent, EdgeCategory category);

  /// Recording-time registries of one job, resolving its semantic ids to
  /// event indices (-1: none yet).
  struct JobEvents {
    int32_t submit = -1;
    int32_t last_provider = -1;
    int32_t last_done = -1;
    int32_t satisfiable = -1;
    int32_t finalized = -1;
    int32_t reduce = -1;
    /// Split availability by split index: the split-added event, re-armed
    /// to the failed attempt-done while a retry is pending. Freed when the
    /// job completes.
    std::vector<int32_t> available;
  };
  /// The open launch and the last release of one (node, slot).
  struct SlotEvents {
    int32_t open_launch = -1;
    int32_t release = -1;
  };

  /// The registries of `job` and of (node, slot), grown on first sight.
  JobEvents& JobAt(int job);
  SlotEvents& SlotAt(int node, int slot);
  /// The availability event of `split` in `entry`, or -1.
  static int32_t AvailableOf(const JobEvents& entry, int split);
  static void SetAvailable(JobEvents& entry, int split, int32_t id);
  /// The job's latest provider decision, or its submit event, or -1.
  static int32_t InputSourceOf(const JobEvents& entry);

  /// The current instant's records (views cleared), in arrival order. Its
  /// capacity is kept across instants.
  std::vector<LifecycleRecord> pending_;
  std::vector<Event> events_;

  /// Registries by job id and by node, then slot.
  std::vector<JobEvents> jobs_;
  std::vector<std::vector<SlotEvents>> slots_;
};

}  // namespace dmr::obs

#endif  // DMR_OBS_CRITICAL_PATH_H_
