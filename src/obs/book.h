#ifndef DMR_OBS_BOOK_H_
#define DMR_OBS_BOOK_H_

#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "obs/critical_path.h"
#include "obs/ledger.h"
#include "obs/lifecycle.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/trace.h"

namespace dmr::obs {

/// \brief The observability state of one simulated cluster (one experiment
/// cell): its label and annotations, its metrics, slot-time ledger and
/// event graph, and, when those outputs are on, its trace stream,
/// timeline, flight recorder and SLO monitor.
///
/// The execution layers (JobTracker, nodes, DFS, LocalRuntime) hold a
/// nullable `obs::Cell*`; every instrumentation site is guarded by that
/// null check, which keeps the zero-overhead-when-off contract. A cell is
/// written single-threaded by its own simulation; its Book owns it.
class Cell {
 public:
  ~Cell();

  Cell(const Cell&) = delete;
  Cell& operator=(const Cell&) = delete;

  /// Null when tracing is off — callers must check.
  TraceStream* trace() const { return trace_.get(); }
  /// Never null.
  Ledger* ledger() { return &ledger_; }
  /// Null when the timeline is off — callers must check.
  Timeline* timeline() const;
  SloMonitor* slo() const;

  /// Attaches a driver-provided (key, value) annotation ("cell", "policy",
  /// "z", ...). dmr-analyze joins cells across runs by these keys, and
  /// the book orders cells by them.
  void Annotate(std::string_view key, std::string_view value);

  /// Feeds one job lifecycle step to every recorder of the cell. An
  /// attempt's end must arrive before its node releases the slot, so the
  /// ledger learns the outcome of the busy interval the release closes.
  void Record(const LifecycleRecord& rec);

  void Count(Counter c, int64_t delta = 1) { metrics_.Add(c, delta); }
  void Observe(Histogram h, double value) { metrics_.Observe(h, value); }
  void SetGauge(Gauge g, double value) { metrics_.Set(g, value); }

 private:
  friend class Book;
  /// The timeline, its flight recorder and SLO monitor (book.cc).
  struct Telemetry;

  Cell(std::string label, int num_nodes, int map_slots_per_node,
       std::unique_ptr<TraceStream> trace,
       const std::optional<TimelineOptions>& timeline);

  std::string label_;
  std::map<std::string, std::string> annotations_;
  Metrics metrics_;
  Ledger ledger_;
  EventGraph graph_;
  std::unique_ptr<TraceStream> trace_;
  std::unique_ptr<Telemetry> telemetry_;
  bool sealed_ = false;

  // What Record keeps between steps; nothing per split (a launch's queue
  // time travels in its record).
  int reduce_lane_ = 0;  // trace lane of reduces: after the map slots
  /// Jobs in flight (the "mapred.active_jobs" probe); zero marks the
  /// ledger quiescent.
  int inflight_ = 0;
  /// Behind the "mapred.inflight_jobs.<user>" probes (timeline only); map
  /// nodes are address-stable, so each probe captures its count.
  std::map<std::string, int, std::less<>> inflight_by_user_;
  int64_t pruned_launches_ = 0;  // the "mapred.pruned_splits" probe
  std::map<int, double> reduce_start_;  // running reduces (trace only)
  Timeline::WindowedId task_wait_;
  Timeline::WindowedId job_response_;
};

/// \brief The cells of one run, installed on the obs::Hub by the bench
/// harness, and the documents rendered from them.
///
/// NewCell and Seal are thread-safe (cells are created and torn down by
/// parallel experiment workers); each cell is then written single-threaded
/// by its own simulation. Sealing folds a cell's metrics into the run
/// totals, so metric memory stays bounded by the cells in flight. The
/// ledger, critical-path and timeline sections list cells sorted by their
/// annotations, not by creation order, so they are byte-identical under
/// --threads=N; the trace keeps creation order.
class Book {
 public:
  /// `trace` gives every cell a trace stream; `timeline`, when set, a
  /// timeline, flight recorder and SLO monitor.
  explicit Book(bool trace = false,
                std::optional<TimelineOptions> timeline = std::nullopt);
  ~Book();

  Book(const Book&) = delete;
  Book& operator=(const Book&) = delete;

  /// Opens the cell of a cluster of `num_nodes` nodes with
  /// `map_slots_per_node` map slots each. Its trace has pids 0..n-1 for
  /// the nodes (one lane per map slot, then a reduce lane) and pid n for
  /// the client/provider track.
  Cell* NewCell(int num_nodes, int map_slots_per_node);

  /// Closes `cell` at virtual time `now`: seals its ledger and timeline
  /// and folds its metrics into the run totals. Call once per cell.
  void Seal(Cell* cell, double now);

  size_t num_cells() const;
  size_t num_trace_events() const;

  /// The run's metrics: sealed cells' totals plus any open cell's. Empty
  /// when no cell was opened. Quiescent points only.
  Metrics::Snapshot TakeSnapshot() const;

  /// `{"cells": [{"label":, "annotations":, "makespan":,
  ///   "total_slot_seconds":, "categories": {...}, ...}, ...]}` over the
  /// sealed cells; resolving each ledger asserts it is exhaustive.
  std::string LedgerJson() const;
  /// `{"cells": [{"label":, "annotations":,
  ///   "analysis": <EventGraph::AnalysisToJson>}, ...]}`.
  std::string CriticalPathJson() const;
  /// `{"interval":, "windows": [..], "cells": [{"label":, "annotations":,
  ///   "timeline":, "slo":, "flight_recorder":}, ...]}` over the sealed
  /// cells. Requires the timeline output.
  std::string TimelineJson() const;
  /// Prints every cell's flight recorder (--dump-flight-recorder).
  void DumpFlightRecorders(std::FILE* out) const;
  /// The trace document, cells in creation order.
  std::string TraceJson() const;
  Status WriteTrace(const std::string& path) const;

 private:
  /// Cells sorted by annotations, then creation label: the one order of
  /// every per-cell section.
  std::vector<const Cell*> SortedCells() const;
  /// Appends one entry per sorted cell (only the sealed ones when
  /// `sealed_only`) — its label by sorted position, its annotations, then
  /// whatever `body` appends — and closes the array. Returns the entries.
  size_t AppendCells(bool sealed_only, std::string* out,
                     const std::function<void(const Cell&)>& body) const;

  const bool trace_;
  const std::optional<TimelineOptions> timeline_;

  mutable std::mutex mu_;
  std::deque<std::unique_ptr<Cell>> cells_;  // creation order
  Metrics totals_;                           // of the sealed cells
  int next_pid_ = 0;
};

/// \brief The process-global book, installed by the bench harness when an
/// observability output is requested.
///
/// Components never read the hub; only the Testbed does, to open a cell
/// per experiment, so library users who attach their own cell (or none)
/// are unaffected. Install/Uninstall are meant for the single-threaded
/// setup/teardown edges of a driver run.
class Hub {
 public:
  /// Non-owning; null uninstalls.
  static void Install(Book* book);
  static void Uninstall() { Install(nullptr); }
  /// Null when no book is installed.
  static Book* book();
};

}  // namespace dmr::obs

#endif  // DMR_OBS_BOOK_H_
