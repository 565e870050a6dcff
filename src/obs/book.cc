#include "obs/book.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <utility>

#include "common/json.h"
#include "common/logging.h"
#include "obs/flight_recorder.h"
#include "obs/slo.h"
#include "sim/arena.h"

namespace dmr::obs {

using json::JsonNumber;
using json::JsonQuote;

const char* OutcomeName(Outcome outcome) {
  static constexpr const char* kNames[] = {
      "none", "ok", "failed", "killed", "input-available",
      "no-input-available", "end-of-input"};
  static_assert(std::size(kNames) ==
                static_cast<size_t>(Outcome::kEndOfInput) + 1);
  return kNames[static_cast<int>(outcome)];
}

// ---------------------------------------------------------------------------
// Cell

struct Cell::Telemetry {
  Telemetry(const std::string& label, const TimelineOptions& options)
      : timeline(options),
        flight(options.flight_capacity, &arena),
        slo(&timeline) {
    slo.AttachFlightRecorder(&flight);
    RegisterFlightRecorderForFatalDump(&flight, label);
  }
  ~Telemetry() { UnregisterFlightRecorderForFatalDump(&flight); }

  /// Declared before `flight` — the recorder's ring is carved from it.
  sim::Arena arena;
  Timeline timeline;
  FlightRecorder flight;
  SloMonitor slo;
};

namespace {

/// Async-span id of a split ("split" category): job id in the high word so
/// two jobs' split 0 never correlate.
uint64_t SplitSpanId(int job_id, int split_index) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(job_id)) << 32) |
         static_cast<uint64_t>(static_cast<uint32_t>(split_index));
}

}  // namespace

Cell::Cell(std::string label, int num_nodes, int map_slots_per_node,
           std::unique_ptr<TraceStream> trace,
           const std::optional<TimelineOptions>& timeline)
    : label_(std::move(label)),
      ledger_(num_nodes, map_slots_per_node),
      trace_(std::move(trace)),
      reduce_lane_(map_slots_per_node) {
  if (trace_ != nullptr) {
    // Within a node, tid = map slot, and the lane after the map slots
    // renders reduce tasks.
    for (int n = 0; n < num_nodes; ++n) {
      trace_->ProcessName(n, label_ + " node" + std::to_string(n));
    }
    trace_->ProcessName(num_nodes, label_ + " client");
    for (int n = 0; n < num_nodes; ++n) {
      for (int s = 0; s < map_slots_per_node; ++s) {
        trace_->ThreadName(n, s, "slot" + std::to_string(s));
      }
      trace_->ThreadName(n, map_slots_per_node, "reduce");
    }
  }
  if (!timeline.has_value()) return;
  telemetry_ = std::make_unique<Telemetry>(label_, *timeline);
  // Breach instants land on the client/provider track.
  if (trace_ != nullptr) telemetry_->slo.AttachTrace(trace_.get(), num_nodes);
  Timeline* tl = &telemetry_->timeline;
  job_response_ = tl->AddWindowed("mapred.job_response", "sim_s");
  task_wait_ = tl->AddWindowed("mapred.task_wait", "sim_s");
  tl->AddProbe("mapred.active_jobs", "jobs", Timeline::SeriesKind::kGauge,
               [this] { return static_cast<double>(inflight_); });
  tl->AddProbe("mapred.pruned_splits", "splits",
               Timeline::SeriesKind::kCounter,
               [this] { return static_cast<double>(pruned_launches_); });
}

Cell::~Cell() = default;

Timeline* Cell::timeline() const {
  return telemetry_ != nullptr ? &telemetry_->timeline : nullptr;
}

SloMonitor* Cell::slo() const {
  return telemetry_ != nullptr ? &telemetry_->slo : nullptr;
}

void Cell::Annotate(std::string_view key, std::string_view value) {
  annotations_[std::string(key)] = std::string(value);
}

void Cell::Record(const LifecycleRecord& rec) {
  TraceStream* trace = trace_.get();
  Timeline* tl = timeline();
  FlightRecorder* flight =
      telemetry_ != nullptr ? &telemetry_->flight : nullptr;
  // The client/provider track is the last pid of the cell's stream.
  const int client_pid = trace != nullptr ? trace->num_pids() - 1 : -1;
  graph_.Record(rec);
  if (rec.pruned) {
    Count(Counter::kSplitsPruned);
    ++pruned_launches_;
  }
  switch (rec.step) {
    case LifecycleStep::kSubmit: {
      Count(Counter::kJobsSubmitted);
      if (trace != nullptr) {
        trace->AsyncBegin(rec.t, static_cast<uint64_t>(rec.job), client_pid,
                           "job " + std::to_string(rec.job), "job",
                           TraceArgs().Set("user", rec.user));
      }
      ++inflight_;
      ledger_.ClearQuiescent();
      if (tl != nullptr) {
        const std::string user(rec.user);
        int* count = &inflight_by_user_[user];
        ++*count;
        // AddProbe dedupes, so only the user's first job registers it.
        tl->AddProbe("mapred.inflight_jobs." + user, "jobs",
                     Timeline::SeriesKind::kGauge,
                     [count] { return static_cast<double>(*count); });
      }
      break;
    }
    case LifecycleStep::kSplitsAdded:
      Count(Counter::kSplitsAdded, rec.count);
      break;
    case LifecycleStep::kSplitQueued:
      if (trace != nullptr) {
        trace->AsyncBegin(rec.t, SplitSpanId(rec.job, rec.split), rec.home,
                           "split " + std::to_string(rec.split), "split");
      }
      break;
    case LifecycleStep::kProviderDecision: {
      if (!rec.initial) Count(Counter::kProviderEvaluations);
      FlightEventKind kind = FlightEventKind::kProviderGrow;
      if (rec.outcome == Outcome::kGrow) {
        Count(Counter::kProviderGrows);
      } else if (rec.outcome == Outcome::kWait) {
        Count(Counter::kProviderWaits);
        kind = FlightEventKind::kProviderWait;
      } else {
        Count(Counter::kProviderEndOfInput);
        kind = FlightEventKind::kProviderEndOfInput;
      }
      for (const auto& [name, value] : rec.diagnostics) {
        if (name == "selectivity_estimate") {
          SetGauge(Gauge::kSelectivityEstimate, value);
        } else if (name == "skew_cv") {
          SetGauge(Gauge::kObservedSkewCv, value);
        }
      }
      if (trace != nullptr) {
        TraceArgs args;
        args.Set("job", rec.job)
            .Set("kind", OutcomeName(rec.outcome))
            .Set("splits", static_cast<int64_t>(rec.count))
            .Set("initial", rec.initial);
        for (const auto& [name, value] : rec.diagnostics) {
          args.Set(name, value);
        }
        trace->Instant(rec.t, client_pid, 0, "provider.decision", "provider",
                        args);
      }
      if (flight != nullptr) {
        flight->Append(rec.t, kind, rec.job, /*node=*/-1, rec.count,
                       /*value=*/rec.initial ? 1.0 : 0.0);
      }
      break;
    }
    case LifecycleStep::kMapLaunch: {
      Count(Counter::kMapsLaunched);
      // Every scheduler assignment becomes exactly one primary launch.
      Count(Counter::kSchedDecisions);
      const double wait = rec.t - rec.start;
      Observe(Histogram::kTaskWait, wait);
      if (tl != nullptr) tl->Observe(task_wait_, wait);
      if (flight != nullptr) {
        flight->Append(rec.t, FlightEventKind::kSchedule, rec.job, rec.node,
                       rec.split, wait);
      }
      break;
    }
    case LifecycleStep::kBackupLaunch:
      Count(Counter::kBackupsLaunched);
      if (flight != nullptr) {
        flight->Append(rec.t, FlightEventKind::kBackup, rec.job, rec.node,
                       rec.split, 0.0);
      }
      break;
    case LifecycleStep::kAttemptEnd:
      ledger_.OnAttemptOutcome(rec.node, rec.slot, rec.job, rec.outcome);
      if (rec.outcome == Outcome::kKilled) {
        Count(Counter::kAttemptsKilled);
        if (flight != nullptr) {
          flight->Append(rec.t, FlightEventKind::kPreempt, rec.job, rec.node,
                         rec.split, rec.t - rec.start);
        }
      } else {
        Count(rec.outcome == Outcome::kOk ? Counter::kMapsCompleted
                                          : Counter::kMapsFailed);
        Observe(Histogram::kTaskRun, rec.t - rec.start);
      }
      if (trace != nullptr) {
        const std::string split = std::to_string(rec.split);
        trace->Complete(rec.start, rec.t - rec.start, rec.node, rec.slot,
                         "map j" + std::to_string(rec.job) + "/s" + split,
                         "map",
                         TraceArgs()
                             .Set("job", rec.job)
                             .Set("split", rec.split)
                             .Set("local", rec.local)
                             .Set("backup", rec.backup)
                             .Set("outcome", OutcomeName(rec.outcome)));
        if (rec.outcome == Outcome::kOk) {
          // The first successful attempt ends the split's span.
          trace->AsyncEnd(rec.t, SplitSpanId(rec.job, rec.split), rec.home,
                           "split " + split, "split");
        }
      }
      break;
    case LifecycleStep::kSampleSatisfiable:
      ledger_.OnSampleSatisfiable(rec.job, rec.t);
      break;
    case LifecycleStep::kReduceStart:
      Count(Counter::kReducesLaunched);
      if (trace != nullptr) reduce_start_[rec.job] = rec.t;
      break;
    case LifecycleStep::kJobComplete: {
      Count(Counter::kJobsCompleted);
      const double response = rec.t - rec.start;
      Observe(Histogram::kJobResponse, response);
      if (tl != nullptr) {
        tl->Observe(job_response_, response);
        auto it = inflight_by_user_.find(rec.user);
        if (it != inflight_by_user_.end()) --it->second;
      }
      if (trace != nullptr) {
        const double reduce_start = reduce_start_[rec.job];
        reduce_start_.erase(rec.job);
        trace->Complete(reduce_start, rec.t - reduce_start, rec.node,
                         reduce_lane_,
                         "reduce j" + std::to_string(rec.job), "reduce",
                         TraceArgs().Set("job", rec.job));
        trace->AsyncEnd(rec.t, static_cast<uint64_t>(rec.job), client_pid,
                         "job " + std::to_string(rec.job), "job");
      }
      if (--inflight_ == 0) ledger_.MarkQuiescent(rec.t);
      break;
    }
    case LifecycleStep::kDelayHold:
      Count(Counter::kSchedDelayHolds);
      ledger_.OnDelayHold();
      break;
    case LifecycleStep::kDelaySkip:
      Count(Counter::kSchedDelaySkips);
      break;
    case LifecycleStep::kHeartbeat:
      Count(Counter::kHeartbeats);
      break;
    case LifecycleStep::kDemand:
      ledger_.OnFreeState(rec.demand, rec.t);
      break;
    case LifecycleStep::kInputFinalized:
      break;  // the event graph's alone
  }
}

// ---------------------------------------------------------------------------
// Book

Book::Book(bool trace, std::optional<TimelineOptions> timeline)
    : trace_(trace), timeline_(std::move(timeline)) {}

Book::~Book() = default;

Cell* Book::NewCell(int num_nodes, int map_slots_per_node) {
  std::lock_guard<std::mutex> lock(mu_);
  char label[32];
  std::snprintf(label, sizeof(label), "cell-%04zu", cells_.size());
  std::unique_ptr<TraceStream> stream;
  if (trace_) {
    // One pid per node plus the client track, and a 2^32-wide async-id
    // namespace per cell: a cell never opens 2^32 async spans.
    stream = std::make_unique<TraceStream>(
        label, next_pid_, num_nodes + 1,
        static_cast<uint64_t>(cells_.size()) << 32);
    next_pid_ += num_nodes + 1;
  }
  cells_.push_back(std::unique_ptr<Cell>(new Cell(
      label, num_nodes, map_slots_per_node, std::move(stream), timeline_)));
  return cells_.back().get();
}

void Book::Seal(Cell* cell, double now) {
  cell->ledger_.Seal(now);
  if (Timeline* tl = cell->timeline()) tl->Seal(now);
  std::lock_guard<std::mutex> lock(mu_);
  totals_.MergeFrom(cell->metrics_);
  cell->metrics_ = Metrics();
  cell->sealed_ = true;
}

size_t Book::num_cells() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cells_.size();
}

size_t Book::num_trace_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& cell : cells_) {
    if (cell->trace_ != nullptr) n += cell->trace_->num_events();
  }
  return n;
}

Metrics::Snapshot Book::TakeSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (cells_.empty()) return {};
  Metrics run = totals_;
  for (const auto& cell : cells_) {
    if (!cell->sealed_) run.MergeFrom(cell->metrics_);
  }
  return run.TakeSnapshot();
}

std::vector<const Cell*> Book::SortedCells() const {
  std::vector<const Cell*> sorted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sorted.reserve(cells_.size());
    for (const auto& cell : cells_) sorted.push_back(cell.get());
  }
  // Creation labels are handed out in nondeterministic order under
  // --threads=N; the driver-provided annotations are the stable identity.
  std::sort(sorted.begin(), sorted.end(), [](const Cell* a, const Cell* b) {
    if (a->annotations_ != b->annotations_) {
      return a->annotations_ < b->annotations_;
    }
    return a->label_ < b->label_;
  });
  return sorted;
}

namespace {

// Renumbering by sorted position keeps the emitted documents
// byte-identical across thread counts.
std::string SortedLabel(size_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "cell-%04zu", index);
  return buf;
}

}  // namespace

size_t Book::AppendCells(bool sealed_only, std::string* out,
                         const std::function<void(const Cell&)>& body) const {
  size_t index = 0;
  for (const Cell* cell : SortedCells()) {
    if (sealed_only && !cell->sealed_) continue;
    if (index > 0) *out += ",";
    *out += "\n    {\"label\": " + JsonQuote(SortedLabel(index++)) +
            ", \"annotations\": {";
    bool first = true;
    for (const auto& [key, value] : cell->annotations_) {
      if (!first) *out += ", ";
      first = false;
      *out += JsonQuote(key) + ": " + JsonQuote(value);
    }
    *out += "}";
    body(*cell);
    *out += "}";
  }
  *out += index == 0 ? "]}" : "\n  ]}";
  return index;
}

std::string Book::LedgerJson() const {
  std::string out = "{\"cells\": [";
  AppendCells(/*sealed_only=*/true, &out, [&out](const Cell& cell) {
    const Ledger& ledger = cell.ledger_;
    Ledger::Totals totals = ledger.Resolve();
    out += ",\n     \"nodes\": " + std::to_string(ledger.num_nodes()) +
           ", \"map_slots_per_node\": " +
           std::to_string(ledger.map_slots_per_node()) +
           ", \"makespan\": " + JsonNumber(totals.makespan) +
           ", \"total_slot_seconds\": " + JsonNumber(totals.expected_total) +
           ",\n     \"categories\": {";
    for (int c = 0; c < kNumSlotCategories; ++c) {
      if (c > 0) out += ", ";
      out += std::string("\"") +
             SlotCategoryName(static_cast<SlotCategory>(c)) +
             "\": " + JsonNumber(totals.seconds[c]);
    }
    double busy = totals.seconds[0] + totals.seconds[1] + totals.seconds[2];
    double wasted_pct = busy > 0.0 ? 100.0 * totals.seconds[1] / busy : 0.0;
    double util_pct = totals.expected_total > 0.0
                          ? 100.0 * busy / totals.expected_total
                          : 0.0;
    out += "},\n     \"wasted_pct\": " + JsonNumber(wasted_pct) +
           ", \"utilization_pct\": " + JsonNumber(util_pct) +
           ", \"delay_holds\": " + std::to_string(totals.delay_holds) +
           ", \"attempts_completed\": " +
           std::to_string(totals.attempts_completed) +
           ", \"attempts_speculative\": " +
           std::to_string(totals.attempts_speculative);
  });
  return out;
}

std::string Book::CriticalPathJson() const {
  std::string out = "{\"cells\": [";
  AppendCells(/*sealed_only=*/false, &out, [&out](const Cell& cell) {
    out += ",\n     \"analysis\": " + cell.graph_.AnalysisToJson();
  });
  return out;
}

std::string Book::TimelineJson() const {
  DMR_CHECK(timeline_.has_value()) << "TimelineJson without the timeline";
  std::string out =
      "{\"interval\": " + JsonNumber(timeline_->interval) + ", \"windows\": [";
  bool first = true;
  for (double w : timeline_->windows) {
    if (!first) out += ", ";
    first = false;
    out += JsonNumber(w);
  }
  out += "],\n  \"cells\": [";
  const size_t rendered =
      AppendCells(/*sealed_only=*/true, &out, [&out](const Cell& cell) {
        const Cell::Telemetry& t = *cell.telemetry_;
        out += ",\n     \"timeline\": " + t.timeline.ToJson() +
               ",\n     \"slo\": " + t.slo.ToJson() +
               ",\n     \"flight_recorder\": " + t.flight.ToJson();
      });
  if (rendered > 0) out += "\n";
  return out;
}

void Book::DumpFlightRecorders(std::FILE* out) const {
  std::vector<const Cell*> sorted = SortedCells();
  std::fprintf(out, "=== flight recorder dump (%zu cells) ===\n",
               sorted.size());
  size_t index = 0;
  for (const Cell* cell : sorted) {
    std::string label = SortedLabel(index++);
    // Include the stable annotations so the dump is self-describing.
    std::string ann;
    for (const auto& [key, value] : cell->annotations_) {
      ann += " " + key + "=" + value;
    }
    std::fprintf(out, "cell %s%s\n", label.c_str(), ann.c_str());
    if (cell->telemetry_ != nullptr) {
      cell->telemetry_->flight.DumpText(out, label);
    }
  }
  std::fprintf(out, "=== end flight recorder dump ===\n");
}

std::string Book::TraceJson() const {
  std::vector<const TraceStream*> streams;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& cell : cells_) {
      if (cell->trace_ != nullptr) streams.push_back(cell->trace_.get());
    }
  }
  return obs::TraceJson(streams);
}

Status Book::WriteTrace(const std::string& path) const {
  std::string text = TraceJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IoError("cannot open " + path + " for writing");
  }
  size_t written = std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  if (written != text.size()) {
    return Status::IoError("short write to " + path);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Hub

namespace {

std::atomic<Book*> g_hub_book{nullptr};

}  // namespace

void Hub::Install(Book* book) {
  g_hub_book.store(book, std::memory_order_release);
}

Book* Hub::book() { return g_hub_book.load(std::memory_order_acquire); }

}  // namespace dmr::obs
