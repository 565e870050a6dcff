#include "obs/scope.h"

#include <atomic>
#include <cstdio>
#include <functional>
#include <map>
#include <mutex>

#include "obs/critical_path.h"
#include "obs/flight_recorder.h"
#include "obs/ledger.h"
#include "obs/timeline.h"

namespace dmr::obs {

StandardMetrics::StandardMetrics(MetricsRegistry* r) {
  if (r == nullptr) return;

  heartbeats = r->RegisterCounter("mapred.heartbeats");
  jobs_submitted = r->RegisterCounter("mapred.jobs_submitted");
  jobs_completed = r->RegisterCounter("mapred.jobs_completed");
  splits_added = r->RegisterCounter("mapred.splits_added");
  maps_launched = r->RegisterCounter("mapred.maps_launched");
  maps_completed = r->RegisterCounter("mapred.maps_completed");
  maps_failed = r->RegisterCounter("mapred.maps_failed");
  backups_launched = r->RegisterCounter("mapred.backups_launched");
  attempts_killed = r->RegisterCounter("mapred.attempts_killed");
  reduces_launched = r->RegisterCounter("mapred.reduces_launched");

  provider_evaluations = r->RegisterCounter("provider.evaluations");
  provider_grows = r->RegisterCounter("provider.grows");
  provider_waits = r->RegisterCounter("provider.waits");
  provider_end_of_input = r->RegisterCounter("provider.end_of_input");

  sched_decisions = r->RegisterCounter("sched.decisions");
  sched_delay_holds = r->RegisterCounter("sched.delay_holds");
  sched_delay_skips = r->RegisterCounter("sched.delay_skips");

  dfs_files_created = r->RegisterCounter("dfs.files_created");
  dfs_partitions_placed = r->RegisterCounter("dfs.partitions_placed");
  dfs_bytes_placed = r->RegisterCounter("dfs.bytes_placed");

  exec_partitions_pruned = r->RegisterCounter("exec.partitions_pruned");
  exec_batches_pruned = r->RegisterCounter("exec.batches_pruned");
  exec_rows_skipped = r->RegisterCounter("exec.rows_skipped");
  exec_index_builds = r->RegisterCounter("exec.index_builds");
  exec_index_hits = r->RegisterCounter("exec.index_hits");
  splits_pruned = r->RegisterCounter("mapred.splits_pruned");

  sim_tie_groups = r->RegisterCounter("sim.tie_groups");
  sim_tie_events = r->RegisterCounter("sim.tie_events");

  task_wait = r->RegisterHistogram("mapred.task_wait", "sim_s");
  task_run = r->RegisterHistogram("mapred.task_run", "sim_s");
  job_response = r->RegisterHistogram("mapred.job_response", "sim_s");

  selectivity_estimate = r->RegisterGauge("provider.selectivity_estimate");
  observed_skew_cv = r->RegisterGauge("provider.observed_skew_cv");
}

const char* OutcomeName(Outcome outcome) {
  static constexpr const char* kNames[] = {
      "none", "ok", "failed", "killed", "input-available",
      "no-input-available", "end-of-input"};
  static_assert(std::size(kNames) ==
                static_cast<size_t>(Outcome::kEndOfInput) + 1);
  return kNames[static_cast<int>(outcome)];
}

// ---------------------------------------------------------------------------
// Scope

/// What Record keeps between steps; nothing per split (a launch's queue
/// time travels in its record).
struct Scope::LifecycleState {
  int reduce_lane = 0;  // trace lane of reduces: after the map slots
  /// Jobs in flight (the "mapred.active_jobs" probe); zero marks the
  /// ledger quiescent.
  int inflight = 0;
  /// Behind the "mapred.inflight_jobs.<user>" probes (timeline only); map
  /// nodes are address-stable, so each probe captures its count.
  std::map<std::string, int, std::less<>> inflight_by_user;
  int64_t pruned_launches = 0;  // the "mapred.pruned_splits" probe
  std::map<int, double> reduce_start;  // running reduces (trace only)
  Timeline::WindowedId task_wait;
  Timeline::WindowedId job_response;
};

namespace {

/// Async-span id of a split ("split" category): job id in the high word so
/// two jobs' split 0 never correlate.
uint64_t SplitSpanId(int job_id, int split_index) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(job_id)) << 32) |
         static_cast<uint64_t>(static_cast<uint32_t>(split_index));
}

}  // namespace

Scope::Scope(MetricsRegistry* metrics, TraceStream* trace, LedgerCell* cell,
             TimelineCell* tcell, int map_slots_per_node)
    : metrics_(metrics),
      trace_(trace),
      cell_(cell),
      tcell_(tcell),
      m_(metrics),
      lifecycle_(std::make_unique<LifecycleState>()) {
  lifecycle_->reduce_lane = map_slots_per_node;
  if (Timeline* tl = timeline()) {
    lifecycle_->job_response = tl->AddWindowed("mapred.job_response", "sim_s");
    lifecycle_->task_wait = tl->AddWindowed("mapred.task_wait", "sim_s");
    LifecycleState* state = lifecycle_.get();
    tl->AddProbe("mapred.active_jobs", "jobs", Timeline::SeriesKind::kGauge,
                 [state] { return static_cast<double>(state->inflight); });
    tl->AddProbe("mapred.pruned_splits", "splits",
                 Timeline::SeriesKind::kCounter, [state] {
                   return static_cast<double>(state->pruned_launches);
                 });
  }
}

Scope::~Scope() = default;

void Scope::Record(const LifecycleRecord& rec) {
  LifecycleState& state = *lifecycle_;
  Ledger* ledger = this->ledger();
  Timeline* tl = timeline();
  FlightRecorder* flight = tcell_ != nullptr ? &tcell_->flight : nullptr;
  // The client/provider track is the last pid of the cell's stream.
  const int client_pid = trace_ != nullptr ? trace_->num_pids() - 1 : -1;
  if (cell_ != nullptr) cell_->graph.Record(rec);
  if (rec.pruned) {
    Count(m_.splits_pruned);
    ++state.pruned_launches;
  }
  switch (rec.step) {
    case LifecycleStep::kSubmit: {
      Count(m_.jobs_submitted);
      if (trace_ != nullptr) {
        trace_->AsyncBegin(rec.t, static_cast<uint64_t>(rec.job), client_pid,
                           "job " + std::to_string(rec.job), "job",
                           TraceArgs().Set("user", rec.user));
      }
      ++state.inflight;
      if (ledger != nullptr) ledger->ClearQuiescent();
      if (tl != nullptr) {
        const std::string user(rec.user);
        int* count = &state.inflight_by_user[user];
        ++*count;
        // AddProbe dedupes, so only the user's first job registers it.
        tl->AddProbe("mapred.inflight_jobs." + user, "jobs",
                     Timeline::SeriesKind::kGauge,
                     [count] { return static_cast<double>(*count); });
      }
      break;
    }
    case LifecycleStep::kSplitsAdded:
      Count(m_.splits_added, rec.count);
      break;
    case LifecycleStep::kSplitQueued:
      if (trace_ != nullptr) {
        trace_->AsyncBegin(rec.t, SplitSpanId(rec.job, rec.split), rec.home,
                           "split " + std::to_string(rec.split), "split");
      }
      break;
    case LifecycleStep::kProviderDecision: {
      if (!rec.initial) Count(m_.provider_evaluations);
      FlightEventKind kind = FlightEventKind::kProviderGrow;
      if (rec.outcome == Outcome::kGrow) {
        Count(m_.provider_grows);
      } else if (rec.outcome == Outcome::kWait) {
        Count(m_.provider_waits);
        kind = FlightEventKind::kProviderWait;
      } else {
        Count(m_.provider_end_of_input);
        kind = FlightEventKind::kProviderEndOfInput;
      }
      for (const auto& [name, value] : rec.diagnostics) {
        if (name == "selectivity_estimate") {
          SetGauge(m_.selectivity_estimate, value);
        } else if (name == "skew_cv") {
          SetGauge(m_.observed_skew_cv, value);
        }
      }
      if (trace_ != nullptr) {
        TraceArgs args;
        args.Set("job", rec.job)
            .Set("kind", OutcomeName(rec.outcome))
            .Set("splits", static_cast<int64_t>(rec.count))
            .Set("initial", rec.initial);
        for (const auto& [name, value] : rec.diagnostics) {
          args.Set(name, value);
        }
        trace_->Instant(rec.t, client_pid, 0, "provider.decision", "provider",
                        args);
      }
      if (flight != nullptr) {
        flight->Append(rec.t, kind, rec.job, /*node=*/-1, rec.count,
                       /*value=*/rec.initial ? 1.0 : 0.0);
      }
      break;
    }
    case LifecycleStep::kMapLaunch: {
      Count(m_.maps_launched);
      // Every scheduler assignment becomes exactly one primary launch.
      Count(m_.sched_decisions);
      const double wait = rec.t - rec.start;
      Observe(m_.task_wait, wait);
      if (tl != nullptr) tl->Observe(state.task_wait, wait);
      if (flight != nullptr) {
        flight->Append(rec.t, FlightEventKind::kSchedule, rec.job, rec.node,
                       rec.split, wait);
      }
      break;
    }
    case LifecycleStep::kBackupLaunch:
      Count(m_.backups_launched);
      if (flight != nullptr) {
        flight->Append(rec.t, FlightEventKind::kBackup, rec.job, rec.node,
                       rec.split, 0.0);
      }
      break;
    case LifecycleStep::kAttemptEnd:
      if (ledger != nullptr) {
        ledger->OnAttemptOutcome(rec.node, rec.slot, rec.job, rec.outcome);
      }
      if (rec.outcome == Outcome::kKilled) {
        Count(m_.attempts_killed);
        if (flight != nullptr) {
          flight->Append(rec.t, FlightEventKind::kPreempt, rec.job, rec.node,
                         rec.split, rec.t - rec.start);
        }
      } else {
        Count(rec.outcome == Outcome::kOk ? m_.maps_completed
                                          : m_.maps_failed);
        Observe(m_.task_run, rec.t - rec.start);
      }
      if (trace_ != nullptr) {
        const std::string split = std::to_string(rec.split);
        trace_->Complete(rec.start, rec.t - rec.start, rec.node, rec.slot,
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
          trace_->AsyncEnd(rec.t, SplitSpanId(rec.job, rec.split), rec.home,
                           "split " + split, "split");
        }
      }
      break;
    case LifecycleStep::kSampleSatisfiable:
      if (ledger != nullptr) ledger->OnSampleSatisfiable(rec.job, rec.t);
      break;
    case LifecycleStep::kReduceStart:
      Count(m_.reduces_launched);
      if (trace_ != nullptr) state.reduce_start[rec.job] = rec.t;
      break;
    case LifecycleStep::kJobComplete: {
      Count(m_.jobs_completed);
      const double response = rec.t - rec.start;
      Observe(m_.job_response, response);
      if (tl != nullptr) {
        tl->Observe(state.job_response, response);
        auto it = state.inflight_by_user.find(rec.user);
        if (it != state.inflight_by_user.end()) --it->second;
      }
      if (trace_ != nullptr) {
        const double reduce_start = state.reduce_start[rec.job];
        state.reduce_start.erase(rec.job);
        trace_->Complete(reduce_start, rec.t - reduce_start, rec.node,
                         state.reduce_lane,
                         "reduce j" + std::to_string(rec.job), "reduce",
                         TraceArgs().Set("job", rec.job));
        trace_->AsyncEnd(rec.t, static_cast<uint64_t>(rec.job), client_pid,
                         "job " + std::to_string(rec.job), "job");
      }
      if (--state.inflight == 0 && ledger != nullptr) {
        ledger->MarkQuiescent(rec.t);
      }
      break;
    }
    case LifecycleStep::kDelayHold:
      Count(m_.sched_delay_holds);
      if (ledger != nullptr) ledger->OnDelayHold();
      break;
    case LifecycleStep::kDelaySkip:
      Count(m_.sched_delay_skips);
      break;
    case LifecycleStep::kHeartbeat:
      Count(m_.heartbeats);
      break;
    case LifecycleStep::kDemand:
      if (ledger != nullptr) ledger->OnFreeState(rec.demand, rec.t);
      break;
    case LifecycleStep::kInputFinalized:
      break;  // the event graph's alone
  }
}

// ---------------------------------------------------------------------------
// Scope <-> LedgerCell (out-of-line: scope.h only forward-declares ledger
// types so the hot-path headers stay light).

Ledger* Scope::ledger() const {
  return cell_ != nullptr ? &cell_->ledger : nullptr;
}

Timeline* Scope::timeline() const {
  return tcell_ != nullptr ? &tcell_->timeline : nullptr;
}

SloMonitor* Scope::slo() const {
  return tcell_ != nullptr ? &tcell_->slo : nullptr;
}

void Scope::Annotate(std::string_view key, std::string_view value) {
  if (cell_ != nullptr) {
    cell_->annotations[std::string(key)] = std::string(value);
  }
  if (tcell_ != nullptr) {
    tcell_->annotations[std::string(key)] = std::string(value);
  }
}

// ---------------------------------------------------------------------------
// Hub

namespace {

std::mutex g_hub_mu;
MetricsRegistry* g_hub_registry = nullptr;
TraceRecorder* g_hub_recorder = nullptr;
LedgerBook* g_hub_book = nullptr;
TimelineBook* g_hub_timelines = nullptr;
std::atomic<bool> g_hub_active{false};
std::atomic<uint64_t> g_hub_cell_seq{0};

}  // namespace

void Hub::Install(MetricsRegistry* registry, TraceRecorder* recorder,
                  LedgerBook* book, TimelineBook* timelines) {
  std::lock_guard<std::mutex> lock(g_hub_mu);
  g_hub_registry = registry;
  g_hub_recorder = recorder;
  g_hub_book = book;
  g_hub_timelines = timelines;
  g_hub_cell_seq.store(0, std::memory_order_relaxed);
  g_hub_active.store(registry != nullptr || recorder != nullptr ||
                         book != nullptr || timelines != nullptr,
                     std::memory_order_release);
}

void Hub::Uninstall() {
  std::lock_guard<std::mutex> lock(g_hub_mu);
  g_hub_active.store(false, std::memory_order_release);
  g_hub_registry = nullptr;
  g_hub_recorder = nullptr;
  g_hub_book = nullptr;
  g_hub_timelines = nullptr;
}

bool Hub::active() { return g_hub_active.load(std::memory_order_acquire); }

MetricsRegistry* Hub::registry() {
  std::lock_guard<std::mutex> lock(g_hub_mu);
  return g_hub_registry;
}

TraceRecorder* Hub::recorder() {
  std::lock_guard<std::mutex> lock(g_hub_mu);
  return g_hub_recorder;
}

LedgerBook* Hub::book() {
  std::lock_guard<std::mutex> lock(g_hub_mu);
  return g_hub_book;
}

TimelineBook* Hub::timeline_book() {
  std::lock_guard<std::mutex> lock(g_hub_mu);
  return g_hub_timelines;
}

std::string Hub::NextCellLabel() {
  uint64_t seq = g_hub_cell_seq.fetch_add(1, std::memory_order_relaxed);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "cell-%04llu",
                static_cast<unsigned long long>(seq));
  return buf;
}

// ---------------------------------------------------------------------------

std::unique_ptr<Scope> MakeClusterScope(MetricsRegistry* registry,
                                        TraceRecorder* recorder,
                                        LedgerBook* book,
                                        std::string_view label,
                                        int num_nodes,
                                        int map_slots_per_node,
                                        TimelineBook* timelines) {
  TraceStream* stream = nullptr;
  if (recorder != nullptr) {
    // One pid per node, plus the client/provider track at pid num_nodes;
    // within a node, tid = map slot, and the lane after the map slots
    // renders reduce tasks.
    stream = recorder->NewStream(label, num_nodes + 1);
    std::string prefix(label);
    for (int n = 0; n < num_nodes; ++n) {
      stream->ProcessName(n, prefix + " node" + std::to_string(n));
    }
    stream->ProcessName(num_nodes, prefix + " client");
    for (int n = 0; n < num_nodes; ++n) {
      for (int s = 0; s < map_slots_per_node; ++s) {
        stream->ThreadName(n, s, "slot" + std::to_string(s));
      }
      stream->ThreadName(n, map_slots_per_node, "reduce");
    }
  }
  LedgerCell* cell = nullptr;
  if (book != nullptr) {
    cell = book->NewCell(std::string(label), num_nodes, map_slots_per_node);
  }
  TimelineCell* tcell = nullptr;
  if (timelines != nullptr) {
    tcell = timelines->NewCell(label);
    if (stream != nullptr) {
      // Breach instants land on the client/provider track.
      tcell->slo.AttachTrace(stream, num_nodes);
    }
  }
  return std::make_unique<Scope>(registry, stream, cell, tcell,
                                 map_slots_per_node);
}

}  // namespace dmr::obs
