/// \file
/// Measures raw DES kernel throughput at cluster scale: a synthetic
/// heartbeat + task-lifecycle + far-event program is run at 100 / 1k / 10k
/// nodes on both queue kinds (calendar and the binary-heap oracle), and the
/// events/sec and wall time of each cell are recorded as
/// BENCH_sim_scale.json (via --json=FILE).
///
/// Every cell also folds its firing sequence into an FNV digest; the
/// driver aborts unless both queue kinds at one node count produce the
/// same digest and event count — the order equivalence contract of
/// DESIGN.md §14, checked end to end.
///
/// Event times are constructed to be globally unique (each (node, period,
/// kind) triple owns a distinct rational multiple of the node slot width),
/// so the program has no virtual-time ties.
///
/// Usage: sim_scale [--nodes=100,1000,10000] [--until=60] [--json=FILE]
///                  [--queue=calendar|heap]
///
/// With --queue given, only that kind runs; otherwise both kinds run and
/// are compared.

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "obs/flight_recorder.h"
#include "obs/timeline.h"
#include "sim/simulation.h"

namespace {

using dmr::sim::EventClass;
using dmr::sim::QueueKind;
using dmr::sim::Simulation;
using dmr::sim::SimulationOptions;

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

inline uint64_t Mix(uint64_t h, uint64_t v) { return (h ^ v) * kFnvPrime; }

/// Telemetry attached to the overhead cells: a timeline with the testbed's
/// probe population, a windowed series fed from completed tasks, and
/// flight-recorder appends from heartbeats. Hooks ride 1 in 16 events
/// (kHookMask) — the synthetic program's events are ~100 ns no-ops,
/// whereas the real drivers fire ~15 kernel events (heartbeat chains, PS
/// resource steps, DFS transfers) per obs-instrumented operation (fig5:
/// ~1M events for ~68k task launches/completions + provider decisions),
/// so per-event hooking here would overstate the hook density 15x.
struct TimelineHooks {
  static constexpr int kHookMask = 15;  // hook (node + period) % 16 == 0

  dmr::obs::Timeline* timeline = nullptr;
  dmr::obs::FlightRecorder* flight = nullptr;
  dmr::obs::Timeline::WindowedId task_latency;
};

/// The synthetic event program. Per node and 3 s heartbeat period:
///   - a heartbeat (kScheduling) that re-arms itself,
///   - one task completion (kTaskLifecycle) ~0.5 s later that fires,
///   - one speculative task that is cancelled immediately (exercising the
///     tombstone path),
///   - a ping ~7.1 s ahead (more than two periods out), so a second
///     generation of events is always queued behind the current one,
///   - plus `kLeasesPerNode` far-future lease events scheduled at setup
///     that never fire inside the run: dead weight every heap operation
///     pays for and the calendar's overflow tier keeps out of the way.
struct Workload {
  Simulation* sim = nullptr;
  uint64_t digest = kFnvOffset;
  TimelineHooks* hooks = nullptr;
  int nodes = 0;
  double slot = 0.0;  // 3.0 / nodes: each node owns one slot per period
  long task_cells = 0;  // slots between a heartbeat and its task event
  long ping_cells = 0;  // slots between a heartbeat and its ping

  static constexpr double kPeriod = 3.0;
  static constexpr int kLeasesPerNode = 1024;

  /// All fired times are (cell + frac) * slot with frac in (0, 1) unique
  /// per event kind and cell unique per (node, period, kind): strictly
  /// monotone in cell + frac, hence collision-free.
  double TimeAt(long cell, double frac) const {
    return (static_cast<double>(cell) + frac) * slot;
  }

  void Note(uint64_t kind, int node) {
    digest = Mix(digest, kind);
    digest = Mix(digest, static_cast<uint64_t>(node));
    digest = Mix(digest, std::bit_cast<uint64_t>(sim->Now()));
  }

  void Heartbeat(int node, long k) {
    Note(0x48, node);
    if (hooks != nullptr &&
        ((node + k) & TimelineHooks::kHookMask) == 0) {
      hooks->flight->Append(sim->Now(), dmr::obs::FlightEventKind::kSchedule,
                            /*job=*/static_cast<int32_t>(k), node,
                            /*detail=*/0, /*value=*/0.0);
    }
    long cell = k * nodes + node;
    // Task that completes (and one that is immediately speculated away).
    // Everything that never needs a handle schedules detached — the shape
    // product heartbeat chains use — so the cell measures queue cost, not
    // slot-pool refcounting.
    sim->ScheduleDetachedAt(TimeAt(cell + task_cells, 0.375),
                            EventClass::kTaskLifecycle, [this, node, k]() {
                              Note(0x54, node);
                              if (hooks != nullptr &&
                                  ((node + k) &
                                   TimelineHooks::kHookMask) == 0) {
                                hooks->timeline->Observe(
                                    hooks->task_latency,
                                    static_cast<double>(node % 97) * slot);
                              }
                            });
    dmr::sim::EventHandle spec =
        sim->ScheduleAt(TimeAt(cell + task_cells, 0.5),
                        EventClass::kTaskLifecycle,
                        [this, node](){ Note(0x58, node); });
    spec.Cancel();
    sim->ScheduleDetachedAt(TimeAt(cell + ping_cells, 0.75),
                            EventClass::kDefault,
                            [this, node](){ Note(0x50, node); });
    sim->ScheduleDetachedAt(TimeAt(cell + static_cast<long>(nodes), 0.125),
                            EventClass::kScheduling,
                            [this, node, k](){ Heartbeat(node, k + 1); });
  }

  void Seed(double until) {
    for (int node = 0; node < nodes; ++node) {
      sim->ScheduleDetachedAt(TimeAt(node, 0.125), EventClass::kScheduling,
                              [this, node](){ Heartbeat(node, 0); });
      for (int j = 0; j < kLeasesPerNode; ++j) {
        sim->ScheduleDetachedAt(until + 1000.0 + j * kPeriod + node * slot,
                                EventClass::kBookkeeping, [](){});
      }
    }
  }
};

struct CellResult {
  std::string queue;
  uint64_t events = 0;
  double wall_ms = 0.0;
  uint64_t digest = 0;

  double EventsPerSec() const {
    return static_cast<double>(events) / (wall_ms / 1000.0);
  }
  std::string DigestHex() const {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(digest));
    return buf;
  }
};

CellResult RunCell(QueueKind kind, int nodes, double until,
                   bool with_timeline = false) {
  SimulationOptions options;
  options.queue = kind;
  // Size buckets so one holds only a couple of events regardless of node
  // count (~2 node slots per bucket), with the near-future horizon sized
  // to the run so steady-state pushes land in buckets and the lease dead
  // weight stays in the overflow tier for the duration (the standard
  // calendar-queue sizing discipline: array spans the active window).
  options.bucket_width = Workload::kPeriod * 2.0 / nodes;
  options.num_buckets =
      static_cast<int>((until + 10.0) / options.bucket_width) + 1;

  Simulation sim(options);

  Workload w;
  w.sim = &sim;
  w.nodes = nodes;
  w.slot = Workload::kPeriod / nodes;
  w.task_cells = nodes / 6;  // ~0.5 s
  w.ping_cells = static_cast<long>(7.1 / Workload::kPeriod * nodes) + 1;

  dmr::obs::Timeline timeline;
  dmr::obs::FlightRecorder flight(128);
  TimelineHooks hooks;
  if (with_timeline) {
    // Testbed-shaped probe population plus the windowed/flight hot paths;
    // ticks ride kTelemetry once per simulated second, like the testbed.
    timeline.AddProbe("sim.events_fired", "events",
                      dmr::obs::Timeline::SeriesKind::kCounter,
                      [&sim] { return static_cast<double>(sim.events_fired()); });
    timeline.AddProbe("sim.live_size", "events",
                      dmr::obs::Timeline::SeriesKind::kGauge,
                      [&sim] { return static_cast<double>(sim.live_size()); });
    hooks.timeline = &timeline;
    hooks.flight = &flight;
    hooks.task_latency = timeline.AddWindowed("task.latency", "sim_s");
    w.hooks = &hooks;
  }
  w.Seed(until);
  if (with_timeline) {
    // Scheduled AFTER seeding on purpose: the calendar rebases its epoch
    // at the first push into an empty queue, and a t=1.0 tick arriving
    // first would park the epoch a full second past the workload's t~0
    // events, clamping the entire first second into bucket 0.
    for (double t = 1.0; t < until; t += 1.0) {
      sim.ScheduleDetachedAt(t, EventClass::kTelemetry, [&timeline, &sim]() {
        timeline.Sample(sim.Now());
      });
    }
  }

  // dmr-lint: allow(wall-clock) measuring real kernel throughput is the
  // point; timings feed the printed table and JSON only, never a digest.
  auto t0 = std::chrono::steady_clock::now();
  uint64_t fired = sim.RunUntil(until);
  // dmr-lint: allow(wall-clock) see above
  double wall_us = std::chrono::duration<double, std::micro>(
                       std::chrono::steady_clock::now() - t0)
                       .count();

  CellResult result;
  result.queue = sim.options().queue == QueueKind::kCalendar ? "calendar"
                                                             : "heap";
  result.events = fired;
  result.wall_ms = wall_us / 1000.0;
  result.digest = w.digest;
  return result;
}

/// An A/B/A overhead measurement: the fastest plain and treated runs, the
/// median of (treated - mean of its two plain brackets), and the median
/// bracket-vs-bracket spread (the A/A noise floor).
struct Overhead {
  CellResult base;
  CellResult treated;
  double median_delta_ms = 0.0;
  double noise_floor_ms = 0.0;

  double Pct(double ms) const {
    return base.wall_ms > 0.0 ? 100.0 * ms / base.wall_ms : 0.0;
  }
};

/// The true per-run cost of the hooks under test sits near this machine's
/// run-to-run wall-clock noise, so a naive A/B comparison reports the
/// weather, not the code. Each repetition therefore runs plain / treated /
/// plain and takes the treated run against the MEAN of its two brackets —
/// centring cancels linear drift — and medians across repetitions shed the
/// remaining outliers. An overhead figure is only meaningful relative to
/// the reported noise floor.
Overhead MeasureOverhead(const std::function<CellResult()>& plain,
                         const std::function<CellResult()>& treated) {
  Overhead out;
  std::vector<double> deltas;
  std::vector<double> null_deltas;
  for (int rep = 0; rep < 5; ++rep) {
    CellResult b1 = plain();
    CellResult t = treated();
    CellResult b2 = plain();
    if (rep == 0 || b1.wall_ms < out.base.wall_ms) out.base = b1;
    if (b2.wall_ms < out.base.wall_ms) out.base = b2;
    if (rep == 0 || t.wall_ms < out.treated.wall_ms) out.treated = t;
    deltas.push_back(t.wall_ms - (b1.wall_ms + b2.wall_ms) / 2.0);
    null_deltas.push_back(std::abs(b2.wall_ms - b1.wall_ms));
  }
  std::sort(deltas.begin(), deltas.end());
  std::sort(null_deltas.begin(), null_deltas.end());
  out.median_delta_ms = deltas[deltas.size() / 2];
  out.noise_floor_ms = null_deltas[null_deltas.size() / 2];
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dmr;

  // Driver flags, stripped before the shared parser (which rejects
  // unknown --flags).
  std::string nodes_list = "100,1000,10000";
  double until = 60.0;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--nodes=", 8) == 0) {
      nodes_list = arg + 8;
    } else if (std::strncmp(arg, "--until=", 8) == 0) {
      until = std::atof(arg + 8);
      if (until <= 0.0) {
        std::fprintf(stderr, "bad --until value: %s\n", arg + 8);
        return 2;
      }
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  bench::BenchOptions options = bench::BenchOptions::Parse(argc, argv);

  std::vector<int> node_counts;
  for (const char* p = nodes_list.c_str(); *p != '\0';) {
    char* end = nullptr;
    long n = std::strtol(p, &end, 10);
    if (end == p || n < 1 || n > 10000000) {
      std::fprintf(stderr, "bad --nodes value: %s (want counts >= 1)\n",
                   nodes_list.c_str());
      return 2;
    }
    node_counts.push_back(static_cast<int>(n));
    p = *end == ',' ? end + 1 : end;
  }
  const int max_nodes =
      *std::max_element(node_counts.begin(), node_counts.end());

  std::vector<QueueKind> kinds;
  if (auto forced = sim::Simulation::GlobalQueueKind(); forced.has_value()) {
    kinds.push_back(*forced);  // --queue: one kind only
  } else {
    kinds = {QueueKind::kCalendar, QueueKind::kBinaryHeap};
  }

  bench::PrintHeader(
      "DES kernel scale: calendar queue vs binary-heap oracle",
      "kernel substrate for all paper figures (DESIGN.md §14)",
      "identical digests for both queue kinds; calendar >= 5x heap "
      "events/sec at 10k nodes");

  bench::JsonWriter json;
  TablePrinter table(
      {"nodes", "queue", "cell", "events", "wall ms", "events/sec",
       "digest"});
  bool ok = true;
  std::vector<std::string> overhead_lines;
  auto add_row = [&table](int nodes, const CellResult& cell,
                          const char* label) {
    char wall_buf[32], eps_buf[32];
    std::snprintf(wall_buf, sizeof(wall_buf), "%.1f", cell.wall_ms);
    std::snprintf(eps_buf, sizeof(eps_buf), "%.3g", cell.EventsPerSec());
    table.AddRow({std::to_string(nodes), cell.queue, label,
                  std::to_string(cell.events), wall_buf, eps_buf,
                  cell.DigestHex()});
  };
  for (int nodes : node_counts) {
    std::vector<CellResult> cells;
    for (QueueKind kind : kinds) cells.push_back(RunCell(kind, nodes, until));
    const CellResult& ref = cells.front();
    for (const CellResult& cell : cells) {
      add_row(nodes, cell, "base");
      json.AddCell()
          .Set("bench", "sim_scale")
          .Set("nodes", nodes)
          .Set("queue", cell.queue)
          .Set("events", cell.events)
          .Set("wall_ms", cell.wall_ms)
          .Set("events_per_sec", cell.EventsPerSec())
          .Set("digest", cell.DigestHex());
      if (cell.digest != ref.digest || cell.events != ref.events) {
        std::fprintf(stderr,
                     "FAIL: %s at %d nodes fired %llu events with digest "
                     "%016llx; expected %llu / %016llx (%s)\n",
                     cell.queue.c_str(), nodes,
                     static_cast<unsigned long long>(cell.events),
                     static_cast<unsigned long long>(cell.digest),
                     static_cast<unsigned long long>(ref.events),
                     static_cast<unsigned long long>(ref.digest),
                     ref.queue.c_str());
        ok = false;
      }
    }

    // Overhead cells, only at the largest node count: the claim under test
    // is that sampling amortizes at scale, whereas a tiny cell (~1 ms of
    // kernel work at 100 nodes) mostly measures the fixed per-tick cost
    // and would report a scary-but-irrelevant percentage.
    if (nodes != max_nodes) continue;

    // Timeline overhead: the same program with the obs layer's
    // probe/windowed/flight hot paths attached (see TimelineHooks). The
    // telemetry tick adds fired events, but the *noted* firing sequence
    // must not move, so the digest is still compared.
    for (QueueKind kind : kinds) {
      Overhead o = MeasureOverhead(
          [&] { return RunCell(kind, nodes, until); },
          [&] { return RunCell(kind, nodes, until, /*with_timeline=*/true); });
      add_row(nodes, o.treated, "+timeline");
      char ovh_buf[128];
      std::snprintf(ovh_buf, sizeof(ovh_buf),
                    "timeline overhead at %d nodes (%s): %+.2f%% "
                    "(A/A noise floor %.2f%%)",
                    nodes, o.treated.queue.c_str(), o.Pct(o.median_delta_ms),
                    o.Pct(o.noise_floor_ms));
      overhead_lines.push_back(ovh_buf);
      json.AddCell()
          .Set("bench", "sim_scale_timeline_overhead")
          .Set("nodes", nodes)
          .Set("queue", o.treated.queue)
          .Set("events", o.treated.events)
          .Set("wall_ms", o.treated.wall_ms)
          .Set("wall_ms_base", o.base.wall_ms)
          .Set("median_delta_ms", o.median_delta_ms)
          .Set("overhead_pct", o.Pct(o.median_delta_ms))
          .Set("noise_floor_pct", o.Pct(o.noise_floor_ms));
      if (o.treated.digest != ref.digest) {
        std::fprintf(stderr,
                     "FAIL: %s+timeline at %d nodes perturbed the noted "
                     "firing sequence (digest %016llx != %016llx)\n",
                     o.treated.queue.c_str(), nodes,
                     static_cast<unsigned long long>(o.treated.digest),
                     static_cast<unsigned long long>(ref.digest));
        ok = false;
      }
    }

    // Prof overhead: the same program with the host profiler recording
    // (chunked dispatch frames + queue refill/purge scopes), against the
    // <= 2% events/sec budget of DESIGN.md §17. The profiled run must also
    // leave the firing digest untouched: profiling reads the host clock
    // but never virtual time.
    {
      const QueueKind kind = kinds.front();
      Overhead o = MeasureOverhead(
          [&] { return RunCell(kind, nodes, until); },
          [&] {
            prof::Enable();
            CellResult p = RunCell(kind, nodes, until);
            prof::Disable();
            prof::ResetForTest();
            return p;
          });
      add_row(nodes, o.treated, "+prof");
      char ovh_buf[128];
      std::snprintf(ovh_buf, sizeof(ovh_buf),
                    "prof overhead at %d nodes (%s): %+.2f%% "
                    "(A/A noise floor %.2f%%, budget 2%%)",
                    nodes, o.treated.queue.c_str(), o.Pct(o.median_delta_ms),
                    o.Pct(o.noise_floor_ms));
      overhead_lines.push_back(ovh_buf);
      json.AddCell()
          .Set("bench", "sim_scale_prof_overhead")
          .Set("nodes", nodes)
          .Set("queue", o.treated.queue)
          .Set("events", o.treated.events)
          .Set("wall_ms", o.treated.wall_ms)
          .Set("wall_ms_base", o.base.wall_ms)
          .Set("median_delta_ms", o.median_delta_ms)
          .Set("overhead_pct", o.Pct(o.median_delta_ms))
          .Set("noise_floor_pct", o.Pct(o.noise_floor_ms))
          .Set("budget_pct", 2.0);
      if (o.treated.digest != ref.digest ||
          o.treated.events != o.base.events) {
        std::fprintf(stderr,
                     "FAIL: %s+prof at %d nodes perturbed the firing "
                     "sequence (digest %016llx != %016llx)\n",
                     o.treated.queue.c_str(), nodes,
                     static_cast<unsigned long long>(o.treated.digest),
                     static_cast<unsigned long long>(ref.digest));
        ok = false;
      }
    }
  }
  table.Print();
  std::printf("\n(FNV digests over the firing sequence; every cell in a "
              "node-count group must match)\n");
  for (const std::string& line : overhead_lines) {
    std::printf("%s\n", line.c_str());
  }
  bench::MaybeWriteJson(options, json);
  if (!ok) {
    std::fprintf(stderr, "\ndigest mismatch between queue cells\n");
    return 1;
  }
  return 0;
}
