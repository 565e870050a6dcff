#ifndef DMR_BENCH_BENCH_UTIL_H_
#define DMR_BENCH_BENCH_UTIL_H_

#include <sys/utsname.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "exec/parallel.h"
#include "prof/prof.h"
#include "sim/simulation.h"
#include "obs/book.h"
#include "obs/flight_recorder.h"
#include "obs/report.h"

namespace dmr::bench {

/// Aborts the benchmark with a message when a Status is not OK.
inline void CheckOk(const Status& status, const char* what) {
  if (status.ok()) return;
  std::fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
  std::exit(1);
}

template <typename T>
T UnwrapOrDie(Result<T> result, const char* what) {
  CheckOk(result.status(), what);
  return std::move(result).ValueUnsafe();
}

/// Prints the standard benchmark header.
inline void PrintHeader(const std::string& title, const std::string& paper_ref,
                        const std::string& expectation) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("Expected shape: %s\n", expectation.c_str());
  std::printf("==============================================================\n\n");
}

/// \brief Command-line options shared by every bench driver.
///
/// --threads=N        experiment-cell parallelism (0 or "auto" = all
///                    hardware threads; 1 = the historical serial behaviour)
/// --json=FILE        additionally emit per-cell results as a JSON array
/// --trace=FILE       record a Chrome trace-event file of every simulated
///                    cluster (open in Perfetto / chrome://tracing)
/// --metrics=FILE     emit the unified metrics report (counters + latency
///                    histogram percentiles) as JSON, plus a text summary
/// --timeline=FILE    emit the virtual-time telemetry timelines (per-cell
///                    probe series + sliding-window percentiles + SLO
///                    breaches + flight-recorder ring) as JSON
/// --profile=FILE     enable the host-side profiler (prof/prof.h) for the
///                    whole run and write collapsed flamegraph stacks to
///                    FILE; the phase tree also lands in the --metrics
///                    report as the "prof" section. Profiling never touches
///                    virtual time — every digest stays byte-identical
/// --dump-flight-recorder  print every cell's flight-recorder ring to
///                    stdout at teardown (post-mortem without a crash)
/// --shuffle-ties=S   fire same-timestamp simulation events in a seeded
///                    pseudo-random permutation of insertion order; all
///                    tables/digests must be identical for every seed
///                    (the virtual-time tie-race check, see DESIGN.md §13)
/// --queue=KIND       event-queue implementation: "calendar" (default,
///                    two-tier bucket queue) or "heap" (the legacy binary
///                    heap oracle); firing order — and hence every digest —
///                    must be identical for both (see DESIGN.md §14)
struct BenchOptions {
  int threads = 0;
  std::string json_path;
  std::string trace_path;
  std::string metrics_path;
  std::string timeline_path;
  std::string profile_path;
  bool dump_flight_recorder = false;
  /// Set when --shuffle-ties was given (already applied process-wide).
  std::optional<uint64_t> shuffle_ties;
  /// The --queue kind (already applied process-wide).
  sim::QueueKind queue = sim::QueueKind::kCalendar;

  bool obs_enabled() const {
    return !trace_path.empty() || !metrics_path.empty() ||
           !timeline_path.empty() || !profile_path.empty() ||
           dump_flight_recorder;
  }

  /// Parses the shared flags; unknown --flags abort with usage, bare
  /// positional arguments are left for the driver (returned indices are
  /// compacted into argv[1..] with argc updated).
  static BenchOptions Parse(int& argc, char** argv) {
    BenchOptions options;
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strncmp(arg, "--threads=", 10) == 0) {
        const char* value = arg + 10;
        if (std::strcmp(value, "auto") == 0) {
          options.threads = 0;  // pool picks DMR_THREADS / hardware count
        } else {
          char* end = nullptr;
          long parsed = std::strtol(value, &end, 10);
          if (end == value || *end != '\0' || parsed < 1 ||
              parsed > exec::ThreadPool::kMaxThreads) {
            std::fprintf(stderr, "bad --threads value: %s (want 1..4096 or auto)\n",
                         value);
            std::exit(2);
          }
          options.threads = static_cast<int>(parsed);
        }
      } else if (std::strncmp(arg, "--json=", 7) == 0) {
        options.json_path = arg + 7;
      } else if (std::strncmp(arg, "--trace=", 8) == 0) {
        options.trace_path = arg + 8;
      } else if (std::strncmp(arg, "--metrics=", 10) == 0) {
        options.metrics_path = arg + 10;
      } else if (std::strncmp(arg, "--timeline=", 11) == 0) {
        options.timeline_path = arg + 11;
      } else if (std::strncmp(arg, "--profile=", 10) == 0) {
        options.profile_path = arg + 10;
        // Process-wide, before any cell runs: every ScopedTimer in the
        // process records into the phase tree ObsSession seals at Finish.
        prof::Enable();
      } else if (std::strcmp(arg, "--dump-flight-recorder") == 0) {
        options.dump_flight_recorder = true;
      } else if (std::strncmp(arg, "--shuffle-ties=", 15) == 0) {
        const char* value = arg + 15;
        char* end = nullptr;
        unsigned long long seed = std::strtoull(value, &end, 10);
        if (end == value || *end != '\0') {
          std::fprintf(stderr, "bad --shuffle-ties value: %s (want a seed)\n",
                       value);
          std::exit(2);
        }
        options.shuffle_ties = static_cast<uint64_t>(seed);
        // Applied process-wide, before any worker threads or Simulations
        // exist: every experiment cell shuffles its virtual-time ties.
        sim::Simulation::SetGlobalTieShuffle(options.shuffle_ties);
      } else if (std::strncmp(arg, "--queue=", 8) == 0) {
        const char* value = arg + 8;
        if (std::strcmp(value, "calendar") == 0) {
          options.queue = sim::QueueKind::kCalendar;
        } else if (std::strcmp(value, "heap") == 0) {
          options.queue = sim::QueueKind::kBinaryHeap;
        } else {
          std::fprintf(stderr,
                       "bad --queue value: %s (want calendar|heap)\n", value);
          std::exit(2);
        }
        // Like --shuffle-ties: process-wide, before any Simulation exists.
        sim::Simulation::SetGlobalQueueKind(options.queue);
      } else if (std::strncmp(arg, "--", 2) == 0) {
        std::fprintf(stderr,
                     "unknown flag %s\nusage: %s [--threads=N|auto] "
                     "[--json=FILE] [--trace=FILE] [--metrics=FILE] "
                     "[--timeline=FILE] [--profile=FILE] "
                     "[--dump-flight-recorder] [--shuffle-ties=SEED] "
                     "[--queue=calendar|heap] [driver args]\n",
                     arg, argv[0]);
        std::exit(2);
      } else {
        argv[kept++] = argv[i];
      }
    }
    argc = kept;
    return options;
  }

  /// The pool every converted driver fans its cells out on.
  exec::ThreadPool MakePool() const { return exec::ThreadPool(threads); }
};

/// \brief Collects per-cell results and renders them as a JSON array of flat
/// objects — the machine-readable twin of the printed tables, consumed by
/// the BENCH_*.json perf-trajectory tooling.
///
/// Field order follows Set() call order and cells are appended in
/// deterministic (serial) order by the drivers, so output is byte-identical
/// across --threads settings.
class JsonWriter {
 public:
  class Cell {
   public:
    Cell& Set(const std::string& key, const std::string& value) {
      return Raw(key, Quote(value));
    }
    Cell& Set(const std::string& key, const char* value) {
      return Raw(key, Quote(value));
    }
    Cell& Set(const std::string& key, double value) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", value);
      return Raw(key, buf);
    }
    Cell& Set(const std::string& key, int value) {
      return Raw(key, std::to_string(value));
    }
    Cell& Set(const std::string& key, int64_t value) {
      return Raw(key, std::to_string(value));
    }
    Cell& Set(const std::string& key, uint64_t value) {
      return Raw(key, std::to_string(value));
    }
    Cell& Set(const std::string& key, bool value) {
      return Raw(key, value ? "true" : "false");
    }

   private:
    friend class JsonWriter;
    Cell& Raw(const std::string& key, std::string rendered) {
      fields_.emplace_back(key, std::move(rendered));
      return *this;
    }
    static std::string Quote(const std::string& s) {
      std::string out = "\"";
      for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
              char buf[8];
              std::snprintf(buf, sizeof(buf), "\\u%04x", c);
              out += buf;
            } else {
              out += c;
            }
        }
      }
      out += '"';
      return out;
    }
    std::vector<std::pair<std::string, std::string>> fields_;
  };

  /// Appends an object to the array; the reference stays valid for chaining.
  Cell& AddCell() {
    cells_.emplace_back();
    return cells_.back();
  }

  /// Provenance stamp prepended to every BENCH_*.json array: compiler,
  /// build preset and host identity, marked "bench": "_meta" so the
  /// perf-trajectory tooling can tell environments apart (and cell
  /// consumers skip it by the bench-name mismatch). Deliberately no
  /// timestamps — rebuilding the same tree must reproduce the same bytes.
  static Cell MetaCell() {
    Cell meta;
    meta.Set("bench", "_meta");
#ifdef __VERSION__
    meta.Set("compiler", __VERSION__);
#else
    meta.Set("compiler", "unknown");
#endif
#ifdef DMR_BUILD_TYPE
    meta.Set("build_type", DMR_BUILD_TYPE);
#else
    meta.Set("build_type", "unknown");
#endif
    struct utsname u;
    if (uname(&u) == 0) {
      meta.Set("os", std::string(u.sysname) + " " + u.release);
      meta.Set("arch", u.machine);
    } else {
      meta.Set("os", "unknown");
      meta.Set("arch", "unknown");
    }
    char host[256] = {};
    if (gethostname(host, sizeof(host) - 1) == 0 && host[0] != '\0') {
      meta.Set("host", host);
    } else {
      meta.Set("host", "unknown");
    }
    return meta;
  }

  std::string ToString() const {
    std::deque<Cell> all;
    all.push_back(MetaCell());
    all.insert(all.end(), cells_.begin(), cells_.end());
    std::string out = "[\n";
    for (size_t i = 0; i < all.size(); ++i) {
      out += "  {";
      const auto& fields = all[i].fields_;
      for (size_t f = 0; f < fields.size(); ++f) {
        if (f > 0) out += ", ";
        out += Cell::Quote(fields[f].first) + ": " + fields[f].second;
      }
      out += i + 1 < all.size() ? "},\n" : "}\n";
    }
    out += "]\n";
    return out;
  }

  Status WriteToFile(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return Status::IoError("cannot open " + path + " for writing");
    }
    std::string text = ToString();
    size_t written = std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    if (written != text.size()) {
      return Status::IoError("short write to " + path);
    }
    return Status::OK();
  }

 private:
  std::deque<Cell> cells_;
};

/// \brief The driver-side observability session behind --trace/--metrics.
///
/// Construct one right after BenchOptions::Parse; it installs an obs::Book
/// on the global obs::Hub so every Testbed the driver creates (including
/// from worker threads) opens a cell in it. Finish() — also run by the
/// destructor — snapshots the metrics into a Report, writes the requested
/// files and uninstalls the hub. With no observability flag given the
/// session is inert and costs nothing.
class ObsSession {
 public:
  ObsSession(const BenchOptions& options, std::string driver)
      : driver_(std::move(driver)),
        trace_path_(options.trace_path),
        metrics_path_(options.metrics_path),
        timeline_path_(options.timeline_path),
        profile_path_(options.profile_path),
        dump_flight_(options.dump_flight_recorder) {
    if (!options.obs_enabled()) return;
    std::optional<obs::TimelineOptions> timeline;
    if (!timeline_path_.empty() || dump_flight_) timeline.emplace();
    book_ = std::make_unique<obs::Book>(!trace_path_.empty(), timeline);
    if (!profile_path_.empty()) {
      // Session-level ring: records the profile seal (and any timer-stack
      // imbalance) so post-mortems state whether profiling was live.
      prof_flight_ = std::make_unique<obs::FlightRecorder>(16);
      obs::RegisterFlightRecorderForFatalDump(prof_flight_.get(),
                                              "prof/" + driver_);
    }
    obs::Hub::Install(book_.get());
    installed_ = true;
  }

  ~ObsSession() { Finish(); }

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  /// Writes the trace / metrics outputs (idempotent). Must only run after
  /// all experiment cells completed (no concurrent Testbeds).
  void Finish() {
    if (!installed_) return;
    installed_ = false;
    obs::Hub::Uninstall();
    if (!trace_path_.empty()) {
      CheckOk(book_->WriteTrace(trace_path_), "trace output");
      std::printf("\ntrace written to %s (%zu events, %zu cells)\n",
                  trace_path_.c_str(), book_->num_trace_events(),
                  book_->num_cells());
    }
    obs::Report report;
    report.SetInfo("driver", driver_);
    report.SetSnapshot(book_->TakeSnapshot());
    // Slot-time attribution + per-job critical paths for every cell;
    // Resolve() inside LedgerJson asserts the sum-to-total invariant.
    report.AddJsonSection("ledger", book_->LedgerJson());
    report.AddJsonSection("critical_path", book_->CriticalPathJson());
    if (!profile_path_.empty()) {
      // Seal the host profile: stop recording, merge every thread's phase
      // tree, stamp the seal into the session flight ring (detail = stack
      // imbalances, value = profiled host ms).
      prof::Disable();
      prof::ProfReport prof_report = prof::Collect();
      double profiled_ms = 0.0;
      for (const prof::PhaseStat& phase : prof_report.phases) {
        profiled_ms += static_cast<double>(phase.self_ns) / 1e6;
      }
      prof_flight_->Append(0.0, obs::FlightEventKind::kProfSeal, -1, -1,
                           prof_report.imbalances, profiled_ms);
      if (prof_report.imbalances != 0) {
        std::fprintf(stderr,
                     "prof: WARNING: %d timer-stack imbalance(s) detected\n",
                     prof_report.imbalances);
      }
      report.AddJsonSection("prof", prof::ToJson(prof_report));
      std::string collapsed = prof::ToCollapsed(prof_report);
      std::FILE* f = std::fopen(profile_path_.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot open %s\n", profile_path_.c_str());
        std::exit(1);
      }
      if (std::fwrite(collapsed.data(), 1, collapsed.size(), f) !=
          collapsed.size()) {
        std::fprintf(stderr, "short write to %s\n", profile_path_.c_str());
        std::exit(1);
      }
      std::fclose(f);
      std::printf("profile (collapsed stacks) written to %s\n",
                  profile_path_.c_str());
    }
    std::printf("\n%s", report.ToText().c_str());
    if (!metrics_path_.empty()) {
      CheckOk(report.WriteJson(metrics_path_), "metrics output");
      std::printf("metrics report written to %s\n", metrics_path_.c_str());
    }
    if (prof_flight_ != nullptr) {
      if (dump_flight_) prof_flight_->DumpText(stdout, "prof/" + driver_);
      obs::UnregisterFlightRecorderForFatalDump(prof_flight_.get());
    }
    if (!timeline_path_.empty() || dump_flight_) {
      if (dump_flight_) book_->DumpFlightRecorders(stdout);
      if (!timeline_path_.empty()) {
        // Standalone file (kept out of the metrics report: timelines are
        // an order of magnitude bigger than the end-of-run aggregates).
        std::string text = "{\"driver\": \"" + driver_ +
                           "\",\n \"timeline\": " + book_->TimelineJson() +
                           "}\n";
        std::FILE* f = std::fopen(timeline_path_.c_str(), "w");
        if (f == nullptr) {
          std::fprintf(stderr, "cannot open %s\n", timeline_path_.c_str());
          std::exit(1);
        }
        if (std::fwrite(text.data(), 1, text.size(), f) != text.size()) {
          std::fprintf(stderr, "short write to %s\n", timeline_path_.c_str());
          std::exit(1);
        }
        std::fclose(f);
        std::printf("timeline written to %s\n", timeline_path_.c_str());
      }
    }
  }

 private:
  std::string driver_;
  std::string trace_path_;
  std::string metrics_path_;
  std::string timeline_path_;
  std::string profile_path_;
  bool dump_flight_ = false;
  std::unique_ptr<obs::Book> book_;
  std::unique_ptr<obs::FlightRecorder> prof_flight_;
  bool installed_ = false;
};

/// Writes the collected cells when --json=FILE was given; dies on IO error.
inline void MaybeWriteJson(const BenchOptions& options,
                           const JsonWriter& writer) {
  if (options.json_path.empty()) return;
  CheckOk(writer.WriteToFile(options.json_path), "json output");
  std::printf("\nper-cell results written to %s\n",
              options.json_path.c_str());
}

}  // namespace dmr::bench

#endif  // DMR_BENCH_BENCH_UTIL_H_
