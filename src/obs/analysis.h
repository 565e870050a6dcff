#ifndef DMR_OBS_ANALYSIS_H_
#define DMR_OBS_ANALYSIS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "common/result.h"

namespace dmr::obs::analysis {

/// \brief The library behind `dmr-analyze`, also linked into tests.
///
/// Every document a bench driver writes is read into one keyed-metric
/// table: rows of key fields -> metric -> value, repeats of a key
/// aggregated. One engine joins tables across runs, checks them against a
/// baseline and emits baselines; only the markdown views know the kind.
/// A kind's reader is also its schema checker: it refuses, with
/// InvalidArgument, any document that breaks an invariant its writer keeps
/// (an exhaustive ledger, ordered percentiles, gap-free tick times,
/// self = total - children in the phase tree, ...).

/// The document kinds and their keys.
///  - kReport: the `ledger` + `critical_path` sections of a --metrics
///    report, by (cell, policy, z). A report without them (fig4 simulates
///    no cluster) reads as an empty table.
///  - kTimeline: a --timeline document, by (cell, policy, z, series,
///    window). Probe series have window ""; the series "" row holds the
///    cell's tick and SLO-breach totals.
///  - kProfile: the `prof` section of a --profile run's --metrics report,
///    by collapsed phase path ("sim.run_until;sim.dispatch").
enum class Kind { kReport, kTimeline, kProfile };

using Key = std::vector<std::string>;
using Metrics = std::map<std::string, double>;

/// A default band of emitted baselines: relative, plus `abs` when nonzero.
struct Band {
  const char* metric;
  double abs;
};

/// What the engine knows about a kind, as data.
struct KindSpec {
  const char* name;
  std::vector<std::string> fields;  // key field names, in key order
  /// Default bands; an emitted entry carries exactly these metrics (so a
  /// profile emits only the machine-independent call count).
  std::vector<Band> bands;
  bool require_balanced;  // emitted baselines demand zero imbalances
};
const KindSpec& SpecOf(Kind kind);

struct Row {
  Key key;          // one value per KindSpec::fields entry
  int repeats = 0;  // document entries aggregated into this row
  Metrics metrics;  // banded: what baselines check, emit and order
  // For the markdown views only: raw sums and counts, a label (probe kind,
  // critical-path composition) and sparkline values of the first repeat.
  Metrics view;
  std::string text;
  std::vector<double> spark;
};

/// The keyed-metric table of one input document.
struct Table {
  std::string source;
  std::string driver;
  std::vector<Row> rows;   // sorted by key, keys unique
  Metrics info;            // run-level numbers (interval, threads, ...)
  std::vector<Row> alloc;  // profile allocation sites, for the view only

  const Row* Find(const Key& key) const;
};

/// `obj[key]` as an integer a uint64_t holds; a missing, non-numeric,
/// negative, fractional, non-finite or out-of-range value is
/// InvalidArgument naming `where`. Readers take every integer through it.
Result<uint64_t> ReadInt(const json::JsonValue& obj, std::string_view key,
                         const std::string& where);

/// Reads and parses file `path` (IoError when unreadable).
Result<json::JsonValue> LoadJson(const std::string& path);

/// The readers: `doc` flattened into the kind's table, or refused.
Result<Table> ReadTable(Kind kind, const json::JsonValue& doc,
                        std::string source);
Result<Table> LoadTable(Kind kind, const std::string& path);

struct BaselineReport {
  /// Out-of-band metrics, violated orderings, missing rows, unknown
  /// metrics (exit 1).
  std::vector<std::string> failures;
  std::vector<std::string> notes;  // in-band drift
  int entries_checked = 0;
  int orderings_checked = 0;
  bool ok() const { return failures.empty(); }
};

/// Checks every run whose driver matches the baseline's against it:
/// {
///   "driver": "fig5_single_user",            // optional run filter
///   "tolerances": {"response_time": 0.1,     // a number is rel
///                  "wasted_pct": {"rel": 0.1, "abs": 1.0}},
///   "entries": [{"cell": ..., "policy": ..., "z": ...,   // key fields
///                "metrics": {"response_time": 123.4, ...}}, ...],
///   "orderings": [{"metric": "wasted_pct",
///                  "cells": [{"policy": "HA", ...}, ...]}],
///   "require_balanced": true                 // profile imbalances == 0
/// }
/// A metric fails when |actual - base| > abs + rel * |base| (defaults rel
/// 0.05, abs 1e-9); an ordering when its cells' values decrease (1e-9
/// slack). A missing row, an unknown metric or no run with the driver
/// fails. A malformed baseline, or one that checks nothing, is
/// InvalidArgument. Top-level `comment` and `kind` are ignored.
Result<BaselineReport> CheckBaseline(Kind kind,
                                     const json::JsonValue& baseline,
                                     const std::vector<Table>& runs);

/// A fresh baseline over `runs` (the first run holding a key wins) with
/// the kind's default bands at relative tolerance `rel`; orderings are
/// curated by hand.
std::string EmitBaseline(Kind kind, const std::vector<Table>& runs,
                         double rel);

/// The markdown view of `runs`, joined by key: the report matrix with
/// critical-path composition; per timeline cell, probe extrema and
/// windowed-percentile tables with sparklines; per profile, a top-`top_n`
/// self-time table and the allocation sites, plus a cross-run matrix.
std::string RenderMarkdown(Kind kind, const std::vector<Table>& runs,
                           size_t top_n);

/// A profile table as collapsed stacks, byte-identical to the driver's
/// own --profile file.
std::string RenderCollapsed(const Table& run);

/// The span counts `validate` checks against the metrics counters.
struct TraceCounts {
  uint64_t map_spans = 0;
  uint64_t provider_instants = 0;
  uint64_t job_spans = 0;
  /// Job spans begun and never ended: jobs still in flight when the run
  /// stopped (Validate checks them against the job counters).
  uint64_t open_job_spans = 0;
};

/// Reads a --trace document, refusing unknown phases, events without
/// ts/pid/name, complete spans without tid or with a negative dur and
/// async ends before their begins.
Result<TraceCounts> ReadTrace(const json::JsonValue& doc,
                              const std::string& source);

/// `dmr-analyze validate`: reads a run's trace, metrics report and
/// optional timeline (empty path: none), one document at a time. Beyond
/// the readers' checks it requires the standard counters and histograms
/// (percentiles ordered), one map span per ended attempt (completed,
/// failed or killed), one provider instant per decision, one job span per
/// submitted job, one still open per job in flight (submitted, not
/// completed) and, in a profiled run, recorded phases and zero
/// imbalances. A run stopped with work in flight passes. Returns a
/// summary.
Result<std::string> Validate(const std::string& trace_path,
                             const std::string& metrics_path,
                             const std::string& timeline_path);

}  // namespace dmr::obs::analysis

#endif  // DMR_OBS_ANALYSIS_H_
