#include "obs/analysis.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <utility>

#include "obs/ledger.h"

namespace dmr::obs::analysis {

using json::JsonNumber;
using json::JsonQuote;
using json::JsonValue;
using Type = JsonValue::Kind;

namespace {

std::string Format(const char* format, double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}
std::string Fixed(double value) { return Format("%.4g", value); }
/// Integer-valued view numbers (counts, nanoseconds) as printed integers.
std::string Int(double value) { return Format("%.0f", value); }

double Get(const Metrics& metrics, const std::string& name) {
  auto it = metrics.find(name);
  return it == metrics.end() ? 0.0 : it->second;
}

Status Bad(const std::string& where, const std::string& what) {
  return Status::InvalidArgument(where + ": " + what);
}

/// obj[key] when it has JSON type `type`.
Result<const JsonValue*> Field(const JsonValue& obj, std::string_view key,
                               Type type, const std::string& where) {
  const JsonValue* value = obj.Find(key);
  if (value == nullptr || value->kind != type) {
    return Bad(where, "'" + std::string(key) + "' missing or mistyped");
  }
  return value;
}
Result<const JsonValue*> Obj(const JsonValue& obj, std::string_view key,
                             const std::string& where) {
  return Field(obj, key, Type::kObject, where);
}
Result<const JsonValue*> Arr(const JsonValue& obj, std::string_view key,
                             const std::string& where) {
  return Field(obj, key, Type::kArray, where);
}

/// obj[key] as a finite number.
Result<double> Number(const JsonValue& obj, std::string_view key,
                      const std::string& where) {
  DMR_ASSIGN_OR_RETURN(const JsonValue* value,
                       Field(obj, key, Type::kNumber, where));
  if (!std::isfinite(value->number_value)) {
    return Bad(where, "'" + std::string(key) + "' is not finite");
  }
  return value->number_value;
}

using Names = std::initializer_list<const char*>;

/// The named fields of `obj`, in order, as finite numbers / integers.
Status Numbers(const JsonValue& obj, Names names, double* out,
               const std::string& where) {
  for (const char* name : names) {
    DMR_ASSIGN_OR_RETURN(*out++, Number(obj, name, where));
  }
  return Status::OK();
}
Status Ints(const JsonValue& obj, Names names, uint64_t* out,
            const std::string& where) {
  for (const char* name : names) {
    DMR_ASSIGN_OR_RETURN(*out++, ReadInt(obj, name, where));
  }
  return Status::OK();
}

/// The named fields are present, whatever their values.
Status Require(const JsonValue& obj, Names names, const std::string& where) {
  for (const char* name : names) {
    if (obj.Find(name) == nullptr) {
      return Bad(where, "'" + std::string(name) + "' missing");
    }
  }
  return Status::OK();
}

/// Sums the writers derive from the same quantities agree to 1e-6.
bool Close(double a, double b) {
  return std::fabs(a - b) <= 1e-6 * std::max(1.0, std::fabs(b));
}

/// The (cell, policy, z) of a ledger, critical-path or timeline cell: its
/// annotations, with the auto label standing in for a missing "cell".
Result<Key> CellKey(const JsonValue& cell, const std::string& where) {
  DMR_ASSIGN_OR_RETURN(const JsonValue* ann, Obj(cell, "annotations", where));
  return Key{ann->StringOr("cell", cell.StringOr("label", "")),
             ann->StringOr("policy", ""), ann->StringOr("z", "")};
}

std::string Where(const std::string& source, const char* what,
                  const JsonValue& cell) {
  return source + ": " + what + " " + cell.StringOr("label", "?");
}

/// The row of `key`, created on first use.
Row& RowAt(std::map<Key, Row>* rows, const Key& key) {
  Row& row = (*rows)[key];
  row.key = key;
  return row;
}

// ---- Report reader: ledger + critical_path.

/// "execution 62% / queueing 21% / provider 17%": the top categories of a
/// row's critical-path composition.
std::string Composition(const Metrics& parts, double path_time) {
  if (path_time <= 0.0 || parts.empty()) return "-";
  std::vector<std::pair<std::string, double>> ranked(parts.begin(),
                                                     parts.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  std::string out;
  int shown = 0;
  for (const auto& [cat, secs] : ranked) {
    double pct = 100.0 * secs / path_time;
    if (pct < 0.5 && shown > 0) break;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s%s %.0f%%", shown > 0 ? " / " : "",
                  cat.c_str(), pct);
    out += buf;
    if (++shown == 3) break;
  }
  return out;
}

Status ReadLedgerEntry(const JsonValue& cell, const std::string& where,
                       Row* row) {
  uint64_t n[2];  // nodes, map slots per node
  double v[4];    // makespan, total slot seconds, wasted %, utilization %
  DMR_RETURN_NOT_OK(Ints(cell, {"nodes", "map_slots_per_node"}, n, where));
  DMR_RETURN_NOT_OK(Numbers(cell,
                            {"makespan", "total_slot_seconds", "wasted_pct",
                             "utilization_pct"},
                            v, where));
  DMR_ASSIGN_OR_RETURN(const JsonValue* categories,
                       Obj(cell, "categories", where));
  if (v[2] < 0.0 || v[2] > 100.0 || v[3] < 0.0 || v[3] > 100.0) {
    return Bad(where, "wasted_pct or utilization_pct outside [0, 100]");
  }
  if (!Close(v[1],
             static_cast<double>(n[0]) * static_cast<double>(n[1]) * v[0])) {
    return Bad(where, "total_slot_seconds != nodes x slots x makespan");
  }
  if (categories->members.size() != kNumSlotCategories) {
    return Bad(where, "categories are not the six ledger categories");
  }
  double sum = 0.0;
  for (int c = 0; c < kNumSlotCategories; ++c) {
    const char* name = SlotCategoryName(static_cast<SlotCategory>(c));
    DMR_ASSIGN_OR_RETURN(double secs, Number(*categories, name, where));
    if (secs < 0.0) return Bad(where, std::string("negative ") + name);
    sum += secs;
    row->view[name] += secs;
  }
  if (!Close(sum, v[1])) {
    return Bad(where, "categories do not sum to total_slot_seconds (the "
                      "ledger is not exhaustive)");
  }
  ++row->repeats;
  row->view["makespan_sum"] += v[0];
  row->view["slot_seconds"] += v[1];
  return Status::OK();
}

Status ReadJobPath(const JsonValue& job, const std::string& cell_where,
                   Row* row, Metrics* parts) {
  std::string where =
      cell_where + " job " + JsonNumber(job.NumberOr("job", -1));
  double v[3];  // finish, response and path time
  DMR_RETURN_NOT_OK(Numbers(
      job, {"finish_time", "response_time", "path_time"}, v, where));
  DMR_ASSIGN_OR_RETURN(const JsonValue* breakdown,
                       Obj(job, "breakdown", where));
  DMR_ASSIGN_OR_RETURN(const JsonValue* path, Arr(job, "path", where));
  DMR_RETURN_NOT_OK(Require(job, {"path_truncated"}, where));
  if (v[1] < 0.0 || v[2] < 0.0) {
    return Bad(where, "negative response or path time");
  }
  if (path->items.empty() ||
      path->items.back().StringOr("event", "") != "job_completed") {
    return Bad(where, "critical path does not end at job_completed");
  }
  double prev = 0.0;
  for (size_t i = 0; i < path->items.size(); ++i) {
    DMR_ASSIGN_OR_RETURN(double t, Number(path->items[i], "t", where));
    if (i > 0 && t < prev) return Bad(where, "path is not time-ordered");
    prev = t;
  }
  double sum = 0.0;
  for (const auto& [cat, secs] : breakdown->members) {
    if (!secs.is_number()) return Bad(where, "breakdown value not a number");
    sum += secs.number_value;
    (*parts)[cat] += secs.number_value;
  }
  if (!Close(sum, v[2])) {
    return Bad(where, "breakdown does not sum to path_time");
  }
  row->view["jobs"] += 1;
  row->view["response_sum"] += v[1];
  row->view["path_time"] += v[2];
  return Status::OK();
}

Status ReadReport(const JsonValue& doc, Table* table) {
  std::map<Key, Row> rows;
  std::map<Key, Metrics> parts;  // critical-path seconds per edge category
  if (const JsonValue* ledger = doc.Find("ledger")) {
    DMR_ASSIGN_OR_RETURN(const JsonValue* cells,
                         Arr(*ledger, "cells", table->source + ": ledger"));
    for (const JsonValue& cell : cells->items) {
      std::string where = Where(table->source, "ledger cell", cell);
      DMR_ASSIGN_OR_RETURN(Key key, CellKey(cell, where));
      DMR_RETURN_NOT_OK(ReadLedgerEntry(cell, where, &RowAt(&rows, key)));
    }
  }
  if (const JsonValue* critical = doc.Find("critical_path")) {
    DMR_ASSIGN_OR_RETURN(
        const JsonValue* cells,
        Arr(*critical, "cells", table->source + ": critical_path"));
    for (const JsonValue& cell : cells->items) {
      std::string where = Where(table->source, "critical_path cell", cell);
      DMR_ASSIGN_OR_RETURN(Key key, CellKey(cell, where));
      DMR_ASSIGN_OR_RETURN(const JsonValue* analysis,
                           Obj(cell, "analysis", where));
      DMR_ASSIGN_OR_RETURN(const JsonValue* jobs,
                           Arr(*analysis, "jobs", where));
      Row& row = RowAt(&rows, key);
      for (const JsonValue& job : jobs->items) {
        DMR_RETURN_NOT_OK(ReadJobPath(job, where, &row, &parts[key]));
      }
    }
  }
  for (auto& [key, row] : rows) {
    const Metrics& v = row.view;
    double jobs = Get(v, "jobs");
    double busy = Get(v, "useful") + Get(v, "wasted") + Get(v, "speculative");
    double slot_seconds = Get(v, "slot_seconds");
    row.metrics = {
        {"response_time", jobs > 0 ? Get(v, "response_sum") / jobs : 0.0},
        {"wasted_pct", busy > 0.0 ? 100.0 * Get(v, "wasted") / busy : 0.0},
        {"utilization_pct",
         slot_seconds > 0.0 ? 100.0 * busy / slot_seconds : 0.0},
        {"makespan",
         row.repeats > 0 ? Get(v, "makespan_sum") / row.repeats : 0.0}};
    row.text = Composition(parts[key], Get(v, "path_time"));
    table->rows.push_back(std::move(row));
  }
  return Status::OK();
}

// ---- Timeline reader.

/// Folds one timeline cell into `rows`. Every series of a cell retains the
/// same ticks - dropped_ticks points, at tick times strictly monotone and
/// one sampling interval apart.
Status ReadTimelineEntry(const JsonValue& cell, const JsonValue& windows,
                         double interval, const std::string& source,
                         std::map<Key, Row>* rows) {
  std::string where = Where(source, "timeline cell", cell);
  DMR_ASSIGN_OR_RETURN(Key key, CellKey(cell, where));
  DMR_ASSIGN_OR_RETURN(const JsonValue* tl, Obj(cell, "timeline", where));
  uint64_t ticks[2];  // sampled, dropped from the ring
  DMR_RETURN_NOT_OK(Ints(*tl, {"ticks", "dropped_ticks"}, ticks, where));
  DMR_ASSIGN_OR_RETURN(double sealed_at, Number(*tl, "sealed_at", where));
  DMR_ASSIGN_OR_RETURN(const JsonValue* series, Arr(*tl, "series", where));
  DMR_ASSIGN_OR_RETURN(const JsonValue* windowed,
                       Arr(*tl, "windowed", where));
  if (ticks[1] > ticks[0]) return Bad(where, "dropped more than it sampled");
  std::vector<double> cell_times;
  bool have_times = false;
  // Checks a series' points (arrays of `width` finite numbers each passing
  // `ok`) and returns their column `spark`.
  auto read_points = [&](const JsonValue& points, size_t width, size_t spark,
                         const std::string& at,
                         auto ok) -> Result<std::vector<double>> {
    if (points.items.size() != ticks[0] - ticks[1]) {
      return Bad(at, "retains other than ticks - dropped_ticks points");
    }
    std::vector<double> times;
    std::vector<double> column;
    for (const JsonValue& point : points.items) {
      bool valid = point.is_array() && point.items.size() == width;
      std::vector<double> v;
      for (size_t i = 0; valid && i < width; ++i) {
        v.push_back(point.items[i].number_value);
        valid = point.items[i].is_number() && std::isfinite(v.back());
      }
      if (!valid || !ok(v)) {
        return Bad(at, "malformed point or value outside its summary");
      }
      if (!times.empty() && (v[0] <= times.back() ||
                             std::fabs(v[0] - times.back() - interval) >
                                 1e-9 * std::max(1.0, interval))) {
        return Bad(at, "tick times leave the sampling cadence at t=" +
                           JsonNumber(v[0]));
      }
      times.push_back(v[0]);
      column.push_back(v[spark]);
    }
    if (have_times && times != cell_times) {
      return Bad(at, "tick times disagree with the cell's other series");
    }
    cell_times = times;
    have_times = true;
    return column;
  };

  for (const JsonValue& s : series->items) {
    std::string name = s.StringOr("name", "");
    std::string at = where + " series " + name;
    std::string kind = s.StringOr("kind", "");
    if (name.empty() || (kind != "gauge" && kind != "counter")) {
      return Bad(at, "series without a name or a gauge/counter kind");
    }
    DMR_RETURN_NOT_OK(Field(s, "unit", Type::kString, at).status());
    DMR_ASSIGN_OR_RETURN(const JsonValue* summary, Obj(s, "summary", at));
    DMR_ASSIGN_OR_RETURN(const JsonValue* points, Arr(s, "points", at));
    DMR_ASSIGN_OR_RETURN(uint64_t summary_ticks,
                         ReadInt(*summary, "ticks", at));
    double st[5];  // min, mean, max, last, t_at_max
    DMR_RETURN_NOT_OK(Numbers(*summary,
                              {"min", "mean", "max", "last", "t_at_max"}, st,
                              at));
    if (summary_ticks != ticks[0] || st[0] > st[1] || st[1] > st[2]) {
      return Bad(at, "summary ticks != cell ticks or min <= mean <= max "
                     "does not hold");
    }
    DMR_ASSIGN_OR_RETURN(
        std::vector<double> values,
        read_points(*points, 3, 1, at, [&](const std::vector<double>& v) {
          return st[0] <= v[1] && v[1] <= st[2];
        }));
    Row& row = RowAt(rows, Key{key[0], key[1], key[2], name, ""});
    if (row.repeats++ == 0) {
      row.text = kind;
      row.spark = std::move(values);
      row.metrics = {{"min", st[0]}, {"max", st[2]}};
      row.view["t_at_max"] = st[4];
    }
    row.metrics["min"] = std::min(row.metrics["min"], st[0]);
    if (st[2] > row.metrics["max"]) {
      row.metrics["max"] = st[2];
      row.view["t_at_max"] = st[4];
    }
    row.metrics["last"] = st[3];
    row.view["points"] += static_cast<double>(summary_ticks);
    row.view["sum"] += st[1] * static_cast<double>(summary_ticks);
    row.metrics["mean"] = row.view["sum"] / std::max(1.0, row.view["points"]);
  }

  for (const JsonValue& s : windowed->items) {
    std::string name = s.StringOr("name", "");
    std::string at = where + " windowed " + name;
    DMR_ASSIGN_OR_RETURN(const JsonValue* list, Arr(s, "windows", at));
    if (name.empty() || list->items.size() != windows.items.size()) {
      return Bad(at, "series without a name or the book's windows");
    }
    for (size_t w = 0; w < list->items.size(); ++w) {
      const JsonValue& window = list->items[w];
      DMR_ASSIGN_OR_RETURN(double length, Number(window, "window", at));
      std::string wat = at + " window " + JsonNumber(length);
      DMR_ASSIGN_OR_RETURN(const JsonValue* summary,
                           Obj(window, "summary", wat));
      DMR_ASSIGN_OR_RETURN(const JsonValue* points,
                           Arr(window, "points", wat));
      DMR_ASSIGN_OR_RETURN(uint64_t count_max,
                           ReadInt(*summary, "count_max", wat));
      const char* kMaxima[3] = {"p50_max", "p90_max", "p99_max"};
      double p[3];
      DMR_RETURN_NOT_OK(Numbers(
          *summary, {kMaxima[0], kMaxima[1], kMaxima[2]}, p, wat));
      if (length != windows.items[w].number_value || p[0] > p[1] ||
          p[1] > p[2]) {
        return Bad(wat, "window differs from the book's, or whole-run "
                        "percentile maxima out of order");
      }
      DMR_ASSIGN_OR_RETURN(
          std::vector<double> p99s,
          read_points(*points, 5, 4, wat, [&](const std::vector<double>& v) {
            return v[1] >= 0 && v[1] <= static_cast<double>(count_max) &&
                   v[2] <= v[3] && v[3] <= v[4];
          }));
      Row& row =
          RowAt(rows, Key{key[0], key[1], key[2], name, JsonNumber(length)});
      if (row.repeats++ == 0) {
        row.text = "windowed";
        row.spark = std::move(p99s);
      }
      row.metrics["count"] =
          std::max(row.metrics["count"], static_cast<double>(count_max));
      for (int i = 0; i < 3; ++i) {
        row.metrics[kMaxima[i]] = std::max(row.metrics[kMaxima[i]], p[i]);
      }
      row.view["points"] += static_cast<double>(points->items.size());
    }
  }

  DMR_ASSIGN_OR_RETURN(const JsonValue* slo, Obj(cell, "slo", where));
  DMR_ASSIGN_OR_RETURN(const JsonValue* rules, Arr(*slo, "rules", where));
  DMR_ASSIGN_OR_RETURN(const JsonValue* breaches,
                       Arr(*slo, "breaches", where));
  for (const JsonValue& rule : rules->items) {
    DMR_RETURN_NOT_OK(Require(rule,
                              {"name", "series", "window", "quantile", "max",
                               "budget_fraction", "budget_burned"},
                              where));
    uint64_t n[2];
    DMR_RETURN_NOT_OK(
        Ints(rule, {"evaluated_ticks", "breached_ticks"}, n, where));
    if (n[1] > n[0]) {
      return Bad(where, "slo rule breached more ticks than it evaluated");
    }
  }
  for (const JsonValue& breach : breaches->items) {
    DMR_RETURN_NOT_OK(Require(breach, {"kind", "measured"}, where));
    DMR_ASSIGN_OR_RETURN(double t, Number(breach, "t", where));
    DMR_ASSIGN_OR_RETURN(uint64_t rule, ReadInt(breach, "rule", where));
    if (rule >= rules->items.size() || t <= 0.0 || t > sealed_at) {
      return Bad(where, "slo breach of an unknown rule or outside the run");
    }
  }

  DMR_ASSIGN_OR_RETURN(const JsonValue* recorder,
                       Obj(cell, "flight_recorder", where));
  DMR_ASSIGN_OR_RETURN(const JsonValue* events,
                       Arr(*recorder, "events", where));
  uint64_t ring[3];  // capacity, appended, dropped
  DMR_RETURN_NOT_OK(
      Ints(*recorder, {"capacity", "appended", "dropped"}, ring, where));
  if (events->items.size() > ring[0] || ring[1] < ring[2] ||
      ring[1] - ring[2] != events->items.size()) {
    return Bad(where, "flight recorder ring arithmetic is wrong");
  }
  uint64_t prev_seq = 0;
  double prev_t = 0.0;
  for (size_t i = 0; i < events->items.size(); ++i) {
    DMR_ASSIGN_OR_RETURN(uint64_t seq, ReadInt(events->items[i], "seq", where));
    DMR_ASSIGN_OR_RETURN(double t, Number(events->items[i], "t", where));
    if (i > 0 && (seq <= prev_seq || t < prev_t)) {
      return Bad(where, "flight events out of sequence or time order");
    }
    prev_seq = seq;
    prev_t = t;
  }

  Row& totals = RowAt(rows, Key{key[0], key[1], key[2], "", ""});
  ++totals.repeats;
  totals.view["ticks"] += static_cast<double>(ticks[0]);
  totals.view["dropped_ticks"] += static_cast<double>(ticks[1]);
  totals.view["slo_breaches"] += static_cast<double>(breaches->items.size());
  return Status::OK();
}

Status ReadTimeline(const JsonValue& doc, Table* table) {
  const std::string& source = table->source;
  DMR_ASSIGN_OR_RETURN(const JsonValue* book, Obj(doc, "timeline", source));
  DMR_ASSIGN_OR_RETURN(double interval, Number(*book, "interval", source));
  DMR_ASSIGN_OR_RETURN(const JsonValue* windows,
                       Arr(*book, "windows", source));
  DMR_ASSIGN_OR_RETURN(const JsonValue* cells, Arr(*book, "cells", source));
  bool positive = interval > 0.0;
  for (const JsonValue& w : windows->items) {
    positive = positive && w.is_number() && w.number_value > 0.0;
  }
  if (!positive) return Bad(source, "interval and windows must be positive");
  table->info["interval"] = interval;
  std::map<Key, Row> rows;
  for (const JsonValue& cell : cells->items) {
    DMR_RETURN_NOT_OK(
        ReadTimelineEntry(cell, *windows, interval, source, &rows));
  }
  for (auto& [key, row] : rows) table->rows.push_back(std::move(row));
  return Status::OK();
}

// ---- Profile reader.

Status ReadProfile(const JsonValue& doc, Table* table) {
  const JsonValue* prof = doc.Find("prof");
  if (prof == nullptr) {
    return Bad(table->source, "no prof section (was the run profiled? pass "
                              "--profile=FILE to the bench driver)");
  }
  std::string where = table->source + ": prof";
  DMR_ASSIGN_OR_RETURN(double calibration,
                       Number(*prof, "calibration_ns", where));
  uint64_t run[2];  // threads merged, timer-stack imbalances
  DMR_RETURN_NOT_OK(Ints(*prof, {"threads", "imbalances"}, run, where));
  DMR_ASSIGN_OR_RETURN(const JsonValue* phases, Arr(*prof, "phases", where));
  DMR_ASSIGN_OR_RETURN(const JsonValue* alloc, Arr(*prof, "alloc", where));
  if (calibration < 0.0 || run[0] < 1) {
    return Bad(where, "negative calibration or no merged thread");
  }
  table->info = {{"calibration_ns", calibration},
                 {"threads", static_cast<double>(run[0])},
                 {"imbalances", static_cast<double>(run[1])}};
  for (const JsonValue& phase : phases->items) {
    std::string path = phase.StringOr("path", "");
    std::string at = where + " phase " + path;
    uint64_t n[5];  // count, total_ns, self_ns, min_ns, max_ns
    DMR_RETURN_NOT_OK(Ints(
        phase, {"count", "total_ns", "self_ns", "min_ns", "max_ns"}, n, at));
    if (path.empty() ||
        (!table->rows.empty() && path <= table->rows.back().key[0])) {
      return Bad(at, "phase paths must be nonempty, sorted and unique");
    }
    if (n[0] == 0 || n[2] > n[1] || n[3] > n[4]) {
      return Bad(at, "zero count, self > total or min > max");
    }
    double ns[5];
    std::copy(n, n + 5, ns);
    Row& row = table->rows.emplace_back();
    row.key = {path};
    row.repeats = 1;
    row.metrics = {{"count", ns[0]},         {"total_ms", ns[1] / 1e6},
                   {"self_ms", ns[2] / 1e6}, {"min_us", ns[3] / 1e3},
                   {"max_us", ns[4] / 1e3}};
    row.view = {{"total_ns", ns[1]}, {"self_ns", ns[2]}};
  }
  // self = total - the direct children's totals, clamped at zero.
  for (const Row& row : table->rows) {
    std::string prefix = row.key[0] + ";";
    double children = 0.0;
    for (const Row& child : table->rows) {
      const std::string& path = child.key[0];
      if (path.compare(0, prefix.size(), prefix) == 0 &&
          path.find(';', prefix.size()) == std::string::npos) {
        children += Get(child.view, "total_ns");
      }
    }
    if (Get(row.view, "self_ns") !=
        std::max(Get(row.view, "total_ns") - children, 0.0)) {
      return Bad(where + " phase " + row.key[0],
                 "self_ns != total_ns - the direct children's total_ns");
    }
  }
  std::set<std::string> sites;
  for (const JsonValue& entry : alloc->items) {
    std::string site = entry.StringOr("site", "");
    uint64_t n[2];  // count, bytes
    DMR_RETURN_NOT_OK(Ints(entry, {"count", "bytes"}, n, where));
    if (site.empty() || !sites.insert(site).second) {
      return Bad(where, "allocation site missing or repeated: " + site);
    }
    Row& row = table->alloc.emplace_back();
    row.key = {site};
    row.view = {{"count", static_cast<double>(n[0])},
                {"bytes", static_cast<double>(n[1])}};
  }
  return Status::OK();
}

// ---- The engine: band rule, baseline check and emission.

struct Tolerance {
  double rel = 0.05;
  double abs = 1e-9;
};

/// The band of `metric` in a baseline's `tolerances` object.
Result<Tolerance> ToleranceOf(const JsonValue* tolerances,
                              const std::string& metric) {
  Tolerance tol;
  const JsonValue* value =
      tolerances != nullptr ? tolerances->Find(metric) : nullptr;
  if (value != nullptr && value->is_number()) tol.rel = value->number_value;
  if (value == nullptr || value->is_number()) return tol;
  if (!value->is_object()) {
    return Status::InvalidArgument("tolerance of '" + metric +
                                   "' is neither a number nor {rel, abs}");
  }
  return Tolerance{value->NumberOr("rel", tol.rel),
                   value->NumberOr("abs", tol.abs)};
}

/// The band rule: `actual` passes when |actual - base| <= abs + rel*|base|.
bool InBand(double actual, double base, Tolerance tol, double* budget) {
  *budget = tol.abs + tol.rel * std::fabs(base);
  return std::fabs(actual - base) <= *budget;
}

/// "cell=s10 policy=HA z=1": the nonempty key fields.
std::string KeyText(Kind kind, const Key& key) {
  const std::vector<std::string>& fields = SpecOf(kind).fields;
  std::string out;
  for (size_t i = 0; i < key.size() && i < fields.size(); ++i) {
    if (key[i].empty()) continue;
    out += (out.empty() ? "" : " ") + fields[i] + "=" + key[i];
  }
  return out;
}

/// The key an entry or ordering cell of a baseline names.
Result<Key> RefKey(Kind kind, const JsonValue& ref) {
  if (!ref.is_object()) {
    return Status::InvalidArgument("baseline entry is not an object");
  }
  Key key;
  for (const std::string& field : SpecOf(kind).fields) {
    const JsonValue* value = ref.Find(field);
    if (value != nullptr && !value->is_string()) {
      return Status::InvalidArgument("baseline key field '" + field +
                                     "' is not a string");
    }
    key.push_back(value != nullptr ? value->string_value : "");
  }
  return key;
}

}  // namespace

const KindSpec& SpecOf(Kind kind) {
  static const KindSpec kSpecs[] = {
      {"report", {"cell", "policy", "z"},
       {{"response_time", 0}, {"wasted_pct", 0.5}, {"utilization_pct", 0.5},
        {"makespan", 0}},
       false},
      {"timeline", {"cell", "policy", "z", "series", "window"},
       {{"min", 0}, {"max", 0}, {"mean", 0}, {"last", 0}, {"count", 2},
        {"p50_max", 0}, {"p90_max", 0}, {"p99_max", 0}},
       false},
      {"profile", {"path"}, {{"count", 2}}, true},
  };
  return kSpecs[static_cast<int>(kind)];
}

const Row* Table::Find(const Key& key) const {
  auto it = std::lower_bound(
      rows.begin(), rows.end(), key,
      [](const Row& row, const Key& k) { return row.key < k; });
  return it != rows.end() && it->key == key ? &*it : nullptr;
}

Result<uint64_t> ReadInt(const JsonValue& obj, std::string_view key,
                         const std::string& where) {
  const JsonValue* value = obj.Find(key);
  double x = value != nullptr && value->is_number() ? value->number_value
                                                    : -1.0;
  // 0x1p64 = 2^64 is the first double a uint64_t cannot hold; NaN fails
  // every comparison.
  if (!(x >= 0.0 && x < 0x1p64 && x == std::floor(x))) {
    return Bad(where, "'" + std::string(key) + "' is not an integer in "
                      "[0, 2^64)");
  }
  return static_cast<uint64_t>(x);
}

Result<JsonValue> LoadJson(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IoError("cannot open " + path);
  std::string text;
  char buf[1 << 16];
  for (size_t n; (n = std::fread(buf, 1, sizeof(buf), f)) > 0;) {
    text.append(buf, n);
  }
  bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) return Status::IoError("read error on " + path);
  Result<JsonValue> doc = json::JsonParse(text);
  if (!doc.ok()) return Bad(path, doc.status().message());
  return doc;
}

Result<Table> ReadTable(Kind kind, const JsonValue& doc, std::string source) {
  if (!doc.is_object()) return Bad(source, "document is not a JSON object");
  Table table;
  table.source = std::move(source);
  const JsonValue* info = doc.Find("info");
  table.driver = kind == Kind::kTimeline ? doc.StringOr("driver", "")
                 : info != nullptr       ? info->StringOr("driver", "")
                                         : "";
  using Reader = Status (*)(const JsonValue&, Table*);
  static const Reader kReaders[] = {ReadReport, ReadTimeline, ReadProfile};
  DMR_RETURN_NOT_OK(kReaders[static_cast<int>(kind)](doc, &table));
  return table;
}

Result<Table> LoadTable(Kind kind, const std::string& path) {
  DMR_ASSIGN_OR_RETURN(JsonValue doc, LoadJson(path));
  return ReadTable(kind, doc, path);
}

Result<BaselineReport> CheckBaseline(Kind kind, const JsonValue& baseline,
                                     const std::vector<Table>& runs) {
  const JsonValue* tolerances = baseline.Find("tolerances");
  if (!baseline.is_object() ||
      (tolerances != nullptr && !tolerances->is_object())) {
    return Status::InvalidArgument(
        "baseline or its tolerances is not a JSON object");
  }
  static const JsonValue kNone;  // an absent list: no items
  const JsonValue* entries = baseline.Find("entries");
  const JsonValue* orderings = baseline.Find("orderings");
  entries = entries != nullptr ? entries : &kNone;
  orderings = orderings != nullptr ? orderings : &kNone;
  if (!(entries == &kNone || entries->is_array()) ||
      !(orderings == &kNone || orderings->is_array())) {
    return Status::InvalidArgument("baseline entries or orderings is not "
                                   "an array");
  }
  const JsonValue* balanced = baseline.Find("require_balanced");
  bool require_balanced = balanced != nullptr && balanced->bool_value;
  if (entries->items.empty() && orderings->items.empty() &&
      !require_balanced) {
    return Status::InvalidArgument(
        "baseline checks nothing: no entries, orderings or "
        "require_balanced");
  }
  std::string driver = baseline.StringOr("driver", "");
  BaselineReport report;
  // `metric` of the row `key` names in `run`; a missing row or an
  // unknown metric is a failure.
  auto value = [&](const Table& run, const Key& key,
                   const std::string& metric) -> const double* {
    const Row* row = run.Find(key);
    auto it = row != nullptr ? row->metrics.find(metric) : Metrics::const_iterator();
    if (row != nullptr && it != row->metrics.end()) return &it->second;
    report.failures.push_back(
        run.source + ": " + run.driver + " " + KeyText(kind, key) +
        (row == nullptr ? ": baseline row not found"
                        : ": unknown metric '" + metric + "'"));
    return nullptr;
  };
  bool matched = false;
  char buf[256];
  for (const Table& run : runs) {
    if (!driver.empty() && run.driver != driver) continue;
    matched = true;
    double imbalances = Get(run.info, "imbalances");
    report.entries_checked += require_balanced;
    if (require_balanced && imbalances != 0.0) {
      report.failures.push_back(run.source + ": timer-stack imbalances = " +
                                Int(imbalances) + " (expected 0)");
    }
    for (const JsonValue& entry : entries->items) {
      DMR_ASSIGN_OR_RETURN(Key key, RefKey(kind, entry));
      const JsonValue* metrics = entry.Find("metrics");
      if (metrics == nullptr || !metrics->is_object() ||
          metrics->members.empty()) {
        return Status::InvalidArgument("baseline entry " + KeyText(kind, key) +
                                       " has no metrics object");
      }
      for (const auto& [metric, base] : metrics->members) {
        if (!base.is_number()) {
          return Status::InvalidArgument("baseline metric '" + metric +
                                         "' is not a number");
        }
        const double* actual = value(run, key, metric);
        if (actual == nullptr) continue;
        ++report.entries_checked;
        DMR_ASSIGN_OR_RETURN(Tolerance tol, ToleranceOf(tolerances, metric));
        double budget = 0.0;
        double delta = *actual - base.number_value;
        bool pass = InBand(*actual, base.number_value, tol, &budget);
        if (pass && delta == 0.0) continue;
        std::snprintf(buf, sizeof(buf),
                      pass ? "%s drifted %.3g (within tolerance %.3g)"
                           : "%s = %.6g vs baseline %.6g (|delta| %.3g > "
                             "tolerance %.3g)",
                      metric.c_str(), pass ? delta : *actual,
                      pass ? budget : base.number_value, std::fabs(delta),
                      budget);
        (pass ? report.notes : report.failures)
            .push_back(run.source + ": " + run.driver + " " +
                       KeyText(kind, key) + ": " + buf);
      }
    }
    for (const JsonValue& ordering : orderings->items) {
      const JsonValue* metric = ordering.Find("metric");
      const JsonValue* cells = ordering.Find("cells");
      if (metric == nullptr || !metric->is_string() ||
          metric->string_value.empty() || cells == nullptr ||
          !cells->is_array() || cells->items.size() < 2) {
        return Status::InvalidArgument(
            "malformed ordering: it needs a metric name and two or more "
            "cells");
      }
      ++report.orderings_checked;
      const double* prev = nullptr;
      std::string prev_key;
      for (const JsonValue& ref : cells->items) {
        DMR_ASSIGN_OR_RETURN(Key key, RefKey(kind, ref));
        const double* current = value(run, key, metric->string_value);
        if (prev != nullptr && current != nullptr && *current + 1e-9 < *prev) {
          std::snprintf(buf, sizeof(buf), " (%.6g) < %s (%.6g)", *current,
                        prev_key.c_str(), *prev);
          report.failures.push_back(run.source + ": ordering violated for " +
                                    metric->string_value + ": " +
                                    KeyText(kind, key) + buf);
        }
        prev = current;
        prev_key = KeyText(kind, key);
      }
    }
  }
  if (!matched) {
    report.failures.push_back("no input run has driver '" + driver + "'");
  }
  return report;
}

std::string EmitBaseline(Kind kind, const std::vector<Table>& runs,
                         double rel) {
  const KindSpec& spec = SpecOf(kind);
  std::string driver;
  for (const Table& run : runs) {
    if (driver.empty()) driver = run.driver;
  }
  std::string out = "{\n  \"kind\": " + JsonQuote(spec.name) +
                    ",\n  \"driver\": " + JsonQuote(driver) + ",\n";
  if (spec.require_balanced) out += "  \"require_balanced\": true,\n";
  out += "  \"tolerances\": {";
  for (size_t i = 0; i < spec.bands.size(); ++i) {
    const Band& band = spec.bands[i];
    out += (i > 0 ? ", " : "") + JsonQuote(band.metric) + ": " +
           (band.abs > 0.0
                ? "{\"rel\": " + JsonNumber(rel) +
                      ", \"abs\": " + JsonNumber(band.abs) + "}"
                : JsonNumber(rel));
  }
  out += "},\n  \"entries\": [";
  std::set<Key> seen;
  bool first = true;
  for (const Table& run : runs) {
    for (const Row& row : run.rows) {
      std::string metrics;
      for (const Band& band : spec.bands) {
        auto it = row.metrics.find(band.metric);
        if (it == row.metrics.end()) continue;
        metrics += (metrics.empty() ? "" : ", ") + JsonQuote(band.metric) +
                   ": " + JsonNumber(it->second);
      }
      if (metrics.empty() || !seen.insert(row.key).second) continue;
      out += first ? "\n    {" : ",\n    {";
      first = false;
      for (size_t i = 0; i < spec.fields.size(); ++i) {
        out += JsonQuote(spec.fields[i]) + ": " + JsonQuote(row.key[i]) + ", ";
      }
      out += "\"metrics\": {" + metrics + "}}";
    }
  }
  out += first ? "],\n" : "\n  ],\n";
  out += "  \"orderings\": []\n}\n";
  return out;
}

// ---- Markdown views.

namespace {

/// Every key of any run, sorted: the join of the views.
std::vector<Key> JoinKeys(const std::vector<Table>& runs) {
  std::set<Key> keys;
  for (const Table& run : runs) {
    for (const Row& row : run.rows) keys.insert(row.key);
  }
  return std::vector<Key>(keys.begin(), keys.end());
}

/// 8-level unicode sparkline over `values`, downsampled (bucket maxima) to
/// at most `max_chars` glyphs. Constant series render as the lowest bar.
std::string Sparkline(const std::vector<double>& values,
                      size_t max_chars = 32) {
  static const char* kLevels[8] = {"▁", "▂", "▃", "▄",
                                   "▅", "▆", "▇", "█"};
  if (values.empty()) return "-";
  auto [lo, hi] = std::minmax_element(values.begin(), values.end());
  size_t n = values.size();
  size_t buckets = std::min(max_chars, n);
  std::string out;
  for (size_t b = 0; b < buckets; ++b) {
    size_t begin = b * n / buckets;
    size_t end = (b + 1) * n / buckets;
    double v = *std::max_element(values.begin() + begin, values.begin() + end);
    int level = 0;
    if (*hi > *lo) {
      level = std::min(static_cast<int>((v - *lo) / (*hi - *lo) * 8.0), 7);
    }
    out += kLevels[level];
  }
  return out;
}

/// One markdown table row.
std::string MdRow(const std::vector<std::string>& cells) {
  std::string out = "|";
  for (const std::string& cell : cells) out += " " + cell + " |";
  return out + "\n";
}

/// A metric or view number as a %.4g table cell.
std::string Cell(const Metrics& metrics, const char* name) {
  return Fixed(Get(metrics, name));
}

std::string ReportMarkdown(const std::vector<Table>& runs) {
  std::string out = "# dmr-analyze comparison\n\n";
  for (size_t i = 0; i < runs.size(); ++i) {
    out += "- run " + std::to_string(i + 1) + ": `" + runs[i].source +
           "` (driver " + runs[i].driver + ")\n";
  }
  out += "\n| cell | policy | z | run | jobs | response time (s) | "
         "wasted work % | slot util % | makespan (s) | critical path |\n";
  out += "|---|---|---|---|---|---|---|---|---|---|\n";
  for (const Key& key : JoinKeys(runs)) {
    for (size_t i = 0; i < runs.size(); ++i) {
      const Row* row = runs[i].Find(key);
      std::vector<std::string> cells = {key[0], key[1], key[2],
                                        std::to_string(i + 1)};
      if (row == nullptr) {
        cells.insert(cells.end(), 6, "-");
      } else {
        const Metrics& m = row->metrics;
        cells.insert(cells.end(),
                     {Int(Get(row->view, "jobs")), Cell(m, "response_time"),
                      Cell(m, "wasted_pct"), Cell(m, "utilization_pct"),
                      Cell(m, "makespan"), row->text});
      }
      out += MdRow(cells);
    }
  }
  return out;
}

std::string TimelineMarkdown(const std::vector<Table>& runs) {
  std::string out = "# dmr-analyze timeline\n\n";
  for (size_t i = 0; i < runs.size(); ++i) {
    out += "- run " + std::to_string(i + 1) + ": `" + runs[i].source +
           "` (driver " + runs[i].driver + ", interval " +
           Cell(runs[i].info, "interval") + "s)\n";
  }
  for (const Key& cell : JoinKeys(runs)) {
    if (!cell[3].empty()) continue;  // series "" rows head the cells
    const Table& owner = *std::find_if(
        runs.begin(), runs.end(),
        [&](const Table& run) { return run.Find(cell) != nullptr; });
    out += "\n## " + owner.driver + " " + KeyText(Kind::kTimeline, cell) +
           "\n\n";
    std::string probes =
        "| series | kind | run | points | min | mean | max | t@max | last | "
        "spark |\n|---|---|---|---|---|---|---|---|---|---|\n";
    std::string windowed =
        "\n| series | window (s) | run | count | p50 max | p90 max | "
        "p99 max | spark(p99) |\n|---|---|---|---|---|---|---|---|\n";
    std::string totals = "\n";
    for (size_t i = 0; i < runs.size(); ++i) {
      std::string run = std::to_string(i + 1);
      for (const Row& row : runs[i].rows) {
        if (!std::equal(cell.begin(), cell.begin() + 3, row.key.begin()) ||
            row.key[3].empty()) {
          continue;
        }
        const Metrics& m = row.metrics;
        if (row.key[4].empty()) {
          probes += MdRow({row.key[3], row.text, run,
                           Int(Get(row.view, "points")), Cell(m, "min"),
                           Cell(m, "mean"), Cell(m, "max"),
                           Cell(row.view, "t_at_max"), Cell(m, "last"),
                           Sparkline(row.spark)});
        } else {
          windowed += MdRow({row.key[3], row.key[4], run,
                             Int(Get(m, "count")), Cell(m, "p50_max"),
                             Cell(m, "p90_max"), Cell(m, "p99_max"),
                             Sparkline(row.spark)});
        }
      }
      const Row* total = runs[i].Find(cell);
      totals += "- run " + run + ": " +
                (total == nullptr
                     ? std::string("cell missing")
                     : std::to_string(total->repeats) + " repeat(s), " +
                           Int(Get(total->view, "ticks")) + " tick(s), " +
                           Int(Get(total->view, "dropped_ticks")) +
                           " dropped, " +
                           Int(Get(total->view, "slo_breaches")) +
                           " SLO breach(es)") +
                "\n";
    }
    out += probes + windowed + totals;
  }
  return out;
}

std::string ProfileMarkdown(const std::vector<Table>& runs, size_t top_n) {
  std::string out = "# Host profile\n";
  for (const Table& run : runs) {
    out += "\n## " + (run.driver.empty() ? "<no driver>" : run.driver) +
           " (" + run.source + ")\n\n";
    out += "threads merged: " + Int(Get(run.info, "threads")) +
           " · imbalances: " + Int(Get(run.info, "imbalances")) +
           " · calibration: " + Cell(run.info, "calibration_ns") +
           " ns/frame\n\n";
    double self_total = 0.0;
    std::vector<const Row*> ranked;
    for (const Row& row : run.rows) {
      self_total += Get(row.view, "self_ns");
      ranked.push_back(&row);
    }
    std::sort(ranked.begin(), ranked.end(), [](const Row* a, const Row* b) {
      double sa = Get(a->view, "self_ns");
      double sb = Get(b->view, "self_ns");
      return sa != sb ? sa > sb : a->key < b->key;
    });
    if (ranked.size() > top_n) ranked.resize(top_n);
    out += "| phase | count | total ms | self ms | self % | min µs | "
           "max µs |\n|---|---:|---:|---:|---:|---:|---:|\n";
    for (const Row* row : ranked) {
      const Metrics& m = row->metrics;
      double self = Get(row->view, "self_ns");
      out += MdRow({row->key[0], Int(Get(m, "count")), Cell(m, "total_ms"),
                    Cell(m, "self_ms"),
                    Fixed(self_total > 0.0 ? 100.0 * self / self_total : 0.0),
                    Cell(m, "min_us"), Cell(m, "max_us")});
    }
    if (run.rows.size() > top_n) {
      out += "\n(" + std::to_string(run.rows.size() - top_n) +
             " more phases below the top-" + std::to_string(top_n) +
             " self-time cut)\n";
    }
    if (!run.alloc.empty()) {
      out += "\n### Allocation accounting\n\n";
      out += "| site | count | bytes |\n|---|---:|---:|\n";
      for (const Row& site : run.alloc) {
        out += MdRow({site.key[0], Int(Get(site.view, "count")),
                      Int(Get(site.view, "bytes"))});
      }
    }
  }
  if (runs.size() < 2) return out;
  std::vector<std::string> header = {"phase"};
  std::string rule = "|---|";
  for (size_t i = 0; i < runs.size(); ++i) {
    header.push_back("run" + std::to_string(i));
    rule += "---:|";
  }
  out += "\n## Cross-run self time (ms)\n\n" + MdRow(header) + rule + "\n";
  for (const Key& key : JoinKeys(runs)) {
    std::vector<std::string> cells = {key[0]};
    for (const Table& run : runs) {
      const Row* row = run.Find(key);
      cells.push_back(row != nullptr ? Cell(row->metrics, "self_ms") : "-");
    }
    out += MdRow(cells);
  }
  out += "\n";
  for (size_t i = 0; i < runs.size(); ++i) {
    out += "run" + std::to_string(i) + ": " + runs[i].source + "\n";
  }
  return out;
}

}  // namespace

std::string RenderMarkdown(Kind kind, const std::vector<Table>& runs,
                           size_t top_n) {
  if (kind == Kind::kReport) return ReportMarkdown(runs);
  return kind == Kind::kTimeline ? TimelineMarkdown(runs)
                                 : ProfileMarkdown(runs, top_n);
}

std::string RenderCollapsed(const Table& run) {
  std::string out;
  for (const Row& row : run.rows) {
    out += row.key[0] + " " + Int(Get(row.view, "self_ns")) + "\n";
  }
  return out;
}

// ---- validate: the run-level checks across trace, metrics and timeline.

Result<TraceCounts> ReadTrace(const JsonValue& doc, const std::string& source) {
  DMR_ASSIGN_OR_RETURN(const JsonValue* events,
                       Field(doc, "traceEvents", Type::kArray, source));
  TraceCounts counts;
  std::map<std::pair<std::string, std::string>, int64_t> depth;  // async
  for (const JsonValue& event : events->items) {
    std::string ph = event.StringOr("ph", "");
    if (ph == "M") continue;
    if (ph != "X" && ph != "b" && ph != "e" && ph != "i" && ph != "C") {
      return Bad(source, "unknown trace phase '" + ph + "'");
    }
    if (event.Find("ts") == nullptr || event.Find("pid") == nullptr ||
        event.Find("name") == nullptr) {
      return Bad(source, "'" + ph + "' event without ts, pid or name");
    }
    std::string cat = event.StringOr("cat", "");
    if (ph == "X") {
      const JsonValue* dur = event.Find("dur");
      if (event.Find("tid") == nullptr || dur == nullptr ||
          !dur->is_number() || !(dur->number_value >= 0.0)) {
        return Bad(source, "complete span without tid or a nonnegative dur");
      }
      counts.map_spans += cat == "map";
    } else if (ph == "i") {
      counts.provider_instants += cat == "provider";
    } else if (ph != "C") {
      const JsonValue* id = event.Find("id");
      if (id == nullptr || !(id->is_string() || id->is_number())) {
        return Bad(source, "async event without a string or number id");
      }
      int64_t& open =
          depth[{cat, id->is_string() ? "s" + id->string_value
                                      : JsonNumber(id->number_value)}];
      open += ph == "b" ? 1 : -1;
      if (open < 0) return Bad(source, "async end before begin in " + cat);
      counts.job_spans += ph == "b" && cat == "job";
    }
  }
  // Splits and jobs stay open when a driver stops with work in flight;
  // Validate checks the open job spans against the job counters.
  for (const auto& [key, open] : depth) {
    if (key.first == "job") counts.open_job_spans += open;
  }
  return counts;
}

Result<std::string> Validate(const std::string& trace_path,
                             const std::string& metrics_path,
                             const std::string& timeline_path) {
  TraceCounts spans;
  {
    DMR_ASSIGN_OR_RETURN(JsonValue trace, LoadJson(trace_path));
    DMR_ASSIGN_OR_RETURN(spans, ReadTrace(trace, trace_path));
  }
  const std::string& m = metrics_path;
  DMR_ASSIGN_OR_RETURN(JsonValue doc, LoadJson(m));
  DMR_RETURN_NOT_OK(Require(doc, {"info", "ledger", "critical_path"}, m));
  DMR_ASSIGN_OR_RETURN(const JsonValue* counters, Obj(doc, "counters", m));
  DMR_ASSIGN_OR_RETURN(const JsonValue* histograms,
                       Arr(doc, "histograms", m));
  // Maps launched, jobs submitted, maps completed, heartbeats, maps
  // failed, attempts killed, jobs completed.
  uint64_t c[7];
  DMR_RETURN_NOT_OK(Ints(*counters,
                         {"mapred.maps_launched", "mapred.jobs_submitted",
                          "mapred.maps_completed", "mapred.heartbeats",
                          "mapred.maps_failed", "mapred.attempts_killed",
                          "mapred.jobs_completed"},
                         c, m));
  if (c[0] == 0) return Bad(m, "no maps launched; the run recorded nothing");
  for (const char* name :
       {"mapred.task_wait", "mapred.task_run", "mapred.job_response"}) {
    std::string at = m + ": histogram " + name;
    auto h = std::find_if(
        histograms->items.begin(), histograms->items.end(),
        [&](const JsonValue& item) { return item.StringOr("name", "") == name; });
    if (h == histograms->items.end()) return Bad(at, "missing");
    double q[4];
    DMR_RETURN_NOT_OK(Require(*h, {"unit"}, at));
    DMR_RETURN_NOT_OK(Numbers(*h, {"p50", "p95", "p99", "max"}, q, at));
    DMR_ASSIGN_OR_RETURN(uint64_t count, ReadInt(*h, "count", at));
    if (q[0] > q[1] || q[1] > q[2] || q[2] > q[3] ||
        (count == 0 && std::string(name) == "mapred.task_wait")) {
      return Bad(at, "p50 <= p95 <= p99 <= max does not hold, or empty");
    }
  }
  uint64_t decisions = 0;
  for (const char* name :
       {"provider.grows", "provider.waits", "provider.end_of_input"}) {
    if (counters->Find(name) == nullptr) continue;
    DMR_ASSIGN_OR_RETURN(uint64_t n, ReadInt(*counters, name, m));
    decisions += n;
  }
  auto triple = [](uint64_t a, uint64_t b, uint64_t c) {
    return std::to_string(a) + "/" + std::to_string(b) + "/" +
           std::to_string(c);
  };
  // The writer ends a map span with every attempt (a backup's too), and
  // leaves a job span open while the job is in flight.
  const uint64_t ended_attempts = c[2] + c[4] + c[5];
  if (spans.map_spans != ended_attempts || spans.job_spans != c[1] ||
      spans.provider_instants != decisions) {
    return Bad(m, "trace map/job/provider spans " +
                      triple(spans.map_spans, spans.job_spans,
                             spans.provider_instants) +
                      " != ended attempts/jobs submitted/provider "
                      "decisions " +
                      triple(ended_attempts, c[1], decisions));
  }
  if (c[6] > c[1] || spans.open_job_spans != c[1] - c[6]) {
    return Bad(m, "trace has " + std::to_string(spans.open_job_spans) +
                      " open job spans, but " + std::to_string(c[1]) +
                      " jobs submitted and " + std::to_string(c[6]) +
                      " completed");
  }
  DMR_ASSIGN_OR_RETURN(Table report, ReadTable(Kind::kReport, doc, m));
  size_t phases = 0;
  if (doc.Find("prof") != nullptr) {
    DMR_ASSIGN_OR_RETURN(Table prof, ReadTable(Kind::kProfile, doc, m));
    if (prof.rows.empty() || Get(prof.info, "imbalances") != 0.0) {
      return Bad(m, "a clean profiled run records phases and no timer-stack "
                    "imbalances");
    }
    phases = prof.rows.size();
  }
  doc = JsonValue();  // one document in memory at a time
  size_t timeline_rows = 0;
  if (!timeline_path.empty()) {
    DMR_ASSIGN_OR_RETURN(Table timeline,
                         LoadTable(Kind::kTimeline, timeline_path));
    timeline_rows = timeline.rows.size();
  }
  return "validate OK: " +
         triple(spans.map_spans, spans.job_spans, spans.provider_instants) +
         " map/job/provider spans, " + std::to_string(report.rows.size()) +
         " report rows, " + std::to_string(phases) + " prof phases, " +
         std::to_string(timeline_rows) + " timeline rows";
}

}  // namespace dmr::obs::analysis
