/// \file
/// Tests for the dmr-analyze library: the readers (repeat aggregation,
/// schema invariants, checked integers), the join the views render, the
/// one baseline engine (tolerance bands, orderings, refusal of baselines
/// that check nothing or name unknown metrics, every matching run
/// checked), `validate` over the outputs of small simulated runs, and
/// seeded mutational fuzzing of every document it reads.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/random.h"
#include "obs/analysis.h"
#include "obs/book.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "sampling/sampling_job.h"
#include "testbed/testbed.h"
#include "workload/workload_driver.h"

namespace dmr::obs::analysis {
namespace {

Result<Table> Parse(Kind kind, const std::string& text) {
  DMR_ASSIGN_OR_RETURN(json::JsonValue doc, json::JsonParse(text));
  return ReadTable(kind, doc, "mem");
}

Result<BaselineReport> Check(Kind kind, const std::string& baseline,
                             const std::vector<Table>& runs) {
  DMR_ASSIGN_OR_RETURN(json::JsonValue doc, json::JsonParse(baseline));
  return CheckBaseline(kind, doc, runs);
}

/// Replaces every "$" in `text` with `value`.
std::string Fill(std::string text, double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", value);
  for (size_t at; (at = text.find('$')) != std::string::npos;) {
    text.replace(at, 1, buf);
  }
  return text;
}

/// A minimal Report::ToJson()-shaped document: two repeats of one cell
/// (policy HA) and one cell of policy Hadoop, each with one job.
/// HA: useful 40+60, wasted 10+10; Hadoop: useful 20, wasted 80.
std::string TwoPolicyReport(double hadoop_response) {
  return Fill(R"({
  "info": {"driver": "unit_driver"},
  "ledger": {"cells": [
    {"label": "cell-0000",
     "annotations": {"cell": "c1", "policy": "HA", "z": "1", "repeat": "0"},
     "nodes": 2, "map_slots_per_node": 2, "makespan": 50,
     "total_slot_seconds": 200,
     "categories": {"useful": 40, "wasted": 10, "speculative": 0,
                    "queueing": 50, "provider_wait": 60, "idle": 40},
     "wasted_pct": 20, "utilization_pct": 25, "delay_holds": 1,
     "attempts_completed": 4, "attempts_speculative": 0},
    {"label": "cell-0001",
     "annotations": {"cell": "c1", "policy": "HA", "z": "1", "repeat": "1"},
     "nodes": 2, "map_slots_per_node": 2, "makespan": 50,
     "total_slot_seconds": 200,
     "categories": {"useful": 60, "wasted": 10, "speculative": 10,
                    "queueing": 40, "provider_wait": 50, "idle": 30},
     "wasted_pct": 12.5, "utilization_pct": 40, "delay_holds": 2,
     "attempts_completed": 5, "attempts_speculative": 1},
    {"label": "cell-0002",
     "annotations": {"cell": "c1", "policy": "Hadoop", "z": "1"},
     "nodes": 2, "map_slots_per_node": 2, "makespan": 100,
     "total_slot_seconds": 400,
     "categories": {"useful": 20, "wasted": 80, "speculative": 0,
                    "queueing": 100, "provider_wait": 0, "idle": 200},
     "wasted_pct": 80, "utilization_pct": 25, "delay_holds": 0,
     "attempts_completed": 10, "attempts_speculative": 0}
  ]},
  "critical_path": {"cells": [
    {"label": "cell-0000",
     "annotations": {"cell": "c1", "policy": "HA", "z": "1", "repeat": "0"},
     "analysis": {"jobs": [
       {"job": 1, "finish_time": 50, "response_time": 20, "path_time": 20,
        "root_job": 1, "root_type": "submit",
        "breakdown": {"execution": 15, "queueing": 5},
        "path_truncated": false,
        "path": [{"event": "submit", "t": 30, "job": 1},
                 {"event": "job_completed", "t": 50, "job": 1}]}]}},
    {"label": "cell-0001",
     "annotations": {"cell": "c1", "policy": "HA", "z": "1", "repeat": "1"},
     "analysis": {"jobs": [
       {"job": 1, "finish_time": 50, "response_time": 30, "path_time": 30,
        "root_job": 1, "root_type": "submit",
        "breakdown": {"execution": 25, "queueing": 5},
        "path_truncated": false,
        "path": [{"event": "job_completed", "t": 50, "job": 1}]}]}},
    {"label": "cell-0002",
     "annotations": {"cell": "c1", "policy": "Hadoop", "z": "1"},
     "analysis": {"jobs": [
       {"job": 1, "finish_time": 100, "response_time": $, "path_time": 90,
        "root_job": 1, "root_type": "submit",
        "breakdown": {"execution": 80, "queueing": 10},
        "path_truncated": false,
        "path": [{"event": "job_completed", "t": 100, "job": 1}]}]}}
  ]}
})",
              hadoop_response);
}

std::vector<Table> RunsFor(double hadoop_response) {
  auto run = Parse(Kind::kReport, TwoPolicyReport(hadoop_response));
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  std::vector<Table> runs;
  runs.push_back(*std::move(run));
  return runs;
}

TEST(AnalysisParseTest, AggregatesRepeatsByJoinKey) {
  auto run = Parse(Kind::kReport, TwoPolicyReport(90.0));
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->driver, "unit_driver");
  ASSERT_EQ(run->rows.size(), 2u);  // HA repeats merged, Hadoop separate

  const Row* ha = run->Find({"c1", "HA", "1"});
  ASSERT_NE(ha, nullptr);
  EXPECT_EQ(ha->repeats, 2);
  EXPECT_EQ(ha->view.at("jobs"), 2);
  EXPECT_DOUBLE_EQ(ha->metrics.at("makespan"), 50.0);
  EXPECT_DOUBLE_EQ(ha->metrics.at("response_time"), 25.0);  // (20+30)/2
  // wasted = 20 of busy 130 (useful 100, wasted 20, speculative 10).
  EXPECT_NEAR(ha->metrics.at("wasted_pct"), 100.0 * 20 / 130, 1e-9);
  EXPECT_NEAR(ha->metrics.at("utilization_pct"), 100.0 * 130 / 400, 1e-9);
  // Critical-path seconds: execution 40 and queueing 10 of 50.
  EXPECT_EQ(ha->text, "execution 80% / queueing 20%");

  const Row* hadoop = run->Find({"c1", "Hadoop", "1"});
  ASSERT_NE(hadoop, nullptr);
  EXPECT_NEAR(hadoop->metrics.at("wasted_pct"), 80.0, 1e-9);
}

TEST(AnalysisParseTest, MissingCategoryIsAnError) {
  auto run = Parse(Kind::kReport, R"({
    "info": {"driver": "d"},
    "ledger": {"cells": [
      {"label": "x", "annotations": {}, "nodes": 1, "map_slots_per_node": 1,
       "makespan": 1, "total_slot_seconds": 1, "wasted_pct": 0,
       "utilization_pct": 100, "categories": {"useful": 1}}]}})");
  ASSERT_FALSE(run.ok());
  EXPECT_NE(run.status().message().find("categories"), std::string::npos);
}

TEST(AnalysisParseTest, ReportsWithoutSectionsAreEmptyButValid) {
  auto run = Parse(Kind::kReport, R"({"info": {"driver": "fig4_skew"}})");
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run->rows.empty());
}

TEST(AnalysisRenderTest, MarkdownAndJsonCarryTheJoin) {
  std::vector<Table> runs = RunsFor(90.0);
  std::string markdown = RenderMarkdown(Kind::kReport, runs, 30);
  EXPECT_NE(markdown.find("| c1 | HA | 1 | 1 | 2 | 25 |"), std::string::npos);
  EXPECT_NE(markdown.find("| c1 | Hadoop | 1 |"), std::string::npos);

  // Every ledger cell lands in exactly one row's repeats.
  int joined = 0;
  for (const Row& row : runs[0].rows) joined += row.repeats;
  EXPECT_EQ(joined, 3);

  // The emitted baseline is the table's machine-readable form.
  auto doc = json::JsonParse(EmitBaseline(Kind::kReport, runs, 0.05));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const json::JsonValue* entries = doc->Find("entries");
  ASSERT_NE(entries, nullptr);
  ASSERT_EQ(entries->items.size(), 2u);
  EXPECT_EQ(entries->items[0].StringOr("policy", ""), "HA");
  const json::JsonValue* metrics = entries->items[0].Find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_DOUBLE_EQ(metrics->NumberOr("response_time", -1), 25.0);
}

TEST(BaselineTest, EmittedBaselineChecksClean) {
  std::vector<Table> runs = RunsFor(90.0);
  auto report = Check(Kind::kReport, EmitBaseline(Kind::kReport, runs, 0.05),
                      runs);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok()) << report->failures.front();
  EXPECT_EQ(report->entries_checked, 8);  // 2 cells x 4 metrics
}

TEST(BaselineTest, InjectedSlowdownIsARegression) {
  // Baseline from the healthy run; check a run where the Hadoop cell's
  // response time regressed 2x.
  std::string baseline = EmitBaseline(Kind::kReport, RunsFor(90.0), 0.05);
  auto report = Check(Kind::kReport, baseline, RunsFor(180.0));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->failures.size(), 1u);
  EXPECT_NE(report->failures[0].find("response_time"), std::string::npos);
  EXPECT_NE(report->failures[0].find("Hadoop"), std::string::npos);
}

TEST(BaselineTest, EveryMatchingRunIsChecked) {
  // A clean run first must not hide a slow second run with the same keys.
  std::string baseline = EmitBaseline(Kind::kReport, RunsFor(90.0), 0.05);
  std::vector<Table> runs = RunsFor(90.0);
  runs.push_back(RunsFor(180.0).front());
  runs.back().source = "slow.json";
  auto report = Check(Kind::kReport, baseline, runs);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->failures.size(), 1u);
  EXPECT_EQ(report->failures[0].rfind("slow.json: ", 0), 0u);
  EXPECT_EQ(report->entries_checked, 16);
}

TEST(BaselineTest, OrderingViolationsAreDetected) {
  std::vector<Table> runs = RunsFor(90.0);
  // HA (25s) must not be slower than Hadoop (90s): holds -> no failure.
  auto good = Check(Kind::kReport, R"({
    "driver": "unit_driver",
    "orderings": [{"metric": "response_time", "cells": [
      {"cell": "c1", "policy": "HA", "z": "1"},
      {"cell": "c1", "policy": "Hadoop", "z": "1"}]}]})",
                    runs);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_TRUE(good->ok());
  EXPECT_EQ(good->orderings_checked, 1);

  // The reverse ordering is violated.
  auto bad = Check(Kind::kReport, R"({
    "driver": "unit_driver",
    "orderings": [{"metric": "response_time", "cells": [
      {"cell": "c1", "policy": "Hadoop", "z": "1"},
      {"cell": "c1", "policy": "HA", "z": "1"}]}]})",
                   runs);
  ASSERT_TRUE(bad.ok());
  ASSERT_FALSE(bad->ok());
  EXPECT_NE(bad->failures[0].find("ordering violated"), std::string::npos);
}

TEST(BaselineTest, MissingCellAndWrongDriverFail) {
  std::vector<Table> runs = RunsFor(90.0);
  auto missing = Check(Kind::kReport, R"({
    "driver": "unit_driver",
    "entries": [{"cell": "nope", "policy": "HA", "z": "1",
                 "metrics": {"response_time": 1}}]})",
                       runs);
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(missing->ok());

  auto wrong = Check(Kind::kReport, R"({
    "driver": "other_driver",
    "entries": [{"cell": "c1", "policy": "HA", "z": "1",
                 "metrics": {"response_time": 25}}]})",
                     runs);
  ASSERT_TRUE(wrong.ok());
  ASSERT_FALSE(wrong->ok());
  EXPECT_NE(wrong->failures[0].find("other_driver"), std::string::npos);
}

TEST(BaselineTest, ToleranceBandsAreRespected) {
  std::vector<Table> runs = RunsFor(90.0);
  // Baseline response_time 85 vs actual 90: within rel 0.1 (8.5), noted
  // as drift; with rel 0.01 (0.85) it fails.
  const char* kBaseline = R"({
    "driver": "unit_driver", "tolerances": {"response_time": $},
    "entries": [{"cell": "c1", "policy": "Hadoop", "z": "1",
                 "metrics": {"response_time": 85}}]})";
  auto tight = Check(Kind::kReport, Fill(kBaseline, 0.01), runs);
  ASSERT_TRUE(tight.ok());
  EXPECT_FALSE(tight->ok());

  auto loose = Check(Kind::kReport, Fill(kBaseline, 0.1), runs);
  ASSERT_TRUE(loose.ok());
  EXPECT_TRUE(loose->ok());
  EXPECT_FALSE(loose->notes.empty());  // drift is surfaced
}

TEST(BaselineTest, BaselinesThatCheckNothingAreRefused) {
  std::vector<Table> runs = RunsFor(90.0);
  for (const char* baseline :
       {"{}", R"({"driver": "unit_driver", "entries": []})",
        R"({"entries": {"cell": "c1"}})", R"({"orderings": {}})", "[]"}) {
    EXPECT_FALSE(Check(Kind::kReport, baseline, runs).ok()) << baseline;
  }
}

TEST(BaselineTest, UnknownMetricsAndMalformedEntriesFail) {
  std::vector<Table> runs = RunsFor(90.0);
  auto misspelled = Check(Kind::kReport, R"({"entries": [
    {"cell": "c1", "policy": "HA", "z": "1",
     "metrics": {"respons_time": 25}}]})",
                          runs);
  ASSERT_TRUE(misspelled.ok());
  ASSERT_FALSE(misspelled->ok());
  EXPECT_NE(misspelled->failures[0].find("respons_time"), std::string::npos);

  for (const char* entry :
       {R"("c1")", R"({"cell": "c1", "policy": "HA", "z": "1"})",
        R"({"cell": "c1", "policy": "HA", "z": "1", "metrics": {}})",
        R"({"cell": 1, "metrics": {"response_time": 25}})",
        R"({"cell": "c1", "policy": "HA", "z": "1",
            "metrics": {"response_time": "25"}})"}) {
    std::string baseline = std::string("{\"entries\": [") + entry + "]}";
    EXPECT_FALSE(Check(Kind::kReport, baseline, runs).ok()) << entry;
  }
}

TEST(BaselineTest, MalformedOrderingsAreRefused) {
  std::vector<Table> runs = RunsFor(90.0);
  for (const char* ordering :
       {R"({"metric": "response_time",
            "cells": [{"cell": "c1", "policy": "HA", "z": "1"}]})",
        R"({"cells": [{"cell": "c1", "policy": "HA", "z": "1"},
                      {"cell": "c1", "policy": "Hadoop", "z": "1"}]})",
        R"({"metric": "response_time", "cells": {}})"}) {
    std::string baseline = std::string("{\"orderings\": [") + ordering + "]}";
    EXPECT_FALSE(Check(Kind::kReport, baseline, runs).ok()) << ordering;
  }
  auto unknown = Check(Kind::kReport, R"({"orderings": [
    {"metric": "respons_time", "cells": [
      {"cell": "c1", "policy": "HA", "z": "1"},
      {"cell": "c1", "policy": "Hadoop", "z": "1"}]}]})",
                       runs);
  ASSERT_TRUE(unknown.ok());
  EXPECT_FALSE(unknown->ok());
}

/// A minimal --timeline document: one cell with one probe series and one
/// windowed series, shaped like Book::TimelineJson. `p99` parameterizes
/// the 10 s window's whole-run p99 maximum so tests can inject a latency
/// regression.
std::string TimelineDoc(double p99) {
  return Fill(R"({
  "driver": "unit_driver",
  "timeline": {
    "interval": 1,
    "windows": [10],
    "cells": [
      {"label": "cell-0000",
       "annotations": {"cell": "c1", "policy": "HA", "z": "1"},
       "timeline": {
         "ticks": 3, "dropped_ticks": 0, "sealed_at": 3,
         "series": [
           {"name": "sim.live", "unit": "events", "kind": "gauge",
            "summary": {"ticks": 3, "min": 1, "max": 9, "mean": 5,
                        "last": 5, "t_at_max": 2},
            "points": [[1, 1, 0], [2, 9, 8], [3, 5, -4]]}],
         "windowed": [
           {"name": "job.latency", "unit": "s",
            "windows": [
              {"window": 10,
               "summary": {"count_max": 4, "p50_max": 2.0,
                           "p90_max": 3.0, "p99_max": $},
               "points": [[1, 2, 1, 1, 2], [2, 4, 2, 3, $],
                          [3, 4, 2, 3, 3]]}]}]},
       "slo": {"rules": [], "breaches": []},
       "flight_recorder": {"capacity": 8, "appended": 0, "dropped": 0,
                           "events": []}}
    ]
  }
})",
              p99);
}

TEST(TimelineBaselineTest, EmittedBaselineChecksCleanAndCatchesRegression) {
  auto healthy = Parse(Kind::kTimeline, TimelineDoc(4.0));
  ASSERT_TRUE(healthy.ok()) << healthy.status().message();
  std::vector<Table> healthy_runs{*healthy};
  std::string baseline = EmitBaseline(Kind::kTimeline, healthy_runs, 0.05);
  auto clean = Check(Kind::kTimeline, baseline, healthy_runs);
  ASSERT_TRUE(clean.ok()) << clean.status().message();
  EXPECT_TRUE(clean->ok()) << clean->failures.front();
  EXPECT_EQ(clean->entries_checked, 8);  // 4 probe + 4 windowed metrics

  // A 3x windowed p99 regression must fail the band.
  auto slow = Parse(Kind::kTimeline, TimelineDoc(12.0));
  ASSERT_TRUE(slow.ok()) << slow.status().message();
  auto report = Check(Kind::kTimeline, baseline, {*slow});
  ASSERT_TRUE(report.ok()) << report.status().message();
  ASSERT_EQ(report->failures.size(), 1u);
  EXPECT_NE(report->failures[0].find("p99_max"), std::string::npos);

  // A missing cell is a failure, not a silent skip.
  auto empty = Parse(Kind::kTimeline, R"({"driver": "unit_driver",
    "timeline": {"interval": 1, "windows": [10], "cells": []}})");
  ASSERT_TRUE(empty.ok()) << empty.status().message();
  auto missing = Check(Kind::kTimeline, baseline, {*empty});
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(missing->ok());
}

TEST(TimelineBaselineTest, MarkdownRendersSeriesAndSparklines) {
  auto run = Parse(Kind::kTimeline, TimelineDoc(4.0));
  ASSERT_TRUE(run.ok()) << run.status().message();
  const std::string markdown = RenderMarkdown(Kind::kTimeline, {*run, *run}, 30);
  EXPECT_NE(markdown.find("| sim.live | gauge | 2 | 3 | 1 | 5 | 9 | 2 | 5 |"),
            std::string::npos);
  // Windowed table: header plus a row whose window column is "10".
  EXPECT_NE(markdown.find("window (s)"), std::string::npos);
  EXPECT_NE(markdown.find("| job.latency | 10 | "), std::string::npos);
  EXPECT_NE(markdown.find("- run 2: 1 repeat(s), 3 tick(s)"),
            std::string::npos);
}

/// A metrics report of a profiled run: "a" spends 40 of its 100 ns in
/// its one child "a;b".
const char* kProfileDoc = R"({"info": {"driver": "unit_driver"},
  "prof": {"calibration_ns": 40.5, "threads": 2, "imbalances": 0,
    "phases": [
      {"path": "a", "count": 2, "total_ns": 100, "self_ns": 60,
       "min_ns": 30, "max_ns": 70},
      {"path": "a;b", "count": $, "total_ns": 40, "self_ns": 40,
       "min_ns": 40, "max_ns": 40}],
    "alloc": [{"site": "sim.arena.chunk", "count": 3, "bytes": 4096}]}})";

/// Chrome trace events: one job, one map span, one provider decision.
const char* kTraceDoc = R"({"traceEvents": [
  {"ph": "M", "name": "process_name", "pid": 0, "args": {"name": "n0"}},
  {"ph": "b", "cat": "job", "id": 1, "name": "job 1", "ts": 0, "pid": 0},
  {"ph": "X", "cat": "map", "name": "map", "ts": 1, "dur": 5, "pid": 0,
   "tid": 1},
  {"ph": "i", "cat": "provider", "name": "grow", "ts": 1, "pid": 0},
  {"ph": "e", "cat": "job", "id": 1, "name": "job 1", "ts": 9, "pid": 0}]})";

TEST(AnalysisReadIntTest, RejectsNegativeFractionalNonFiniteAndOutOfRange) {
  auto doc = json::JsonParse(R"({"ok": 42, "zero": 0, "exact": 9007199254740992,
    "neg": -1, "frac": 0.5, "huge": 1e300, "top": 18446744073709551616,
    "str": "7", "null": null})");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(*ReadInt(*doc, "ok", "t"), 42u);
  EXPECT_EQ(*ReadInt(*doc, "zero", "t"), 0u);
  EXPECT_EQ(*ReadInt(*doc, "exact", "t"), 9007199254740992u);
  for (const char* key : {"neg", "frac", "huge", "top", "str", "null", "no"}) {
    EXPECT_TRUE(ReadInt(*doc, key, "t").status().IsInvalidArgument()) << key;
  }
  json::JsonValue inf;
  inf.kind = json::JsonValue::Kind::kObject;
  inf.members.emplace_back("inf", json::JsonValue());
  inf.members[0].second.kind = json::JsonValue::Kind::kNumber;
  inf.members[0].second.number_value = INFINITY;
  EXPECT_TRUE(ReadInt(inf, "inf", "t").status().IsInvalidArgument());

  // The profile reader takes its counts through it.
  ASSERT_TRUE(Parse(Kind::kProfile, Fill(kProfileDoc, 1)).ok());
  for (double bad : {-1.0, 1e300, 0.5}) {
    EXPECT_FALSE(Parse(Kind::kProfile, Fill(kProfileDoc, bad)).ok()) << bad;
  }
}

// Each reader refuses a document that breaks an invariant of its writer.

TEST(AnalysisSchemaTest, ReportLedgerMustBeExhaustive) {
  std::string doc = TwoPolicyReport(90.0);
  doc.replace(doc.find("\"idle\": 40"), 10, "\"idle\": 41");
  auto run = Parse(Kind::kReport, doc);
  ASSERT_FALSE(run.ok());
  EXPECT_NE(run.status().message().find("exhaustive"), std::string::npos);
}

TEST(AnalysisSchemaTest, TimelineTicksMustStayOnTheCadence) {
  std::string doc = TimelineDoc(4.0);
  doc.replace(doc.find("[3, 5, -4]"), 10, "[4, 5, -4]");
  auto run = Parse(Kind::kTimeline, doc);
  ASSERT_FALSE(run.ok());
  EXPECT_NE(run.status().message().find("cadence"), std::string::npos);
}

TEST(AnalysisSchemaTest, ProfileSelfTimeMustExcludeChildren) {
  std::string doc = Fill(kProfileDoc, 1);
  doc.replace(doc.find("\"self_ns\": 60"), 13, "\"self_ns\": 61");
  auto run = Parse(Kind::kProfile, doc);
  ASSERT_FALSE(run.ok());
  EXPECT_NE(run.status().message().find("children"), std::string::npos);

  auto clean = Parse(Kind::kProfile, Fill(kProfileDoc, 1));
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_EQ(RenderCollapsed(*clean), "a 60\na;b 40\n");
}

TEST(AnalysisSchemaTest, TraceCountsOpenJobSpans) {
  auto doc = json::JsonParse(kTraceDoc);
  ASSERT_TRUE(doc.ok());
  auto counts = ReadTrace(*doc, "t");
  ASSERT_TRUE(counts.ok()) << counts.status().ToString();
  EXPECT_EQ(counts->map_spans, 1u);
  EXPECT_EQ(counts->provider_instants, 1u);
  EXPECT_EQ(counts->job_spans, 1u);
  EXPECT_EQ(counts->open_job_spans, 0u);
  // A job in flight when the run stopped: the reader counts the open span
  // and Validate checks it against the job counters.
  json::JsonValue open = *doc;
  open.members[0].second.items.pop_back();  // drop the job's end event
  counts = ReadTrace(open, "t");
  ASSERT_TRUE(counts.ok()) << counts.status().ToString();
  EXPECT_EQ(counts->job_spans, 1u);
  EXPECT_EQ(counts->open_job_spans, 1u);
  // An end before its begin is still refused.
  json::JsonValue reversed = *doc;
  std::swap(reversed.members[0].second.items[1],
            reversed.members[0].second.items[4]);
  EXPECT_FALSE(ReadTrace(reversed, "t").ok());
}

// ---------------------------------------------------------------------------
// Seeded mutational fuzzing: every reader returns a Status on any input.
// ---------------------------------------------------------------------------

std::string Dump(const json::JsonValue& v) {
  using K = json::JsonValue::Kind;
  char buf[40];
  std::string out;
  switch (v.kind) {
    case K::kNull:
      return "null";
    case K::kBool:
      return v.bool_value ? "true" : "false";
    case K::kNumber:
      std::snprintf(buf, sizeof(buf), "%.17g", v.number_value);
      return buf;
    case K::kString:
      return json::JsonQuote(v.string_value);
    case K::kArray:
      for (const json::JsonValue& item : v.items) {
        out += (out.empty() ? "" : ",") + Dump(item);
      }
      return "[" + out + "]";
    case K::kObject:
      for (const auto& [key, member] : v.members) {
        out += (out.empty() ? "" : ",") + json::JsonQuote(key) + ":" +
               Dump(member);
      }
      return "{" + out + "}";
  }
  return out;
}

void Nodes(json::JsonValue* v, std::vector<json::JsonValue*>* out) {
  out->push_back(v);
  for (json::JsonValue& item : v->items) Nodes(&item, out);
  for (auto& member : v->members) Nodes(&member.second, out);
}

/// One mutant of `seed`: byte flips, a truncation, or one structural edit
/// (a member dropped or duplicated, a number replaced by a negative, a
/// fraction, 1e308 or a string, a node nested deep in arrays).
std::string Mutate(const std::string& seed, Rng* rng) {
  uint64_t op = rng->NextBounded(6);
  if (op == 0) {
    std::string out = seed;
    for (uint64_t i = 0, n = 1 + rng->NextBounded(4); i < n; ++i) {
      out[rng->NextBounded(out.size())] ^=
          static_cast<char>(1 << rng->NextBounded(8));
    }
    return out;
  }
  if (op == 1) return seed.substr(0, rng->NextBounded(seed.size()));
  json::JsonValue doc = json::JsonParse(seed).ValueOrDie();
  std::vector<json::JsonValue*> nodes;
  Nodes(&doc, &nodes);
  std::vector<json::JsonValue*> numbers;
  for (json::JsonValue* node : nodes) {
    if (node->is_number()) numbers.push_back(node);
  }
  json::JsonValue* node = nodes[rng->NextBounded(nodes.size())];
  if (op == 2 || op == 3) {  // drop or duplicate a member or item
    if (!node->members.empty()) {
      size_t at = rng->NextBounded(node->members.size());
      if (op == 2) {
        node->members.erase(node->members.begin() + at);
      } else {
        node->members.push_back(node->members[at]);
      }
    } else if (!node->items.empty()) {
      size_t at = rng->NextBounded(node->items.size());
      if (op == 2) {
        node->items.erase(node->items.begin() + at);
      } else {
        node->items.push_back(node->items[at]);
      }
    }
  } else if (op == 4 && !numbers.empty()) {
    static const double kValues[] = {-1, -0.5, 0.5, 1e308, -1e308, 1e19};
    json::JsonValue* number = numbers[rng->NextBounded(numbers.size())];
    uint64_t pick = rng->NextBounded(7);
    if (pick == 6) {
      number->kind = json::JsonValue::Kind::kString;
      number->string_value = "7";
    } else {
      number->number_value = kValues[pick];
    }
  } else {  // nest the node 1..160 arrays deep (the parser caps at 128)
    for (uint64_t i = 0, depth = 1 + rng->NextBounded(160); i < depth; ++i) {
      json::JsonValue wrap;
      wrap.kind = json::JsonValue::Kind::kArray;
      wrap.items.push_back(std::move(*node));
      *node = std::move(wrap);
    }
  }
  return Dump(doc);
}

TEST(AnalysisFuzzTest, MutantsOfEveryDocumentReturnAStatus) {
  std::vector<Table> report_runs = RunsFor(90.0);
  const std::string kSeeds[] = {
      TwoPolicyReport(90.0), TimelineDoc(4.0), Fill(kProfileDoc, 1),
      kTraceDoc, EmitBaseline(Kind::kReport, report_runs, 0.05)};
  for (size_t s = 0; s < std::size(kSeeds); ++s) {
    Rng rng(0xA11A + s);
    int parsed = 0;
    int accepted = 0;
    for (int i = 0; i < 400; ++i) {
      Result<json::JsonValue> doc =
          json::JsonParse(Mutate(kSeeds[s], &rng));
      if (!doc.ok()) continue;
      ++parsed;
      // Every reader sees every mutant; the verdict counted is the one of
      // the seed's own reader (seeds 0-2 are the three table kinds).
      bool verdict[5];
      for (int k = 0; k < 3; ++k) {
        Kind kind = static_cast<Kind>(k);
        Result<Table> table = ReadTable(kind, *doc, "fuzz");
        verdict[k] = table.ok();
        if (!table.ok()) continue;
        RenderMarkdown(kind, {*table}, 5);
        EmitBaseline(kind, {*table}, 0.05);
        RenderCollapsed(*table);
      }
      verdict[3] = ReadTrace(*doc, "fuzz").ok();
      verdict[4] = CheckBaseline(Kind::kReport, *doc, report_runs).ok();
      accepted += verdict[s];
    }
    // The mutants reach the readers, and both verdicts occur.
    EXPECT_GT(parsed, 100) << "seed " << s;
    EXPECT_GT(accepted, 0) << "seed " << s;
    EXPECT_LT(accepted, parsed) << "seed " << s;
  }
}

// ---------------------------------------------------------------------------
// validate over the trace and metrics report of real simulated runs.
// ---------------------------------------------------------------------------

/// Installs every obs sink a driver installs, for one run; uninstalls on
/// scope exit so a failed assertion cannot leak the global install.
struct ObsRun {
  ObsRun() { Hub::Install(&book); }
  ~ObsRun() { Hub::Uninstall(); }
  Book book{/*trace=*/true};
};

/// Runs LA sampling jobs on the fig5 cluster with obs on and writes the
/// trace and metrics report to `dir`, as a bench driver does. With
/// `stop_at` > 0 two closed-loop users run until then and the run stops
/// with jobs and maps in flight; with 0 one job runs to completion.
void WriteRun(const std::filesystem::path& dir, double stop_at) {
  std::filesystem::create_directories(dir);
  ObsRun obs;
  {
    testbed::Testbed bed(cluster::ClusterConfig::SingleUser());
    auto dataset = testbed::MakeLineItemDataset(&bed.fs(), 5, 0.0, 3);
    ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
    auto policy = *dynamic::PolicyTable::BuiltIn().Find("LA");
    auto make_job = [&](int user, int iteration) {
      sampling::SamplingJobOptions options;
      options.user = "u" + std::to_string(user);
      options.sample_size = 10000;
      options.seed = static_cast<uint64_t>(100 * user + iteration + 1);
      return sampling::MakeSamplingJob(dataset->file,
                                       dataset->matching_per_partition,
                                       policy, options);
    };
    if (stop_at > 0.0) {
      workload::WorkloadDriver driver(&bed.client());
      for (int u = 0; u < 2; ++u) {
        workload::UserSpec user;
        user.name = "u" + std::to_string(u);
        user.job_class = "Sampling";
        user.make_job = [&make_job, u](int iteration) {
          return make_job(u, iteration);
        };
        driver.AddUser(std::move(user));
      }
      auto report = driver.Run({.duration = stop_at, .warmup = 0.0});
      ASSERT_TRUE(report.ok()) << report.status().ToString();
    } else {
      auto submission = make_job(0, 0);
      ASSERT_TRUE(submission.ok());
      auto stats = bed.RunJobToCompletion(*std::move(submission));
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    }
  }  // the testbed seals its ledger cell
  ASSERT_TRUE(obs.book.WriteTrace((dir / "trace.json").string()).ok());
  Report report;
  report.SetInfo("driver", "analysis_test");
  report.SetSnapshot(obs.book.TakeSnapshot());
  report.AddJsonSection("ledger", obs.book.LedgerJson());
  report.AddJsonSection("critical_path", obs.book.CriticalPathJson());
  ASSERT_TRUE(report.WriteJson((dir / "metrics.json").string()).ok());
}

std::filesystem::path RunDir(const char* name) {
  return std::filesystem::temp_directory_path() /
         ("dmr_analysis_test_" + std::to_string(::getpid()) + "_" + name);
}

TEST(AnalysisSchemaTest, RunStoppedWithWorkInFlightValidates) {
  const std::filesystem::path dir = RunDir("inflight");
  WriteRun(dir, /*stop_at=*/150.0);
  const std::string trace = (dir / "trace.json").string();
  const std::string metrics = (dir / "metrics.json").string();
  auto doc = LoadJson(trace);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  auto spans = ReadTrace(*doc, trace);
  ASSERT_TRUE(spans.ok()) << spans.status().ToString();
  auto counters = LoadJson(metrics);
  ASSERT_TRUE(counters.ok()) << counters.status().ToString();
  const json::JsonValue* c = counters->Find("counters");
  ASSERT_NE(c, nullptr);
  // The run really stopped mid-flight: jobs open, maps still running.
  EXPECT_GT(spans->open_job_spans, 0u);
  EXPECT_LT(spans->map_spans, c->NumberOr("mapred.maps_launched", 0.0));
  auto verdict = Validate(trace, metrics, "");
  EXPECT_TRUE(verdict.ok()) << verdict.status().ToString();
  std::filesystem::remove_all(dir);
}

TEST(AnalysisSchemaTest, DrainedRunMissingAJobEndIsRefused) {
  const std::filesystem::path dir = RunDir("drained");
  WriteRun(dir, /*stop_at=*/0.0);
  const std::string trace = (dir / "trace.json").string();
  const std::string metrics = (dir / "metrics.json").string();
  auto verdict = Validate(trace, metrics, "");
  ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();

  auto doc = LoadJson(trace);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  json::JsonValue* events = nullptr;
  for (auto& [key, value] : doc->members) {
    if (key == "traceEvents") events = &value;
  }
  ASSERT_NE(events, nullptr);
  auto job_end = std::find_if(
      events->items.begin(), events->items.end(),
      [](const json::JsonValue& e) {
        return e.StringOr("ph", "") == "e" && e.StringOr("cat", "") == "job";
      });
  ASSERT_NE(job_end, events->items.end());
  events->items.erase(job_end);
  const std::string doctored = (dir / "doctored.json").string();
  std::FILE* f = std::fopen(doctored.c_str(), "w");
  ASSERT_NE(f, nullptr);
  const std::string text = Dump(*doc);
  ASSERT_EQ(std::fwrite(text.data(), 1, text.size(), f), text.size());
  std::fclose(f);
  verdict = Validate(doctored, metrics, "");
  ASSERT_FALSE(verdict.ok());
  EXPECT_NE(verdict.status().ToString().find("open job spans"),
            std::string::npos)
      << verdict.status().ToString();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace dmr::obs::analysis
