#!/usr/bin/env python3
"""Schema check for the observability outputs of a bench driver run.

Usage: check_obs_output.py [--timeline=FILE] [--profile=COLLAPSED] \
           TRACE.json METRICS.json [ANALYSIS.json]

Validates that:
  * the trace file is Chrome trace-event JSON (traceEvents array, known
    phase codes, complete spans carrying ts/dur/pid/tid),
  * async begin/end events balance per (cat, id),
  * there is at least one map-attempt span per launched map (span count
    equals the mapred.maps_launched counter) and one provider-decision
    instant event per provider invocation,
  * the metrics report carries the standard counters and the task-wait
    latency histogram with ordered p50/p95/p99,
  * the report's `ledger` section attributes every slot-second to exactly
    one of the six categories (sum equals nodes x slots x makespan),
  * the report's `critical_path` section carries, per job, a time-ordered
    path whose per-category breakdown sums to the path time,
  * an optional dmr-analyze comparison JSON (third argument) joins the
    same cells the ledger reported,
  * an optional --timeline document carries, per cell, probe and windowed
    series whose retained tick timestamps are strictly monotone and
    gap-free on the sampling cadence, ordered per-point and whole-run
    percentiles, SLO breaches placed inside the run, and a flight
    recorder whose ring arithmetic (appended - dropped == retained,
    retained <= capacity) and sequence ordering hold,
  * with --profile, the metrics report's `prof` section (host phase tree:
    paths sorted, counts positive, self <= total, min <= max, self equal
    to total minus the direct children's totals clamped at zero, zero
    timer-stack imbalances, nonnegative allocation accounting) and the
    driver's collapsed flamegraph file, whose path -> self_ns lines must
    match the JSON section exactly.

Exits non-zero with a message on the first violation.
"""

import json
import sys

KNOWN_PHASES = {"X", "b", "e", "i", "C", "M"}


def fail(message):
    print(f"check_obs_output: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check_trace(path):
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail(f"{path}: expected an object with a traceEvents array")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        fail(f"{path}: traceEvents is not an array")

    async_depth = {}
    stats = {"map_spans": 0, "reduce_spans": 0, "provider_instants": 0,
             "job_spans": 0, "split_spans": 0}
    for event in events:
        ph = event.get("ph")
        if ph not in KNOWN_PHASES:
            fail(f"{path}: unknown phase {ph!r} in {event}")
        if ph == "M":
            continue
        for key in ("ts", "pid", "name"):
            if key not in event:
                fail(f"{path}: {ph} event missing {key!r}: {event}")
        cat = event.get("cat", "")
        if ph == "X":
            if "dur" not in event or "tid" not in event:
                fail(f"{path}: complete span missing dur/tid: {event}")
            if event["dur"] < 0:
                fail(f"{path}: negative span duration: {event}")
            if cat == "map":
                stats["map_spans"] += 1
            elif cat == "reduce":
                stats["reduce_spans"] += 1
        elif ph in ("b", "e"):
            key = (cat, event.get("id"))
            if key[1] is None:
                fail(f"{path}: async event missing id: {event}")
            async_depth[key] = async_depth.get(key, 0) + (1 if ph == "b" else -1)
            if async_depth[key] < 0:
                fail(f"{path}: async end before begin for {key}")
            if ph == "b" and cat == "job":
                stats["job_spans"] += 1
            if ph == "b" and cat == "split":
                stats["split_spans"] += 1
        elif ph == "i":
            if cat == "provider":
                stats["provider_instants"] += 1

    unbalanced = {k: v for k, v in async_depth.items() if v != 0}
    # Splits that never completed (e.g. a driver that stops at end-of-input
    # with maps in flight) legitimately leave open spans; jobs must close.
    open_jobs = [k for k in unbalanced if k[0] == "job"]
    if open_jobs:
        fail(f"{path}: {len(open_jobs)} job spans never ended")
    return stats


def check_metrics(path, trace_stats):
    with open(path) as f:
        doc = json.load(f)
    for section in ("info", "counters", "histograms"):
        if section not in doc:
            fail(f"{path}: missing section {section!r}")
    counters = doc["counters"]
    for name in ("mapred.maps_launched", "mapred.maps_completed",
                 "mapred.jobs_submitted", "mapred.heartbeats"):
        if name not in counters:
            fail(f"{path}: missing counter {name!r}")
    if counters["mapred.maps_launched"] <= 0:
        fail(f"{path}: no maps launched; the run recorded nothing")

    hists = {h.get("name"): h for h in doc["histograms"]}
    for name in ("mapred.task_wait", "mapred.task_run",
                 "mapred.job_response"):
        if name not in hists:
            fail(f"{path}: missing histogram {name!r}")
        h = hists[name]
        for key in ("unit", "count", "p50", "p95", "p99", "max"):
            if key not in h:
                fail(f"{path}: histogram {name} missing {key!r}")
        if not (h["p50"] <= h["p95"] <= h["p99"] <= h["max"]):
            fail(f"{path}: histogram {name} percentiles out of order: {h}")
    if hists["mapred.task_wait"]["count"] <= 0:
        fail(f"{path}: task_wait histogram is empty")

    # Cross-check trace against counters: one span per map attempt, one
    # instant per provider decision (each decision is exactly one of grow,
    # wait and end-of-input).
    if trace_stats["map_spans"] != counters["mapred.maps_launched"]:
        fail(f"map spans ({trace_stats['map_spans']}) != "
             f"mapred.maps_launched ({counters['mapred.maps_launched']})")
    decisions = sum(counters.get(name, 0) for name in (
        "provider.grows", "provider.waits", "provider.end_of_input"))
    if trace_stats["provider_instants"] != decisions:
        fail(f"provider instants ({trace_stats['provider_instants']}) != "
             f"provider.grows + waits + end_of_input ({decisions})")
    if trace_stats["job_spans"] != counters["mapred.jobs_submitted"]:
        fail(f"job spans ({trace_stats['job_spans']}) != "
             f"mapred.jobs_submitted ({counters['mapred.jobs_submitted']})")
    return counters


LEDGER_CATEGORIES = ("useful", "wasted", "speculative", "queueing",
                     "provider_wait", "idle")


def check_ledger(path, doc):
    """Validates the slot-time ledger section; returns the cell count."""
    if "ledger" not in doc:
        fail(f"{path}: missing section 'ledger'")
    cells = doc["ledger"].get("cells")
    if not isinstance(cells, list):
        fail(f"{path}: ledger.cells is not an array")
    for cell in cells:
        label = cell.get("label", "?")
        for key in ("annotations", "nodes", "map_slots_per_node", "makespan",
                    "total_slot_seconds", "categories", "wasted_pct",
                    "utilization_pct"):
            if key not in cell:
                fail(f"{path}: ledger cell {label} missing {key!r}")
        cats = cell["categories"]
        if set(cats) != set(LEDGER_CATEGORIES):
            fail(f"{path}: ledger cell {label} categories {sorted(cats)} != "
                 f"{sorted(LEDGER_CATEGORIES)}")
        if any(cats[c] < 0 for c in cats):
            fail(f"{path}: ledger cell {label} has a negative category")
        expected = cell["nodes"] * cell["map_slots_per_node"] * cell["makespan"]
        total = cell["total_slot_seconds"]
        tol = 1e-6 * max(1.0, expected)
        if abs(total - expected) > tol:
            fail(f"{path}: ledger cell {label} total_slot_seconds {total} != "
                 f"nodes*slots*makespan {expected}")
        cat_sum = sum(cats.values())
        if abs(cat_sum - total) > tol:
            fail(f"{path}: ledger cell {label} categories sum to {cat_sum}, "
                 f"not the total {total} (ledger is not exhaustive)")
        for pct in ("wasted_pct", "utilization_pct"):
            if not (0.0 <= cell[pct] <= 100.0):
                fail(f"{path}: ledger cell {label} {pct} out of range: "
                     f"{cell[pct]}")
    return len(cells)


def check_critical_path(path, doc):
    """Validates the critical_path section; returns the total job count."""
    if "critical_path" not in doc:
        fail(f"{path}: missing section 'critical_path'")
    cells = doc["critical_path"].get("cells")
    if not isinstance(cells, list):
        fail(f"{path}: critical_path.cells is not an array")
    jobs_total = 0
    for cell in cells:
        label = cell.get("label", "?")
        analysis = cell.get("analysis")
        if not isinstance(analysis, dict) or "jobs" not in analysis:
            fail(f"{path}: critical_path cell {label} missing analysis.jobs")
        for job in analysis["jobs"]:
            jobs_total += 1
            jid = job.get("job", "?")
            for key in ("finish_time", "response_time", "path_time",
                        "breakdown", "path", "path_truncated"):
                if key not in job:
                    fail(f"{path}: critical path of job {jid} in cell "
                         f"{label} missing {key!r}")
            if job["response_time"] < 0 or job["path_time"] < 0:
                fail(f"{path}: job {jid} in cell {label} has a negative "
                     f"response/path time")
            steps = job["path"]
            if not steps:
                fail(f"{path}: job {jid} in cell {label} has an empty path")
            for a, b in zip(steps, steps[1:]):
                if b["t"] < a["t"]:
                    fail(f"{path}: job {jid} in cell {label} path is not "
                         f"time-ordered at t={b['t']}")
            if steps[-1]["event"] != "job_completed":
                fail(f"{path}: job {jid} in cell {label} path does not end "
                     f"at job_completed")
            # The breakdown covers the full (untruncated) path.
            breakdown_sum = sum(job["breakdown"].values())
            if abs(breakdown_sum - job["path_time"]) > \
                    1e-6 * max(1.0, job["path_time"]):
                fail(f"{path}: job {jid} in cell {label} breakdown sums to "
                     f"{breakdown_sum}, not path_time {job['path_time']}")
    return jobs_total


def check_analysis(path, ledger_cells):
    """Validates a dmr-analyze comparison JSON against the report."""
    with open(path) as f:
        doc = json.load(f)
    for section in ("runs", "cells"):
        if section not in doc or not isinstance(doc[section], list):
            fail(f"{path}: missing array section {section!r}")
    if not doc["runs"]:
        fail(f"{path}: no runs in the comparison")
    joined = 0
    for cell in doc["cells"]:
        for key in ("driver", "cell", "policy", "z", "runs"):
            if key not in cell:
                fail(f"{path}: comparison cell missing {key!r}: {cell}")
        if len(cell["runs"]) != len(doc["runs"]):
            fail(f"{path}: comparison cell {cell['cell']} has "
                 f"{len(cell['runs'])} run entries for {len(doc['runs'])} "
                 f"runs")
        for entry in cell["runs"]:
            if entry is None:
                continue
            joined += entry.get("repeats", 0)
            for key in ("response_time", "wasted_pct", "utilization_pct",
                        "makespan", "categories"):
                if key not in entry:
                    fail(f"{path}: comparison entry for {cell['cell']} "
                         f"missing {key!r}")
    if ledger_cells > 0 and joined != ledger_cells:
        fail(f"{path}: comparison joined {joined} ledger cells, report "
             f"emitted {ledger_cells}")
    return len(doc["cells"])


def check_tick_times(path, label, name, times, interval):
    """Retained ring timestamps: strictly monotone, gap-free on the
    sampling cadence (consecutive ticks exactly one interval apart)."""
    tol = 1e-9 * max(1.0, interval)
    for a, b in zip(times, times[1:]):
        if b <= a:
            fail(f"{path}: cell {label} series {name} timestamps not "
                 f"strictly monotone at t={b}")
        if abs((b - a) - interval) > tol:
            fail(f"{path}: cell {label} series {name} has a gap: "
                 f"t={a} -> t={b}, cadence is {interval}s")


def check_timeline_cell(path, cell, interval, windows):
    label = cell.get("label", "?")
    for key in ("annotations", "timeline", "slo", "flight_recorder"):
        if key not in cell:
            fail(f"{path}: timeline cell {label} missing {key!r}")
    tl = cell["timeline"]
    for key in ("ticks", "dropped_ticks", "sealed_at", "series", "windowed"):
        if key not in tl:
            fail(f"{path}: cell {label} timeline missing {key!r}")
    retained = tl["ticks"] - tl["dropped_ticks"]
    if retained < 0:
        fail(f"{path}: cell {label} dropped more ticks than it sampled")

    tick_times = None
    for series in tl["series"]:
        name = series.get("name", "?")
        for key in ("unit", "kind", "summary", "points"):
            if key not in series:
                fail(f"{path}: cell {label} series {name} missing {key!r}")
        if series["kind"] not in ("gauge", "counter"):
            fail(f"{path}: cell {label} series {name} has unknown kind "
                 f"{series['kind']!r}")
        summary = series["summary"]
        for key in ("ticks", "min", "max", "mean", "last", "t_at_max"):
            if key not in summary:
                fail(f"{path}: cell {label} series {name} summary missing "
                     f"{key!r}")
        if summary["ticks"] != tl["ticks"]:
            fail(f"{path}: cell {label} series {name} sampled "
                 f"{summary['ticks']} ticks, cell closed {tl['ticks']}")
        if not (summary["min"] <= summary["mean"] <= summary["max"]):
            fail(f"{path}: cell {label} series {name} summary extrema out "
                 f"of order: {summary}")
        points = series["points"]
        if len(points) != retained:
            fail(f"{path}: cell {label} series {name} retained "
                 f"{len(points)} points, expected {retained}")
        times = [p[0] for p in points]
        check_tick_times(path, label, name, times, interval)
        if tick_times is None:
            tick_times = times
        elif times != tick_times:
            fail(f"{path}: cell {label} series {name} ticks disagree with "
                 f"the cell's other series")
        for p in points:
            if len(p) != 3:
                fail(f"{path}: cell {label} series {name} point is not "
                     f"[t, value, rate]: {p}")
            if not (summary["min"] <= p[1] <= summary["max"]):
                fail(f"{path}: cell {label} series {name} point value "
                     f"{p[1]} outside summary [min, max]")

    for series in tl["windowed"]:
        name = series.get("name", "?")
        if "windows" not in series:
            fail(f"{path}: cell {label} windowed {name} missing 'windows'")
        emitted = [w.get("window") for w in series["windows"]]
        if emitted != windows:
            fail(f"{path}: cell {label} windowed {name} windows {emitted} "
                 f"!= book windows {windows}")
        for w in series["windows"]:
            summary = w.get("summary")
            if not isinstance(summary, dict):
                fail(f"{path}: cell {label} windowed {name} w={w.get('window')}"
                     f" missing summary")
            for key in ("count_max", "p50_max", "p90_max", "p99_max"):
                if key not in summary:
                    fail(f"{path}: cell {label} windowed {name} summary "
                         f"missing {key!r}")
            if not (summary["p50_max"] <= summary["p90_max"]
                    <= summary["p99_max"]):
                fail(f"{path}: cell {label} windowed {name} whole-run "
                     f"percentile maxima out of order: {summary}")
            points = w["points"]
            if len(points) != retained:
                fail(f"{path}: cell {label} windowed {name} retained "
                     f"{len(points)} points, expected {retained}")
            times = [p[0] for p in points]
            check_tick_times(path, label, name, times, interval)
            if tick_times is not None and times != tick_times:
                fail(f"{path}: cell {label} windowed {name} ticks disagree "
                     f"with the cell's probe series")
            for p in points:
                if len(p) != 5:
                    fail(f"{path}: cell {label} windowed {name} point is "
                         f"not [t, count, p50, p90, p99]: {p}")
                if p[1] < 0 or p[1] > summary["count_max"]:
                    fail(f"{path}: cell {label} windowed {name} count "
                         f"{p[1]} outside [0, count_max]")
                if not (p[2] <= p[3] <= p[4]):
                    fail(f"{path}: cell {label} windowed {name} per-point "
                         f"percentiles out of order: {p}")

    slo = cell["slo"]
    for key in ("rules", "breaches"):
        if key not in slo or not isinstance(slo[key], list):
            fail(f"{path}: cell {label} slo missing array {key!r}")
    for rule in slo["rules"]:
        for key in ("name", "series", "window", "quantile", "max",
                    "budget_fraction", "evaluated_ticks", "breached_ticks",
                    "budget_burned"):
            if key not in rule:
                fail(f"{path}: cell {label} slo rule missing {key!r}")
        if rule["breached_ticks"] > rule["evaluated_ticks"]:
            fail(f"{path}: cell {label} slo rule {rule['name']} breached "
                 f"more ticks than it evaluated")
    for breach in slo["breaches"]:
        for key in ("t", "rule", "kind", "measured"):
            if key not in breach:
                fail(f"{path}: cell {label} slo breach missing {key!r}")
        if not 0 <= breach["rule"] < len(slo["rules"]):
            fail(f"{path}: cell {label} slo breach references unknown rule "
                 f"{breach['rule']}")
        if not 0.0 < breach["t"] <= tl["sealed_at"]:
            fail(f"{path}: cell {label} slo breach at t={breach['t']} is "
                 f"outside the run (sealed at {tl['sealed_at']})")

    flight = cell["flight_recorder"]
    for key in ("capacity", "appended", "dropped", "events"):
        if key not in flight:
            fail(f"{path}: cell {label} flight_recorder missing {key!r}")
    events = flight["events"]
    if len(events) > flight["capacity"]:
        fail(f"{path}: cell {label} flight recorder retained more events "
             f"than its capacity")
    if flight["appended"] - flight["dropped"] != len(events):
        fail(f"{path}: cell {label} flight recorder ring arithmetic is "
             f"wrong: {flight['appended']} - {flight['dropped']} != "
             f"{len(events)}")
    for a, b in zip(events, events[1:]):
        if b["seq"] <= a["seq"]:
            fail(f"{path}: cell {label} flight events out of sequence at "
                 f"seq={b['seq']}")
        if b["t"] < a["t"]:
            fail(f"{path}: cell {label} flight events go backwards in time "
                 f"at seq={b['seq']}")
    return len(slo["breaches"])


def check_timeline(path):
    """Validates a --timeline document; returns (cells, breaches)."""
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or "timeline" not in doc:
        fail(f"{path}: expected an object with a timeline section")
    book = doc["timeline"]
    interval = book.get("interval")
    if not isinstance(interval, (int, float)) or interval <= 0:
        fail(f"{path}: timeline interval must be positive")
    windows = book.get("windows")
    if not isinstance(windows, list) or any(w <= 0 for w in windows):
        fail(f"{path}: timeline windows must be positive")
    cells = book.get("cells")
    if not isinstance(cells, list):
        fail(f"{path}: timeline.cells is not an array")
    breaches = 0
    for cell in cells:
        breaches += check_timeline_cell(path, cell, interval, windows)
    return len(cells), breaches


def check_profile(metrics_path, doc, collapsed_path):
    """Validates the prof section + the collapsed file; returns the phase
    count."""
    if "prof" not in doc:
        fail(f"{metrics_path}: missing section 'prof' (run with --profile)")
    prof = doc["prof"]
    for key in ("calibration_ns", "threads", "imbalances", "phases", "alloc"):
        if key not in prof:
            fail(f"{metrics_path}: prof missing {key!r}")
    if prof["calibration_ns"] < 0:
        fail(f"{metrics_path}: negative calibration {prof['calibration_ns']}")
    if prof["threads"] < 1:
        fail(f"{metrics_path}: prof merged {prof['threads']} threads")
    if prof["imbalances"] != 0:
        fail(f"{metrics_path}: {prof['imbalances']} timer-stack imbalances "
             f"in a clean run")
    phases = prof["phases"]
    if not phases:
        fail(f"{metrics_path}: prof recorded no phases")
    by_path = {}
    for phase in phases:
        path = phase.get("path")
        if not path:
            fail(f"{metrics_path}: prof phase without a path: {phase}")
        if path in by_path:
            fail(f"{metrics_path}: duplicate prof phase {path}")
        for key in ("count", "total_ns", "self_ns", "min_ns", "max_ns"):
            if key not in phase or phase[key] < 0:
                fail(f"{metrics_path}: prof phase {path} bad {key!r}")
        if phase["count"] == 0:
            fail(f"{metrics_path}: prof phase {path} has zero count")
        if phase["self_ns"] > phase["total_ns"]:
            fail(f"{metrics_path}: prof phase {path} self > total")
        if phase["min_ns"] > phase["max_ns"]:
            fail(f"{metrics_path}: prof phase {path} min > max")
        by_path[path] = phase
    if sorted(by_path) != [p["path"] for p in phases]:
        fail(f"{metrics_path}: prof phases are not sorted by path")
    for path, phase in by_path.items():
        children_total = sum(
            c["total_ns"] for p, c in by_path.items()
            if p.startswith(path + ";") and ";" not in p[len(path) + 1:])
        expected_self = max(phase["total_ns"] - children_total, 0)
        if phase["self_ns"] != expected_self:
            fail(f"{metrics_path}: prof phase {path} self_ns "
                 f"{phase['self_ns']} != total - direct children "
                 f"({expected_self})")
    seen_sites = set()
    for stat in prof["alloc"]:
        site = stat.get("site")
        if not site or site in seen_sites:
            fail(f"{metrics_path}: bad/duplicate prof alloc site: {stat}")
        seen_sites.add(site)
        if stat.get("count", -1) < 0 or stat.get("bytes", -1) < 0:
            fail(f"{metrics_path}: prof alloc {site} has negative counters")

    with open(collapsed_path) as f:
        lines = f.read().splitlines()
    collapsed = {}
    for line in lines:
        path, _, value = line.rpartition(" ")
        if not path or not value.isdigit():
            fail(f"{collapsed_path}: malformed collapsed line {line!r}")
        collapsed[path] = int(value)
    if list(collapsed) != sorted(collapsed):
        fail(f"{collapsed_path}: collapsed paths are not sorted")
    json_view = {p: ph["self_ns"] for p, ph in by_path.items()}
    if collapsed != json_view:
        fail(f"{collapsed_path}: collapsed stacks disagree with the prof "
             f"section of {metrics_path}")
    return len(phases)


def main():
    argv = sys.argv[1:]
    timeline_path = None
    profile_path = None
    positional = []
    for arg in argv:
        if arg.startswith("--timeline="):
            timeline_path = arg[len("--timeline="):]
        elif arg.startswith("--profile="):
            profile_path = arg[len("--profile="):]
        elif arg.startswith("--"):
            print(__doc__, file=sys.stderr)
            sys.exit(2)
        else:
            positional.append(arg)
    if len(positional) not in (2, 3):
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    trace_stats = check_trace(positional[0])
    counters = check_metrics(positional[1], trace_stats)
    with open(positional[1]) as f:
        metrics_doc = json.load(f)
    ledger_cells = check_ledger(positional[1], metrics_doc)
    cp_jobs = check_critical_path(positional[1], metrics_doc)
    analysis_cells = 0
    if len(positional) == 3:
        analysis_cells = check_analysis(positional[2], ledger_cells)
    timeline_cells = breaches = 0
    if timeline_path:
        timeline_cells, breaches = check_timeline(timeline_path)
    prof_phases = 0
    if profile_path:
        prof_phases = check_profile(positional[1], metrics_doc, profile_path)
    print(f"check_obs_output: OK "
          f"({trace_stats['map_spans']} map spans, "
          f"{trace_stats['provider_instants']} provider decisions, "
          f"{counters['mapred.maps_launched']} maps launched, "
          f"{ledger_cells} ledger cells, {cp_jobs} critical paths, "
          f"{analysis_cells} joined cells, {timeline_cells} timeline "
          f"cells, {breaches} SLO breaches, {prof_phases} prof phases)")


if __name__ == "__main__":
    main()
