#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread on the current code.

Runs two sets of 10 runs of every workload in BENCHMARK.json, each run
with its own seed (1-10) and BENCHMARK.json's run_seconds, all 60 runs
interleaved in one fixed shuffled order (strict alternation can alias with
a periodic host slowdown). For every end-to-end metric it prints, per set,
the median and the quartile spread (Q3 - Q1) / median from
statistics.quantiles(values, n=4), then the shift of set B's median
against set A's. Also checks every run was correct and that runs with the
same workload and seed printed the same simulated-statistics digest.

    python3 perfbench/steadiness.py
"""

import json
import os
import random
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
SHUFFLE_SEED = 0


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    digest = next((l.split()[-1] for l in lines if l.startswith("# digest ")),
                  None)
    return json.loads(lines[-1]), digest


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]

    # Both sets use seeds 1..RUNS: within a set every run has its own seed,
    # and across sets each seed's simulated-statistics digest must repeat.
    order = [(w, s, i) for w in workloads for s in ("A", "B")
             for i in range(RUNS)]
    random.Random(SHUFFLE_SEED).shuffle(order)
    results = {}
    digests = {}
    ok = True
    for n, (workload, side, i) in enumerate(order, 1):
        seed = 1 + i
        result, digest = run_once(workload, seed, bench["run_seconds"])
        results.setdefault((workload, side), []).append(result)
        if digest is not None:
            digests.setdefault((workload, seed), set()).add(digest)
        if not result["correct"] or result["failed"]:
            ok = False
        print("[%d/%d] %s set %s seed %d correct=%s %s" % (
            n, len(order), workload, side, seed, result["correct"],
            " ".join("%s=%.6g" % (k, v["value"])
                     for k, v in result["metrics"].items())),
            file=sys.stderr, flush=True)

    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        for workload in workloads:
            a = [r["metrics"][name]["value"] for r in results[(workload, "A")]]
            b = [r["metrics"][name]["value"] for r in results[(workload, "B")]]
            shift = statistics.median(b) / statistics.median(a) - 1
            print("%-20s %-12s bound %.2f  A median %.6g spread %5.1f%%  "
                  "B median %.6g spread %5.1f%%  B/A shift %+5.1f%%" % (
                      workload, name, bound, statistics.median(a),
                      100 * spread(a), statistics.median(b),
                      100 * spread(b), 100 * shift))
    mismatched = [k for k, v in digests.items() if len(v) > 1]
    print("all runs correct: %s; digests consistent per seed: %s" % (
        ok, not mismatched))
    return 0 if ok and not mismatched else 1


if __name__ == "__main__":
    sys.exit(main())
