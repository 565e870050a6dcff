#!/usr/bin/env bash
# Tier-1 verification: full build + test suite, the dmr-lint gate
# (scripts/lint_all.sh: tree lint against configs/lint_baseline.json plus
# gate self-tests and a wall-clock budget), `dmr-analyze validate` over a
# fig5 run's trace + metrics + timeline (and its refusal of a doctored,
# non-exhaustive ledger), the ledger/critical-path baseline gate on
# configs/baselines/smoke.json (and its refusal of a clean run followed by
# a slowed copy), a bench smoke run (micro benchmarks + the Table III
# driver on both predicate engines, asserting identical JSON), the DES
# kernel scale smoke (calendar/heap firing-order digests must agree), the
# tie-shuffle + queue-kind digest invariance check (fig5 metrics AND the
# virtual-time telemetry timelines must be byte-identical across shuffle
# seeds and queue implementations, at the default thread count), the
# metrics + timeline thread-count invariance (fig5, and fig8's multi-user
# Fair-scheduler cells, byte-identical at --threads=1 and --threads=4) +
# dmr-analyze timeline smoke (both fig5 runs checked against a baseline
# emitted from them), the paper-driver
# thread-count invariance (all 14 paper drivers' stdout and --json
# byte-identical at --threads=1 and --threads=4, less the line echoing the
# JSON path), the profiling
# digest-invisibility check plus dmr-analyze profile smoke and
# count-regression gate (banded against configs/baselines/profile_smoke.json),
# the adaptive-layout smoke (the driver asserts pruning changes no match
# count or sample digest; the JSON must not change across thread counts,
# and the simulated cells are banded against configs/baselines/), then the
# concurrency-sensitive tests under ThreadSanitizer and the
# sim/mapred/obs/parser/dataset-reader tests under ASan+UBSan.
#
# Usage: scripts/tier1.sh [--no-tsan] [--no-asan]
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 2)

run_tsan=1
run_asan=1
for arg in "$@"; do
  case "${arg}" in
    --no-tsan) run_tsan=0 ;;
    --no-asan) run_asan=0 ;;
    *) echo "unknown flag: ${arg}" >&2; exit 2 ;;
  esac
done

echo "== tier-1: configure + build (preset: default) =="
cmake --preset default
cmake --build --preset default -j "${jobs}"

echo "== tier-1: full test suite =="
ctest --preset default -j "${jobs}"

echo "== tier-1: dmr-lint gate (baseline + self-tests + wall-clock budget) =="
scripts/lint_all.sh

echo "== tier-1: observability outputs (dmr-analyze validate) =="
obs_dir=$(mktemp -d)
trap 'rm -rf "${obs_dir}"' EXIT
./build/bench/bench_fig5_single_user \
  --trace="${obs_dir}/trace.json" --metrics="${obs_dir}/metrics.json" \
  --timeline="${obs_dir}/timeline.json" \
  --profile="${obs_dir}/profile.collapsed" \
  > "${obs_dir}/stdout.txt"
./build/src/obs/dmr-analyze validate "${obs_dir}/trace.json" \
  "${obs_dir}/metrics.json" "${obs_dir}/timeline.json"
# Doctored inputs: one ledger category moved off its cell's total (the
# ledger is no longer exhaustive), and a copy of the run with every job's
# response time slowed 10x.
python3 - "${obs_dir}/metrics.json" "${obs_dir}/ledger_doctored.json" \
  "${obs_dir}/metrics_slow.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
doc["ledger"]["cells"][0]["categories"]["idle"] += 5.0
json.dump(doc, open(sys.argv[2], "w"))
doc = json.load(open(sys.argv[1]))
for cell in doc["critical_path"]["cells"]:
    for job in cell["analysis"]["jobs"]:
        job["response_time"] *= 10
json.dump(doc, open(sys.argv[3], "w"))
PY
if ./build/src/obs/dmr-analyze validate "${obs_dir}/trace.json" \
     "${obs_dir}/ledger_doctored.json" > /dev/null 2>&1; then
  echo "dmr-analyze validate accepted a non-exhaustive ledger" >&2
  exit 1
fi
echo "dmr-analyze validate refuses a non-exhaustive ledger"

echo "== tier-1: ledger/critical-path baseline (dmr-analyze --baseline) =="
./build/src/obs/dmr-analyze \
  --baseline=configs/baselines/smoke.json "${obs_dir}/metrics.json"
# Every input run is checked: a clean run first must not hide a slow one.
rc=0
./build/src/obs/dmr-analyze --baseline=configs/baselines/smoke.json \
  "${obs_dir}/metrics.json" "${obs_dir}/metrics_slow.json" \
  > /dev/null 2>&1 || rc=$?
if [[ "${rc}" != "1" ]]; then
  echo "baseline gate exited ${rc}, not 1, on a clean run followed by a" \
       "10x-slowed copy" >&2
  exit 1
fi
echo "baseline gate refuses a slowed second run"

echo "== tier-1: bench smoke (micro benchmarks + engine-parity diff) =="
./build/bench/bench_micro --benchmark_min_time=0.01 \
  --benchmark_filter='BM_(PredicateEval|ColumnarConvert)' \
  > "${obs_dir}/micro.txt"
./build/bench/bench_table3_predicates interpreted \
  --json="${obs_dir}/table3_interpreted.json" > /dev/null
./build/bench/bench_table3_predicates vectorized \
  --json="${obs_dir}/table3_vectorized.json" > /dev/null
diff "${obs_dir}/table3_interpreted.json" "${obs_dir}/table3_vectorized.json"
echo "table3 JSON identical on both engines"

echo "== tier-1: DES kernel scale smoke (calendar vs heap digest diff) =="
# The sim_scale driver runs the calendar queue and the heap oracle at 100
# nodes, folds each firing sequence into a digest and exits nonzero unless
# both agree — the order-equivalence contract of DESIGN.md §14 end to end.
./build/bench/bench_sim_scale --nodes=100 \
  --json="${obs_dir}/sim_scale_smoke.json" > /dev/null
echo "sim_scale digests identical across queue kinds"

echo "== tier-1: tie-shuffle + queue-kind digest invariance =="
# The determinism contract (DESIGN.md §13/§14): among events tied on
# (timestamp, EventClass) the handlers must commute, and the calendar
# queue must realize exactly the heap oracle's order — so the full
# metrics + ledger + critical-path report is byte-identical under any
# legal tie order AND either queue implementation.
digest_ref=""
for queue in calendar heap; do
  for seed in base 11 23 37 41 53; do
    args=("--queue=${queue}")
    if [[ "${seed}" != "base" ]]; then args+=("--shuffle-ties=${seed}"); fi
    ./build/bench/bench_fig5_single_user "${args[@]}" \
      --metrics="${obs_dir}/shuffle_${queue}_${seed}.json" \
      --timeline="${obs_dir}/shuffle_tl_${queue}_${seed}.json" > /dev/null
    # One digest over metrics + timeline: the telemetry timelines (probe
    # series, windowed percentiles, SLO verdicts, flight-recorder rings)
    # are part of the same byte-identity contract as the metrics report.
    digest=$(cat "${obs_dir}/shuffle_${queue}_${seed}.json" \
                 "${obs_dir}/shuffle_tl_${queue}_${seed}.json" \
             | sha256sum | cut -d' ' -f1)
    if [[ -z "${digest_ref}" ]]; then
      digest_ref="${digest}"
    elif [[ "${digest}" != "${digest_ref}" ]]; then
      echo "digest mismatch: queue=${queue} seed=${seed} diverged — either" \
           "a handler pair at one virtual instant does not commute or the" \
           "calendar queue broke the firing-order contract" >&2
      exit 1
    fi
  done
done
echo "fig5 metrics+timeline digest identical across {calendar, heap} x {base + 5 shuffle seeds}"

echo "== tier-1: metrics + timeline thread-count invariance + dmr-analyze timeline smoke =="
# The virtual-time timelines sample simulation state only, and the book
# folds each cell's metrics into the run totals order-independently (bucket
# counts, exact histogram sums), so both documents must be byte-identical
# whether the experiment cells run serially or on a worker pool.
for threads in 1 4; do
  ./build/bench/bench_fig5_single_user \
    --threads="${threads}" \
    --metrics="${obs_dir}/metrics_t${threads}.json" \
    --timeline="${obs_dir}/timeline_t${threads}.json" > /dev/null
done
diff "${obs_dir}/metrics_t1.json" "${obs_dir}/metrics_t4.json"
diff "${obs_dir}/timeline_t1.json" "${obs_dir}/timeline_t4.json"
echo "fig5 metrics and timeline byte-identical at --threads=1 and --threads=4"
# fig8 runs the Fair scheduler with delay scheduling on 10-user cells, so
# its ledger, critical paths and timeline cover pools, delay holds and
# remote launches that fig5's single user never reaches. Its metrics
# document is ~41 MB: compare with cmp, not diff.
for threads in 1 4; do
  ./build/bench/bench_fig8_hetero_fair \
    --threads="${threads}" \
    --metrics="${obs_dir}/fig8_metrics_t${threads}.json" \
    --timeline="${obs_dir}/fig8_timeline_t${threads}.json" > /dev/null
done
cmp "${obs_dir}/fig8_metrics_t1.json" "${obs_dir}/fig8_metrics_t4.json"
cmp "${obs_dir}/fig8_timeline_t1.json" "${obs_dir}/fig8_timeline_t4.json"
rm -f "${obs_dir}"/fig8_metrics_t*.json "${obs_dir}"/fig8_timeline_t*.json
echo "fig8 metrics and timeline byte-identical at --threads=1 and --threads=4"
# Two identical runs through the timeline analyzer: the markdown must
# render and an emitted baseline must accept both runs it was built from.
./build/src/obs/dmr-analyze timeline \
  --markdown="${obs_dir}/timeline.md" \
  --emit-baseline="${obs_dir}/timeline_baseline.json" \
  "${obs_dir}/timeline_t1.json" "${obs_dir}/timeline_t4.json" > /dev/null
./build/src/obs/dmr-analyze timeline \
  --baseline="${obs_dir}/timeline_baseline.json" \
  "${obs_dir}/timeline_t1.json" "${obs_dir}/timeline_t4.json" > /dev/null
echo "dmr-analyze timeline markdown + baseline round-trip OK"

echo "== tier-1: paper-driver thread-count invariance (stdout + --json) =="
# Every cell builds its own Testbed from fixed seeds and drivers gather
# results in cell order, so the thread count decides only where a cell
# runs. Each paper driver's stdout (less the line echoing the JSON path)
# and JSON must be byte-identical at --threads=1 and --threads=4.
for driver in fig4_skew fig5_single_user fig6_homogeneous fig7_hetero_fifo \
              fig8_hetero_fair secVF_scheduler table1_policies \
              table2_datasets table3_predicates ablate_grablimit \
              ablate_estimator ablate_eval_interval ablate_locality_wait \
              ablate_adaptive; do
  for threads in 1 4; do
    ./build/bench/bench_"${driver}" --threads="${threads}" \
      --json="${obs_dir}/${driver}_t${threads}.json" \
      | grep -v "^per-cell results written to " \
      > "${obs_dir}/${driver}_t${threads}.txt"
  done
  diff "${obs_dir}/${driver}_t1.txt" "${obs_dir}/${driver}_t4.txt"
  diff "${obs_dir}/${driver}_t1.json" "${obs_dir}/${driver}_t4.json"
done
echo "14 paper drivers: stdout and JSON byte-identical at --threads=1 and --threads=4"

echo "== tier-1: profiling digest invisibility (prof on/off x threads x seeds) =="
# DESIGN.md §17: the prof seam observes host time only, so every simulation
# artifact must be byte-identical whether profiling is enabled or not — at
# any thread count and under any legal tie order.
while read -r threads seed; do
  args=("--threads=${threads}")
  if [[ "${seed}" != "base" ]]; then args+=("--shuffle-ties=${seed}"); fi
  tag="t${threads}_${seed}"
  ./build/bench/bench_fig5_single_user "${args[@]}" \
    --timeline="${obs_dir}/prof_off_${tag}.json" > /dev/null
  ./build/bench/bench_fig5_single_user "${args[@]}" \
    --timeline="${obs_dir}/prof_on_${tag}.json" \
    --profile="${obs_dir}/prof_${tag}.collapsed" > /dev/null
  diff "${obs_dir}/prof_off_${tag}.json" "${obs_dir}/prof_on_${tag}.json"
done <<'CELLS'
1 base
4 base
4 11
4 23
CELLS
echo "fig5 timeline byte-identical profiled vs unprofiled across threads={1,4} and tie seeds"

echo "== tier-1: dmr-analyze profile smoke + regression gate =="
# A profiled fig5 run must round-trip through the analyzer: the markdown
# top-phase table renders, the re-emitted collapsed stacks are byte-equal
# to the driver's own, the checked-in count baseline accepts a fresh run,
# and a seeded 10x count regression is refused with a nonzero exit.
./build/bench/bench_fig5_single_user \
  --metrics="${obs_dir}/prof_metrics.json" \
  --profile="${obs_dir}/prof_fig5.collapsed" > /dev/null
./build/src/obs/dmr-analyze profile --top=10 \
  --markdown="${obs_dir}/profile.md" \
  "${obs_dir}/prof_metrics.json" > /dev/null
grep -q "sim.dispatch" "${obs_dir}/profile.md"
./build/src/obs/dmr-analyze profile \
  --collapsed="${obs_dir}/prof_reemit.collapsed" \
  "${obs_dir}/prof_metrics.json" > /dev/null
diff "${obs_dir}/prof_fig5.collapsed" "${obs_dir}/prof_reemit.collapsed"
./build/src/obs/dmr-analyze profile \
  --baseline=configs/baselines/profile_smoke.json \
  "${obs_dir}/prof_metrics.json"
python3 - "${obs_dir}/prof_metrics.json" "${obs_dir}/prof_doctored.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
for phase in doc["prof"]["phases"]:
    phase["count"] *= 10
json.dump(doc, open(sys.argv[2], "w"))
PY
if ./build/src/obs/dmr-analyze profile \
     --baseline=configs/baselines/profile_smoke.json \
     "${obs_dir}/prof_doctored.json" > /dev/null 2>&1; then
  echo "profile baseline gate accepted a 10x phase-count regression" >&2
  exit 1
fi
echo "dmr-analyze profile markdown + collapsed round-trip + baseline gate OK"

echo "== tier-1: adaptive-layout smoke (pruning invisibility + thread invariance + baseline) =="
# DESIGN.md §16: zone-map pruning and piggybacked indexing must be
# invisible to everything except physical cost. The driver itself asserts
# digest, match and row-count agreement across its pruned/unpruned
# variants in every repetition (exit 1 otherwise); here the checker diffs
# the two thread counts on every field except host wall time. The
# simulated cells are then banded against the checked-in baseline.
for threads in 1 4; do
  ./build/bench/bench_layout_pruning \
    --threads="${threads}" --reps=3 \
    --json="${obs_dir}/layout_t${threads}.json" \
    --metrics="${obs_dir}/layout_metrics_t${threads}.json" > /dev/null
done
python3 scripts/check_layout_pruning.py \
  "${obs_dir}/layout_t1.json" "${obs_dir}/layout_t4.json"
./build/src/obs/dmr-analyze \
  --baseline=configs/baselines/layout_pruning.json \
  "${obs_dir}/layout_metrics_t1.json"

if [[ "${run_tsan}" == "1" ]]; then
  echo "== tier-1: ThreadSanitizer pass (pool + kernel + metrics + book + vectorized + ledger + local runtime tests) =="
  cmake --preset tsan
  cmake --build --preset tsan -j "${jobs}" \
    --target parallel_test simulation_test metrics_test book_test \
             vectorized_test ledger_test queue_equivalence_test timeline_test \
             layout_pruning_test prof_test local_runtime_pin_test \
             local_runtime_test
  ctest --preset tsan
else
  echo "== tier-1: TSan stage skipped (--no-tsan) =="
fi

if [[ "${run_asan}" == "1" ]]; then
  echo "== tier-1: ASan+UBSan pass (sim + mapred + obs + parser + dataset reader tests) =="
  cmake --preset asan
  cmake --build --preset asan -j "${jobs}" \
    --target simulation_test tie_race_test ps_resource_test \
             job_tracker_test job_client_test job_test scheduler_test \
             input_splits_test sampling_input_provider_test \
             adaptive_input_provider_test speculative_execution_test \
             fault_injection_test replication_test control_plane_pin_test \
             obs_integration_test metrics_test book_test trace_test \
             ledger_test analysis_test lint_test \
             lint_diff_test lint_engine_test queue_equivalence_test \
             timeline_test flight_recorder_test layout_pruning_test \
             prof_test grab_limit_expr_test growth_policy_test parser_test \
             dataset_io_test
  ctest --preset asan
else
  echo "== tier-1: ASan stage skipped (--no-asan) =="
fi

echo "== tier-1: OK =="
