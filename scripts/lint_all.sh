#!/usr/bin/env bash
# The tier-1 lint gate: dmr-lint v2 over the whole tree against the
# checked-in baseline, plus self-tests that prove the gate can actually
# fail — a seeded unseeded-RNG violation must exit nonzero, a doctored
# baseline (banking debt that does not exist) must exit nonzero, and the
# --format=github annotation output must render. The tree pass is held to
# a wall-clock budget so the linter cannot quietly become the slowest
# stage of tier-1 (override with DMR_LINT_BUDGET_MS).
#
# Usage: scripts/lint_all.sh
set -euo pipefail
cd "$(dirname "$0")/.."

LINT=./build/src/lint/dmr-lint
BASELINE=configs/lint_baseline.json
BUDGET_MS="${DMR_LINT_BUDGET_MS:-15000}"

if [[ ! -x "${LINT}" ]]; then
  echo "lint_all: ${LINT} not built (run the tier-1 build first)" >&2
  exit 2
fi

tmp=$(mktemp -d)
trap 'rm -rf "${tmp}"' EXIT

# 1. The gate itself: every unsuppressed error in src/bench/examples must
#    be accounted for by the baseline (whose entries list is empty — the
#    tree is clean; it exists so future debt is explicit and auditable).
start_ns=$(date +%s%N)
"${LINT}" --fail-on=error --baseline="${BASELINE}" src bench examples
end_ns=$(date +%s%N)
elapsed_ms=$(( (end_ns - start_ns) / 1000000 ))
if (( elapsed_ms > BUDGET_MS )); then
  echo "lint_all: tree lint took ${elapsed_ms} ms, over the" \
       "${BUDGET_MS} ms budget — profile BM_LintFile before raising it" >&2
  exit 1
fi
echo "lint_all: tree lint clean in ${elapsed_ms} ms (budget ${BUDGET_MS} ms)"

# 2. Self-test: a seeded error-level violation must be refused.
if "${LINT}" --fail-on=error \
     tests/lint/fixtures/unseeded_rng.cc > /dev/null 2>&1; then
  echo "lint_all: seeded unseeded-rng violation was accepted — the" \
       "gate is not gating" >&2
  exit 1
fi

# 3. Self-test: a baseline doctored to bank nonexistent debt must be
#    refused (stale entries block, so recorded debt can only shrink).
python3 - "${BASELINE}" "${tmp}/doctored.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
doc["entries"].append(
    {"file": "src/sim/simulation.cc", "check": "unseeded-rng", "count": 3})
json.dump(doc, open(sys.argv[2], "w"))
PY
if "${LINT}" --fail-on=error --baseline="${tmp}/doctored.json" \
     src bench examples > /dev/null 2>&1; then
  echo "lint_all: doctored baseline was accepted — stale entries must" \
       "block" >&2
  exit 1
fi

# 4. The GitHub annotation format must render one ::error per finding.
"${LINT}" --format=github \
  tests/lint/fixtures/wall_clock.cc > "${tmp}/gh.txt" 2>&1 || true
grep -q '^::error file=.*wall_clock\.cc,line=5::\[wall-clock\]' "${tmp}/gh.txt"

echo "lint_all: OK (gate + self-tests)"
