#!/usr/bin/env python3
"""Usage: check_layout_pruning.py RUN_A.json RUN_B.json

Two bench_layout_pruning --json runs (e.g. --threads=1 vs --threads=4)
must agree on every cell field except host wall time and the speedup
derived from it (DESIGN.md §16). The driver itself exits 1 when pruning
changes a match count, row count or sample digest.
"""

import json
import sys

VOLATILE = {"wall_ms", "speedup_vs_unpruned"}


def load_cells(path):
    with open(path) as f:
        doc = json.load(f)
    cells = doc["cells"] if isinstance(doc, dict) else doc
    return [{k: v for k, v in cell.items() if k not in VOLATILE}
            for cell in cells]


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    a, b = sys.argv[1], sys.argv[2]
    cells_a, cells_b = load_cells(a), load_cells(b)
    for i, (ca, cb) in enumerate(zip(cells_a, cells_b)):
        if ca != cb:
            sys.exit(f"thread-count variance at cell {i}:\n"
                     f"  {a}: {ca}\n  {b}: {cb}")
    if len(cells_a) != len(cells_b):
        sys.exit(f"cell count differs: {a} has {len(cells_a)}, "
                 f"{b} has {len(cells_b)}")
    print(f"layout_pruning OK: {len(cells_a)} cells identical across runs "
          f"(volatile wall-time fields excluded)")


if __name__ == "__main__":
    main()
