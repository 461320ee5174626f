#!/usr/bin/env python3
"""Compare saved benchmark results of two commits, metric by metric.

    python3 perfbench/compare.py BASE_RESULT.json ... -- NEW_RESULT.json ...

Each file is a ``result-trace<t>.json`` that run.py wrote.  Prints, per
workload and metric, the median of each side and the relative change,
with the regression bound from BENCHMARK.json where there is one.
Refuses (exit 2) when the files do not all carry the same machine record:
numbers from different machines are not comparable.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def _load(paths):
    out = []
    for p in paths:
        with open(p) as fh:
            out.append(json.load(fh))
    return out


def _medians(results):
    values = defaultdict(list)
    for r in results:
        for name, m in r["metrics"].items():
            values[(r["args"]["workload"], name)].append(m["value"])
    return {k: statistics.median(v) for k, v in values.items()}


def main(argv) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    base, new = _load(argv[:cut]), _load(argv[cut + 1:])
    if not base or not new:
        print("compare: need at least one result on each side", file=sys.stderr)
        return 2
    machines = {json.dumps(r["machine"], sort_keys=True) for r in base + new}
    if len(machines) != 1:
        print("compare: refusing to compare results from different machines:", file=sys.stderr)
        for m in sorted(machines):
            print("  " + m, file=sys.stderr)
        return 2
    bounds = {}
    spec = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    if spec.is_file():
        bounds = {m["name"]: m["bound"] for m in json.loads(spec.read_text())["end_to_end"]}
    mb, mn = _medians(base), _medians(new)
    print(f"{'workload':<18} {'metric':<44} {'base':>12} {'new':>12} {'change':>8} bound")
    for key in sorted(mb.keys() & mn.keys()):
        b, n = mb[key], mn[key]
        change = (n - b) / b if b else float("nan")
        bound = bounds.get(key[1])
        print(f"{key[0]:<18} {key[1]:<44} {b:>12.6g} {n:>12.6g} {change:>+8.1%} "
              f"{'' if bound is None else format(bound, '.0%')}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
