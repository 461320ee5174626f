#!/usr/bin/env python3
"""The closed loop's trajectory on eleven rows: eight table seeds and three
noise levels.

    python3 tools/trajectory_rows.py

Run from the root of a source checkout.  Each row runs the reference
scenario's 80-iteration ``run_closed_loop``:

- ``seed S`` for table seeds 12345 and 1-7, set through ``loop.seed``.
  Without noise the seed only picks the table, so each row builds its own;
- ``noise X`` for ``measurement.noise_std`` 1e-5, 1e-4 and 1e-3 on the
  reference table (seed 12345).  Their ratios are over the measured
  error, since the run holds no other.

Per row it prints, with e_n the record's error norm:

- e3/e0;
- the breaks, rises of e_n over e_{n-1} by more than 0.1 %, in n = 1-39
  and in n = 41-79 (the dark spots switch on at n = 40);
- the plateau, the median e_n/e0 over n = 20-39, and the floor, the
  median over n = 60-79;
- the solver steps over the run, and the pattern changes, the
  iterations whose mirror pattern differs from the one before;
- a digest of the 80 pattern hashes (the first 12 hex digits of the
  sha256 of their concatenation), which two runs share only if every
  pattern is the same;
- the table hash, the first 12 hex digits of the row's
  ``inputmap.lut_sha256``, so a table redrawn at a seed shows as a table
  change beside the trajectory's.

Two checkouts print the same digests, steps, breaks and changes exactly
when their trajectories choose the same patterns; the ratios then agree
to their printed digits unless the arithmetic under them moved.  BLAS
and OpenMP run on one thread.  The rows take about 6 s on a 2-core host.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (12345, 1, 2, 3, 4, 5, 6, 7)
NOISE = (1e-5, 1e-4, 1e-3)
RISE = 1e-3  # a break is a rise by more than this share


def row(records, table_hash: str) -> dict:
    # numpy loads its BLAS on import, so it is imported only once main has
    # set the thread counts
    import numpy as np

    e = np.array([r.error_norm for r in records])
    ratio = e / e[0]
    rises = e[1:] > e[:-1] * (1.0 + RISE)  # rises[n - 1] compares e_n with e_(n-1)
    hashes = [r.extras["pattern"].sha256() for r in records]
    return {
        "e3/e0": float(ratio[3]),
        "breaks": (int(rises[0:39].sum()), int(rises[40:79].sum())),
        "plateau": float(np.median(ratio[20:40])),
        "floor": float(np.median(ratio[60:80])),
        "steps": sum(r.extras["solver_steps"] for r in records),
        "changes": sum(a != b for a, b in zip(hashes, hashes[1:])),
        "digest": hashlib.sha256("".join(hashes).encode()).hexdigest()[:12],
        "table": table_hash[:12],
    }


def main() -> int:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from potshape import harness, inputmap

    base = harness.ScenarioConfig()
    runs = [(f"seed {s}", dataclasses.replace(base, loop=dataclasses.replace(base.loop, seed=s)))
            for s in SEEDS]
    runs += [
        (f"noise {x:.0e}", dataclasses.replace(
            base, measurement=dataclasses.replace(base.measurement, noise_std=x)))
        for x in NOISE
    ]
    start = time.perf_counter()
    reference_lut = harness.build_scenario_lut(base)
    prepared = harness.prepare(base)
    rows = []
    for name, cfg in runs:
        lut = reference_lut if cfg.loop.seed == base.loop.seed else harness.build_scenario_lut(cfg)
        records = harness.run_closed_loop(cfg, lut=lut, prepared=prepared).records
        rows.append((name, row(records, inputmap.lut_sha256(lut))))
    print("| row | e3/e0 | breaks | plateau | floor | solver steps | pattern changes "
          "| pattern digest | table hash |")
    print("|---|---|---|---|---|---|---|---|---|")
    for name, r in rows:
        print(f"| {name} | {r['e3/e0']:.4f} | {r['breaks'][0]} / {r['breaks'][1]} "
              f"| {r['plateau']:.4f} | {r['floor']:.4f} | {r['steps']:,} | {r['changes']} "
              f"| {r['digest']} | {r['table']} |")
    # the ratios unrounded, for comparisons finer than the table's digits
    print()
    for name, r in rows:
        print(f"{name}: e3/e0 {r['e3/e0']!r}, plateau {r['plateau']!r}, floor {r['floor']!r}")
    print(f"{len(runs)} rows in {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
