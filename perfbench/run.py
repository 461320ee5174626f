#!/usr/bin/env python3
"""potshape benchmark: one command, three seeded workloads, checked outputs.

    python3 perfbench/run.py --workload reference --seed 1 --seconds 12 --trace 0

Runs from the root of a source checkout and imports potshape from its
``src`` directory.  ``--trace 0`` measures the end-to-end metrics with no
wrappers installed.  ``--trace 1`` runs the workload untraced, then again
with every layer function wrapped, and reports the per-layer metrics of
the traced pass plus the difference in wall time.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
A copy of the result with the machine record goes to
``perfbench/out/<workload>-seed<seed>/``; spans of a traced run too.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("reference", "groundstate-cold", "lut-build")


def _one_thread():
    """Run BLAS and OpenMP on one thread; must run before numpy is imported.

    The workloads are one caller doing one thing at a time.  A second
    BLAS thread gains about a fifth on the largest product (the 2700 x
    3200 matrix-vector product in ``propagate_full``) but makes every
    product wait for the slower of two cores, and on a shared host the
    other core is often busy with someone else's work: its time then
    measures the neighbours, not the program."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _import_package() -> bool:
    """Import potshape from this checkout's sources; False if they are missing."""
    src = ROOT / "src"
    if not (src / "potshape" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    import potshape

    return Path(potshape.__file__).resolve().parent == (src / "potshape").resolve()


def _print_metrics(values, specs, notes):
    for name, (unit, _) in specs.items():
        if name in values:
            note = notes.get(name, "")
            print(f"  {name:<56} {values[name]:>16.6g} {unit:<6} {note}")


def main(argv=None) -> int:
    args = _parse(argv)
    _one_thread()
    if not _import_package():
        print(f"perfbench: no potshape sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import metrics
    import tracing
    import workloads

    machine = metrics.machine_record()
    wl = workloads.WORKLOADS[args.workload]()
    inputs = wl.inputs(args.seed)
    out_dir = HERE / "out" / f"{args.workload}-seed{args.seed}"
    counter = tracing.WarningCounter()
    logging.getLogger("potshape").addHandler(counter)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("machine " + json.dumps(machine, sort_keys=True))
    reps = wl.setup_reps if args.trace == 0 else 1
    n_rounds = workloads.rounds(wl, args.seconds)
    plain = workloads.run_pass(wl, inputs, n_rounds, out_dir / "plain", setup_reps=reps)
    passes = [plain]
    values, notes = metrics.end_to_end(plain)
    specs = metrics.END_TO_END
    if args.trace:
        counter.counts.clear()
        tracer = tracing.Tracer(run_id=f"{args.workload}-seed{args.seed}").install()
        try:
            traced = workloads.run_pass(wl, inputs, n_rounds, out_dir / "traced", tracer=tracer)
        finally:
            tracer.uninstall()
        passes.append(traced)
        tracer.write(out_dir / "spans.jsonl")
        values, functions = metrics.per_layer(tracer, counter.counts, plain, traced)
        specs = metrics.PER_LAYER
        print("per function (timed part):")
        for name, f in sorted(functions.items(), key=lambda kv: -kv[1]["s"]):
            print(f"  {name:<56} calls {f['calls']:>8}  s {f['s']:>10.4f}  self_s {f['self_s']:>10.4f}")
        print("warnings by kind: " + json.dumps(dict(counter.counts), sort_keys=True))

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    failures = [f for p in passes for f in p.failures]
    print("metrics:")
    _print_metrics(values, specs, notes)
    print(f"  {'fail_ratio':<56} {failed / attempted:>16.6g} {'1':<6} {failed} of {attempted} ops")
    for k, v in plain.notes.items():
        print(f"  note: {k}: {v}")
    print("checks: " + ("all passed" if not failures else f"{len(failures)} failed"))
    for f in failures:
        print(f"  FAIL {f}")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, (u, _) in specs.items() if k in values},
    }
    record = {"args": vars(args), "machine": machine, "failures": failures,
              "notes": {**notes, **plain.notes},
              "rounds": [{"wall_s": r.wall_s, "op_ms": r.op_ms, "measured": r.measured}
                         for r in plain.rounds],
              "setup_s": plain.setup_s, "measured_setup_s": plain.measured_setup_s, **result}
    with open(out_dir / f"result-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
