#!/usr/bin/env python3
"""Which lines of potshape the benchmark and the command line never run.

    python3 tools/trace_traffic.py

Run from the root of a source checkout.  A line trace (``sys.settrace``,
on frames of ``src/potshape`` only) is on from before the package is
imported.  Under it run:

- perfbench's three workloads at seed 1, one round each, through
  ``perfbench/workloads.py``'s own ``run_pass`` (set-up once, the round,
  its checks and metrics);
- the command line's five subcommands on the reference scenario, each
  with ``--config``: ``build-lut``, ``run`` without and with ``--lut``,
  ``report``, ``design-kernel`` and ``groundstate``.

It then prints, per module, the lines that hold bytecode (the lines of
every code object the module compiles to) and never ran, with their
source, and the totals.  A line listed is a line to look at, not a
verdict: refusals, oracles and safeguards are listed too.

BLAS and OpenMP run on one thread, as in perfbench.  Everything the runs
write goes to a temporary directory that is removed at the end.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "potshape"
WORKLOADS = ("reference", "groundstate-cold", "lut-build")
SEED = 1


def code_lines(path: Path) -> set:
    """Line numbers that hold bytecode in the module at ``path``."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def line_tracer(files):
    """A ``sys.settrace`` function that records, per file in ``files``,
    the lines run in it, and the dict it records them in.  Frames of
    other files get no line events."""
    ran = {f: set() for f in files}

    def tracer(frame, event, arg):
        lines = ran.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    return tracer, ran


def run_workloads(out: Path):
    import workloads

    for name in WORKLOADS:
        wl = workloads.WORKLOADS[name]()
        result = workloads.run_pass(wl, wl.inputs(SEED), 1, out / name, setup_reps=1)
        if result.failures or result.failed:
            raise SystemExit(f"{name}: {result.failed} failed, {result.failures}")


def run_cli(out: Path):
    from potshape import cli, harness

    config = out / "scenario.json"
    config.write_text(json.dumps(harness.scenario_to_dict(harness.ScenarioConfig())))
    c = ["--config", str(config)]
    commands = [
        ["build-lut", *c, "--out", str(out / "lut.json")],
        ["run", *c, "--out", str(out / "run-fresh")],
        ["run", *c, "--lut", str(out / "lut.json"), "--out", str(out / "run")],
        ["report", "--in", str(out / "run")],
        ["design-kernel", *c, "--out", str(out / "kernel.csv")],
        ["groundstate", *c, "--out", str(out / "groundstate.csv")],
    ]
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"potshape {argv[0]} exited with {code}")


def main() -> int:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    # the import system names a module's file by its sys.path entry, so
    # these paths are the frames' own file names
    files = sorted(str(p) for p in PACKAGE.glob("*.py"))
    tracer, ran = line_tracer(files)
    with tempfile.TemporaryDirectory() as tmp:
        sys.settrace(tracer)
        try:
            run_workloads(Path(tmp))
            run_cli(Path(tmp))
        finally:
            sys.settrace(None)
    total = unrun = 0
    for f in files:
        lines = code_lines(Path(f))
        missed = sorted(lines - ran[f])
        total += len(lines)
        unrun += len(missed)
        source = Path(f).read_text().splitlines()
        print(f"{Path(f).name}: {len(missed)} of {len(lines)} lines never ran")
        for n in missed:
            print(f"  {n:5d}  {source[n - 1].strip()}")
    print(f"total: {unrun} of {total} lines that hold bytecode never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
