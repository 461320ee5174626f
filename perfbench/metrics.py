"""Metric names, the tail-percentile rule and the machine record."""

from __future__ import annotations

import glob
import os
import platform
import re
import resource
import statistics

import numpy as np
import scipy
import scipy.fft

import tracing
from tracing import LAYERS

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# End-to-end metrics, printed with --trace 0: name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "op_ms_p50": ("ms", "lower"),
    "op_ms_tail": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "time_to_tol_s": ("s", "lower"),
    "iters_to_tol": ("count", "lower"),
    "err_floor_ratio": ("1", "lower"),
    "residual_max": ("1", "lower"),
    "lut_residual_mean": ("1", "lower"),
}

# Warning kinds as tracing.warning_kind names the call sites that exist
# today; any other kind is still counted in warnings.total and printed.
WARNING_KINDS = (
    "condensate.grid_spacing_exceeds_healing",
    "condensate.imaginary_time_relaxation_converged",
    "harness.iteration_warm_start_stalled",
    "harness.look_table_built_different",
)


def _per_layer() -> dict:
    out = {}
    for layer in LAYERS:
        out[f"{layer}.s"] = ("s", "lower")
        out[f"{layer}.self_s"] = ("s", "lower")
        out[f"{layer}.calls"] = ("count", "lower")
    for layer in LAYERS:
        out[f"setup.{layer}.s"] = ("s", "lower")
    out.update({
        "condensate.ground_state.steps": ("count", "lower"),
        "condensate.ground_state.us_per_step": ("us", "lower"),
        "condensate.ground_state.converged_ratio": ("1", "higher"),
        "condensate.chemical_potential.s": ("s", "lower"),
        "condensate.thomas_fermi_density.s": ("s", "lower"),
        "optics.propagate_full.s": ("s", "lower"),
        "optics.propagate_full.calls": ("count", "lower"),
        "optics.psf_evals": ("count", "lower"),
        "optics.bytes": ("B", "lower"),
        "inputmap.build_lut.s": ("s", "lower"),
        "inputmap.solve_pattern.calls": ("count", "lower"),
        "inputmap.map_virtual_input.s": ("s", "lower"),
        "ilc.update.s": ("s", "lower"),
        "ilc.clamps": ("count", "lower"),
        "harness.export_records.s": ("s", "lower"),
        "harness.export_bytes": ("B", "lower"),
        "warnings.total": ("count", "lower"),
    })
    for kind in WARNING_KINDS:
        out[f"warnings.{kind}"] = ("count", "lower")
    out.update({
        "trace.overhead_s": ("s", "lower"),
        "trace.coverage": ("1", "higher"),
        "trace.spans": ("count", "lower"),
    })
    return out


PER_LAYER = _per_layer()


def tail(samples) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  With n samples the value
    is the eleventh largest, the (n - 10)/n percentile.  Below eleven
    samples no such percentile exists and the maximum is returned, with
    percentile 100 and none beyond.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n < 11:
        return xs[-1], 100.0, 0
    value = xs[n - 11]
    beyond = sum(1 for x in xs if x > value)
    return value, 100.0 * (n - 10) / n, beyond


def median(xs) -> float:
    return float(statistics.median(xs))


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return ""


def machine_record() -> dict:
    """What a result depends on beyond the code: cores, CPU, caches,
    interpreter and library versions, and thread counts."""
    model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind, size = (_read(os.path.join(d, f)) for f in ("level", "type", "size"))
        if level and size:
            caches[f"L{level}{'' if kind == 'Unified' else kind[:1].lower()}"] = size
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor() or platform.machine(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "fft_workers": scipy.fft.get_workers(),
    }


def end_to_end(pas) -> tuple[dict, dict]:
    """End-to-end values of one untraced pass, and notes to print with them."""
    ops = [ms for r in pas.rounds for ms in r.op_ms]
    tail_ms, pct, beyond = tail(ops)
    values = {
        "setup_s": median(pas.setup_s),
        "wall_s": median([r.wall_s for r in pas.rounds]),
        "op_ms_p50": median(ops),
        "op_ms_tail": tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **pas.extra,
    }
    measured = [r.measured for r in pas.rounds]
    measured_ops = [ms for m in measured for ms in m["op_ms"]]
    notes = {
        "setup_s": f"median of {len(pas.setup_s)} set-ups; measured "
                   f"{median(pas.measured_setup_s):.4g}",
        "wall_s": "median of rounds " + ", ".join(f"{r.wall_s:.3f}" for r in pas.rounds)
                  + "; measured " + ", ".join(f"{m['wall_s']:.3f}" for m in measured),
        "op_ms_p50": f"{len(ops)} ops; measured {median(measured_ops):.4g}",
        "op_ms_tail": f"p{pct:g}, {beyond} samples beyond, {len(ops)} ops; measured "
                      f"{tail(measured_ops)[0]:.4g}",
    }
    return values, notes


def per_layer(tracer, warning_counts, plain, traced) -> tuple[dict, dict]:
    """Per-layer values from the spans of the traced pass, and the
    per-function summary of its timed part."""
    timed = tracing.summarise([s for s in tracer.spans if s.phase == "timed"])
    setup = tracing.summarise([s for s in tracer.spans if s.phase == "setup"])
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0, "counts": {}}
    out = {}
    for layer in LAYERS:
        lay = timed["layers"].get(layer, zero)
        out[f"{layer}.s"] = lay["s"]
        out[f"{layer}.self_s"] = lay["self_s"]
        out[f"{layer}.calls"] = lay["calls"]
    for layer in LAYERS:
        out[f"setup.{layer}.s"] = setup["layers"].get(layer, zero)["s"]

    def fn(name):
        return timed["functions"].get(name, zero)

    gs = fn("condensate.ground_state")
    steps = gs["counts"].get("steps", 0)
    pf = fn("optics.propagate_full")
    export = fn("harness.export_records")
    out.update({
        "condensate.ground_state.steps": steps,
        "condensate.ground_state.us_per_step": gs["s"] / steps * 1e6 if steps else 0.0,
        "condensate.ground_state.converged_ratio":
            gs["counts"].get("converged", 0) / gs["calls"] if gs["calls"] else 0.0,
        "condensate.chemical_potential.s": fn("condensate.chemical_potential")["s"],
        "condensate.thomas_fermi_density.s": fn("condensate.thomas_fermi_density")["s"],
        "optics.propagate_full.s": pf["s"],
        "optics.propagate_full.calls": pf["calls"],
        "optics.psf_evals": pf["counts"].get("psf_evals", 0),
        "optics.bytes": pf["counts"].get("bytes", 0),
        "inputmap.build_lut.s": fn("inputmap.build_lut")["s"],
        "inputmap.solve_pattern.calls": fn("inputmap.solve_pattern")["calls"],
        "inputmap.map_virtual_input.s": fn("inputmap.map_virtual_input")["s"],
        "ilc.update.s": fn("ilc.update")["s"],
        "ilc.clamps": fn("ilc.update")["counts"].get("clamps", 0),
        "harness.export_records.s": export["s"],
        "harness.export_bytes": export["counts"].get("export_bytes", 0),
        "warnings.total": sum(warning_counts.values()),
    })
    for kind in WARNING_KINDS:
        out[f"warnings.{kind}"] = warning_counts.get(kind, 0)
    # measured times: the traced pass runs no speed kernel
    wall = [median([r.measured["wall_s"] for r in p.rounds]) for p in (plain, traced)]
    out.update({
        "trace.overhead_s": wall[1] - wall[0],
        "trace.coverage": timed["top_level_s"] / sum(r.measured["wall_s"] for r in traced.rounds),
        "trace.spans": len(tracer.spans),
    })
    return out, timed["functions"]
