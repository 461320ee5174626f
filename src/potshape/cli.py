"""Command line entry points for the shaping toolbox.

Subcommands:
  build-lut      solve the per-column pattern problems, write the table
  design-kernel  prepare a scenario and export the learning kernel
  groundstate    solve the ground state of the desired (or a file)
                 potential and export density and chemical potential
  run            run the closed loop and export all records
  report         verify an exported run and print a summary

Exit codes: 0 success, 1 bad configuration or input (too large to
allocate or to convert to a float included), 2 solver failure, 3 file
system trouble.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys

import numpy as np

from . import harness, inputmap
from .condensate import ConvergenceError, ground_state
from .core import RealField1D, SpatialGrid1D
from .harness import ConfigError, ScenarioConfig


def _load_config(args) -> ScenarioConfig:
    if getattr(args, "config", None):
        cfg = harness.load_scenario(args.config)
    else:
        cfg = ScenarioConfig()
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(
            cfg, loop=dataclasses.replace(cfg.loop, seed=args.seed)
        )
    if getattr(args, "iterations", None) is not None:
        cfg = dataclasses.replace(
            cfg, loop=dataclasses.replace(cfg.loop, iterations=args.iterations)
        )
    return cfg


def _cmd_build_lut(args) -> int:
    cfg = _load_config(args)
    lut = harness.build_scenario_lut(cfg)
    inputmap.save_lut(lut, args.out)
    err = np.abs(lut.achieved - lut.nu_levels)
    print(f"wrote {args.out}: {lut.n_nu} entries, n_t={lut.n_t}")
    print(f"worst |achieved - target| = {err.max():.3e}, mean = {err.mean():.3e}")
    return 0


def _cmd_design_kernel(args) -> int:
    cfg = _load_config(args)
    prepared = harness.prepare(cfg)
    k = prepared.kernel
    harness._write_rows(args.out, ("z", "kernel"), (k.kernel.grid.samples, k.kernel.values))
    print(f"wrote {args.out}: {k.kernel.grid.n_points} taps over {k.kernel.grid.length:g} um")
    print(
        f"alpha_bar = {prepared.gain.alpha_bar:.6g}, gamma_nu = {k.gamma:.6g}, "
        f"mu_desired = {prepared.mu_desired:.6g}"
    )
    return 0


def _cmd_groundstate(args) -> int:
    cfg = _load_config(args)
    if args.potential == "desired":
        grid = cfg.grid.build()
        v = harness.desired_potential(cfg.desired, grid)
    else:
        cols = harness._read_rows(args.potential, ("z", "v"))
        n_rows = len(cols["z"])
        if n_rows < 2:
            raise ConfigError(f"{args.potential}: a grid needs two data rows or more, got {n_rows}")
        grid = SpatialGrid1D.from_samples(cols["z"])
        v = RealField1D(grid=grid, values=cols["v"])
    gs = ground_state(v, cfg.condensate, cfg.solver)
    if not gs.converged:
        raise ConvergenceError("ground state did not converge; lower dtau or raise max_steps")
    harness._write_rows(args.out, ("z", "v", "rho"), (grid.samples, v.values, gs.density.values))
    print(f"wrote {args.out}: {grid.n_points} points")
    print(f"mu = {gs.mu:.9g} rad/ms after {gs.n_steps} steps")
    return 0


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    lut = inputmap.load_lut(args.lut) if args.lut else None
    verbose = args.verbose

    def progress(rec):
        if verbose:
            print(
                f"n={rec.n:3d}  |e| = {rec.error_norm:.6e}  mu = {rec.mu:.6g}  "
                f"clamped {rec.clamp_count}"
            )

    result = harness.run_closed_loop(cfg, lut=lut, progress=progress)
    written = harness.export_records(result, args.out)
    norms = [r.error_norm for r in result.records]
    print(f"wrote {len(written)} files to {args.out}")
    print(f"iterations: {len(norms)}")
    print(f"|e| initial = {norms[0]:.6e}, final = {norms[-1]:.6e}, best = {min(norms):.6e}")
    return 0


def _cmd_report(args) -> int:
    summary = harness.report(args.indir)
    print(f"iterations: {summary['iterations']}")
    print(
        f"|e| initial = {summary['initial_norm']:.6e}, "
        f"final = {summary['final_norm']:.6e}, best = {summary['best_norm']:.6e}"
    )
    print(f"final/initial = {summary['reduction_final']:.3e}")
    print("recomputed error norms from the field exports:")
    for n, stored, recomputed, mismatch in summary["checked"]:
        print(f"  n={n:3d}  stored {stored:.9e}  recomputed {recomputed:.9e}")
    if not summary["ok"]:
        print(f"MISMATCH: worst deviation {summary['worst_mismatch']:.3e}", file=sys.stderr)
        return 1
    print(f"norms verified (worst deviation {summary['worst_mismatch']:.3e})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="potshape",
        description="Simulated shaping of optical dipole potentials for a quasi-1d condensate",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="chatty progress output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-lut", help="build the input-to-pattern table")
    p.add_argument("--config", help="scenario JSON (defaults to the reference scenario)")
    p.add_argument("--out", required=True, help="output table path (JSON)")
    p.add_argument("--seed", type=int, help="override the master seed")
    p.set_defaults(func=_cmd_build_lut)

    p = sub.add_parser("design-kernel", help="export the learning kernel as CSV")
    p.add_argument("--config")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_design_kernel)

    p = sub.add_parser("groundstate", help="solve a ground state and export it")
    p.add_argument("--config")
    p.add_argument(
        "--potential",
        default="desired",
        help="'desired' or a CSV file with columns z,v",
    )
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_groundstate)

    p = sub.add_parser("run", help="run the closed loop and export records")
    p.add_argument("--config")
    p.add_argument("--lut", help="table JSON from build-lut (built on the fly if absent)")
    p.add_argument("--iterations", type=int, help="override the iteration count")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="override the master seed")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("report", help="verify and summarise an exported run")
    p.add_argument("--in", dest="indir", required=True, help="run output directory")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OverflowError, MemoryError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
