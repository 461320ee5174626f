"""The three workloads: inputs from the seed, set-up, timed rounds and checks.

Every call into potshape goes through a module attribute
(``harness.prepare``, not a name imported into this file), so that the
wrappers ``tracing.Tracer`` installs on those attributes see it.

A run sets up ``setup_reps`` times (``setup_s`` is the median), then runs
``rounds(seconds)`` rounds: as many as take ``seconds`` on the sizing
host, at least one.  The count depends on ``seconds`` only, not on how
fast this run happens to go, so every run of a workload measures the
same work.  A round is the same fixed list of operations every time.
All three are closed loops: one caller, each operation starts when the
previous one has returned.

Times are read from a ``speed.SpeedClock``: every time is kept both as
measured and in reference seconds, and the metrics use the latter.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import shutil
from dataclasses import dataclass, field

import numpy as np

from potshape import condensate, harness, inputmap, optics
from potshape.core import RealField1D
from speed import SpeedClock


@contextlib.contextmanager
def phase(tracer, name):
    """Record spans under ``name`` while the block runs (no-op untraced)."""
    if tracer is None:
        yield
        return
    tracer.phase = name
    try:
        yield
    finally:
        tracer.phase = None


@dataclass
class Round:
    """One timed round: its wall time, per-op latencies, and per-op payloads
    (kept for the output checks, which run after timing).  ``wall_s`` and
    ``op_ms`` are in reference seconds, ``measured`` holds the same two
    as measured."""

    wall_s: float
    attempted: int
    op_ms: list
    payload: list
    errors: dict = field(default_factory=dict)  # op index -> repr of the exception
    measured: dict = field(default_factory=dict)  # "wall_s", "op_ms"


def _round(spans, attempted, payload, errors, n_ops) -> Round:
    """A round from consecutive clock readings (measured, reference): the
    first ``n_ops`` intervals are ops, any later ones are not."""
    ms = [[(b[k] - a[k]) * 1e3 for a, b in zip(spans, spans[1:])] for k in (0, 1)]
    walls = [(spans[-1][k] - spans[0][k]) for k in (0, 1)]
    return Round(walls[1], attempted, ms[1][:n_ops], payload, errors,
                 {"wall_s": walls[0], "op_ms": ms[0][:n_ops]})


def gp_residual(phi, v, mu, params, dz) -> float:
    """||(H - mu) phi|| / |mu| with this file's own spectral Laplacian and
    potshape's nonlinearity, so a solver cannot pass by stopping early."""
    k = 2.0 * np.pi * np.fft.fftfreq(len(phi), d=dz)
    lap = np.fft.ifft(-(k**2) * np.fft.fft(phi))
    rho = np.abs(phi) ** 2
    h_phi = -lap / (2.0 * params.mass) + (v + condensate.nonlinearity(rho, params)) * phi
    r = h_phi - mu * phi
    return float(np.sqrt(np.sum(np.abs(r) ** 2) * dz) / abs(mu))


def _lhs(rng, n):
    """n stratified draws in [0, 1): one per stratum, strata shuffled."""
    return (rng.permutation(n) + rng.random(n)) / n


def _timed_ops(items, op, tracer, sw) -> Round:
    """Run ``op`` on each item in turn, timing each call."""
    spans, payload, errors = [], [], {}
    with phase(tracer, "timed"):
        spans.append(sw.read())
        for i, item in enumerate(items):
            try:
                out = op(item)
            except Exception as exc:  # a failed op is counted, not fatal
                out = None
                errors[i] = repr(exc)
            spans.append(sw.read())
            payload.append(out)
    return _round(spans, len(payload), payload, errors, len(payload))


class Reference:
    """The paper's reference run: table build and prepare (set-up), then the
    80-iteration closed loop and export (timed); one op is one learning
    iteration, timed between progress callbacks.

    The table seed stays at the scenario default: over ten table seeds
    the loop took 34k to 62k solver steps, a spread no regression bound
    can sit inside.  The workload seed picks three more iterations
    to export and check on top of the default export set."""

    name = "reference"
    setup_reps = 3
    round_s = 45.0  # loop and export on the sizing host
    DEFAULT_EXPORTS = (0, 1, 2, 3, 4, 39, 40, 41, 45, 60, 79)
    EXTRA_EXPORTS = 3
    TOL = 0.05  # time_to_tol: first record with e_n <= TOL * e_0

    def inputs(self, seed):
        rng = np.random.default_rng([seed, 1])
        base = harness.ScenarioConfig()
        n_it = base.loop.iterations
        others = sorted(set(range(n_it)) - set(self.DEFAULT_EXPORTS))
        extra = rng.choice(others, size=self.EXTRA_EXPORTS, replace=False)
        exports = tuple(sorted(set(self.DEFAULT_EXPORTS) | {int(n) for n in extra}))
        loop = dataclasses.replace(base.loop, export_iterations=exports)
        return {"config": dataclasses.replace(base, loop=loop)}

    def setup(self, inputs):
        cfg = inputs["config"]
        lut = harness.build_scenario_lut(cfg)
        prep = harness.prepare(cfg)
        return {"cfg": cfg, "lut": lut, "prep": prep}

    def run_round(self, state, out_dir, tracer, sw):
        cfg = state["cfg"]
        export_dir = out_dir / "export"
        shutil.rmtree(export_dir, ignore_errors=True)
        spans = []
        errors = {}
        records = ()
        with phase(tracer, "timed"):
            spans.append(sw.read())
            try:
                res = harness.run_closed_loop(
                    cfg, lut=state["lut"], prepared=state["prep"],
                    progress=lambda r: spans.append(sw.read()),
                )
                records = res.records
                harness.export_records(res, export_dir)
            except Exception as exc:  # a failed op is counted, not fatal
                records = tuple(getattr(exc, "records", records))
                errors[len(records)] = repr(exc)
            spans.append(sw.read())
        payload = {"records": records, "export_dir": export_dir}
        # the interval after the last iteration is the export
        return _round(spans, cfg.loop.iterations, [payload], errors, len(spans) - 2)

    def check(self, state, rnd):
        """Failures (text) and the set of failed iteration indices."""
        cfg, prep = state["cfg"], state["prep"]
        p = rnd.payload[0]
        n_it = cfg.loop.iterations
        failures, failed = [], set()
        if rnd.errors:
            failed |= set(range(len(p["records"]), n_it)) or set(cfg.loop.export_iterations)
            failures.append(f"{len(p['records'])} of {n_it} iterations ran: {rnd.errors}")
            return failures, failed
        rep = harness.report(p["export_dir"])
        if not rep["ok"]:
            failures.append(f"report: worst norm mismatch {rep['worst_mismatch']:.3g}")
            failed |= {n for n, _, _, mis in rep["checked"] if mis > 1e-12}
        fields = harness.load_run(p["export_dir"])["fields"]
        z = prep.grid.samples
        for n in cfg.loop.export_iterations:
            pattern = read_pbm(p["export_dir"] / f"pattern_{n:04d}.pbm", cfg.dmd.pixel_pitch)
            e = optics.propagate_full(pattern, prep.beam, cfg.psf, prep.grid)
            tau = harness.inject_disturbances(cfg.disturbances, n).tau(z)
            want = optics.potential_from_field(e, cfg.control.alpha_v).values * tau**2
            got = fields[n]["v_opt"]
            err = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
            if not err <= 1e-9:
                failed.add(n)
                failures.append(f"iteration {n}: exported v_opt differs by {err:.3g} relative")
        return failures, failed

    def metrics(self, state, rounds):
        p = rounds[-1].payload[0]
        records = p["records"]
        e = np.array([r.error_norm for r in records])
        ratio = e / e[0]
        hit = np.flatnonzero(ratio <= self.TOL)
        n_tol = int(hit[0]) if hit.size else len(records)
        t_tol = sum(rounds[-1].op_ms[: n_tol + 1]) / 1e3
        prep = state["prep"]
        params = state["cfg"].condensate
        residuals = [
            gp_residual(np.sqrt(r.extras["rho"]), r.extras["v"], r.mu, params, prep.grid.dz)
            for r in records
        ]
        q = len(records) - len(records) // 4
        return {
            "time_to_tol_s": t_tol,
            "iters_to_tol": n_tol,
            "err_floor_ratio": float(np.median(ratio[q:])),
            "residual_max": max(residuals),
            "lut_residual_mean": float(np.mean([x.residual for x in state["lut"].entries])),
        }, {"tolerance reached": bool(hit.size)}


def read_pbm(path, pitch):
    """Parse the plain (P1) bitmap export_records writes for a mirror pattern."""
    tokens = path.read_text().split()
    if tokens[0] != "P1":
        raise ValueError(f"{path}: not a plain PBM file")
    n_l, n_t = int(tokens[1]), int(tokens[2])
    bits = np.array(tokens[3:], dtype=np.uint8).reshape(n_t, n_l)
    return optics.DmdPattern(bits=bits, pixel_pitch=pitch)


class GroundStateCold:
    """Cold ground_state solves (Thomas-Fermi start, no warm start) on the
    reference grid and solver settings; one op is one solve.

    64 potentials are double wells with v_max x U(0.7, 1.3) and
    k_v x U(0.8, 1.25) on the magnetic trap: an 8 x 8 lattice over the
    two factors, shifted as a whole by a seeded offset.  The step count
    jumps between neighbouring parameters (near-degenerate wells, at low
    v_max, take up to 1,700 steps, most take 150 to 450).  A lattice
    puts the same share of its points in the slow band at every seed;
    one independent draw per cell put between one and ten there, which
    moved the round's eleventh-slowest solve by a fifth.  The other 36 are
    optical potentials from 51-level column inputs scattered by one to
    four table steps around the input that draws the desired double
    well, so they look like the loop's inputs."""

    name = "groundstate-cold"
    setup_reps = 3
    round_s = 16.0
    WELL_CELLS = (8, 8)  # strata over the v_max and k_v factors
    N_INPUTS = 36
    NOISE = (0.02, 0.08)  # column scatter, one to four table steps

    def inputs(self, seed):
        rng = np.random.default_rng([seed, 2])
        n_a, n_b = self.WELL_CELLS
        n = n_a * n_b
        shift_a, shift_b = rng.random(2)
        a = (np.repeat(np.arange(n_a), n_b) + shift_a) / n_a
        b = (np.tile(np.arange(n_b), n_a) + shift_b) / n_b
        n_cols = harness.ScenarioConfig().dmd.n_columns
        lo, hi = self.NOISE
        return {
            "v_max_factor": 0.7 + 0.6 * a,
            "k_v_factor": 0.8 + 0.45 * b,
            "noise_amp": lo + (hi - lo) * _lhs(rng, self.N_INPUTS),
            "noise": rng.standard_normal((self.N_INPUTS, n_cols)),
        }

    def setup(self, inputs):
        cfg = harness.ScenarioConfig()
        grid = cfg.grid.build()
        v_mag = optics.magnetic_potential(cfg.magnetic, cfg.condensate.mass, grid).values
        pots = []
        for a, b in zip(inputs["v_max_factor"], inputs["k_v_factor"]):
            spec = harness.DesiredPotentialSpec(v_max=cfg.desired.v_max * a, k_v=cfg.desired.k_v * b)
            pots.append(harness.desired_potential(spec, grid).values + v_mag)
        beam = optics.calibrate_beam(
            cfg.psf, cfg.beam, cfg.dmd.n_rows, cfg.dmd.pixel_pitch,
            v_max=cfg.desired.v_max, alpha_v=cfg.control.alpha_v, headroom=cfg.control.headroom,
        )
        e_max = optics.e_perp_max(cfg.psf, beam, cfg.dmd.n_rows, cfg.dmd.pixel_pitch)
        cols = optics.column_grid(cfg.dmd.n_columns, cfg.dmd.pixel_pitch)
        # flat-beam input that would draw the desired potential
        v_des = harness.desired_potential(cfg.desired, cols).values
        base = np.sqrt(v_des / (cfg.control.headroom * cfg.desired.v_max)) / beam.pz(cols.samples)
        steps = cfg.lut.n_nu - 1
        quant = []
        for amp, noise in zip(inputs["noise_amp"], inputs["noise"]):
            raw = np.clip(base + amp * noise, 0.0, 1.0)
            nu = np.round(raw * steps) / steps
            quant.append(float(np.mean((raw - nu) ** 2)))
            v_opt = optics.propagate_separable(
                RealField1D(grid=cols, values=nu), beam, cfg.psf, grid, e_max, cfg.control.alpha_v
            )
            pots.append(v_opt.values + v_mag)
        return {
            "cfg": cfg,
            "grid": grid,
            "potentials": [RealField1D(grid=grid, values=v) for v in pots],
            "quantisation_residual": float(np.mean(quant)),
        }

    def run_round(self, state, out_dir, tracer, sw):
        cfg = state["cfg"]
        return _timed_ops(
            state["potentials"],
            lambda pot: condensate.ground_state(pot, cfg.condensate, cfg.solver),
            tracer, sw,
        )

    def check(self, state, rnd):
        failures, failed = [], set()
        dz = state["grid"].dz
        for i, gs in enumerate(rnd.payload):
            if gs is None:
                why = rnd.errors[i]
            elif not gs.converged:
                why = f"not converged after {gs.n_steps} steps"
            else:
                norm = float(np.trapezoid(np.abs(gs.phi.values) ** 2, dx=dz))
                why = None if abs(norm - 1.0) <= 1e-12 else f"norm {norm!r}"
            if why:
                failed.add(i)
                failures.append(f"solve {i}: {why}")
        return failures, failed

    def metrics(self, state, rounds):
        params = state["cfg"].condensate
        dz = state["grid"].dz
        solved = [(gs, pot) for gs, pot in zip(rounds[-1].payload, state["potentials"]) if gs]
        residuals = [gp_residual(gs.phi.values, pot.values, gs.mu, params, dz) for gs, pot in solved]
        op_s = [ms / 1e3 for r in rounds for ms in r.op_ms]
        return {
            "time_to_tol_s": float(np.median(op_s)),
            "iters_to_tol": float(np.median([gs.n_steps for gs, _ in solved])),
            "err_floor_ratio": float(np.median(residuals)),
            "residual_max": max(residuals),
            "lut_residual_mean": state["quantisation_residual"],
        }, {"steps per round": sum(gs.n_steps for gs, _ in solved)}


class LutBuild:
    """build_scenario_lut for the reference optics (51 levels, 100 rows) at
    table seeds derived from the workload seed; one op is one table build.
    Set-up only makes the scenario configurations, so it is repeated
    many times for a steady median."""

    name = "lut-build"
    setup_reps = 51
    round_s = 14.0
    N_TABLES = 5
    SWEEP = 400

    def inputs(self, seed):
        rng = np.random.default_rng([seed, 3])
        return {
            "table_seeds": [int(s) for s in rng.integers(0, 2**31 - 1, size=self.N_TABLES)],
            "sweep": rng.random(self.SWEEP),
        }

    def setup(self, inputs):
        base = harness.ScenarioConfig()
        configs = [
            dataclasses.replace(base, loop=dataclasses.replace(base.loop, seed=s))
            for s in inputs["table_seeds"]
        ]
        return {"configs": configs, "sweep": inputs["sweep"]}

    def run_round(self, state, out_dir, tracer, sw):
        return _timed_ops(state["configs"], harness.build_scenario_lut, tracer, sw)

    def check(self, state, rnd):
        failures, failed = [], set()
        sweep = state["sweep"]
        for i, lut in enumerate(rnd.payload):
            if lut is None:
                failed.add(i)
                failures.append(f"table {i}: {rnd.errors[i]}")
                continue
            levels = np.linspace(0.0, 1.0, lut.n_nu)
            ach = lut.achieved_values()
            why = []
            if np.any(np.diff(ach) < 0):
                why.append("achieved values not monotone")
            worst = float(np.max(np.abs(ach - levels)))
            if worst > 4.0 * 0.05 / (lut.n_nu - 1):
                why.append(f"achieved value {worst:.3g} from its level")
            cols = optics.column_grid(len(sweep), lut.pitch)
            pattern = inputmap.map_virtual_input(RealField1D(grid=cols, values=sweep), lut)
            back = inputmap.invert_pattern(pattern, lut).values
            nearest = levels[np.argmin(np.abs(sweep[:, None] - levels[None, :]), axis=1)]
            if not np.array_equal(back, nearest):
                why.append(f"{int(np.sum(back != nearest))} lookups missed the nearest level")
            if why:
                failed.add(i)
                failures.append(f"table {i}: " + "; ".join(why))
        return failures, failed

    def metrics(self, state, rounds):
        luts = [lut for lut in rounds[-1].payload if lut is not None]
        dev = [abs(e.achieved - e.nu) * (lut.n_nu - 1) for lut in luts for e in lut.entries]
        res = [e.residual for lut in luts for e in lut.entries]
        op_s = [ms / 1e3 for r in rounds for ms in r.op_ms]
        return {
            "time_to_tol_s": float(np.median(op_s)),
            "iters_to_tol": luts[0].n_nu - 2,
            "err_floor_ratio": float(np.median(dev)),
            "residual_max": max(res),
            "lut_residual_mean": float(np.mean(res)),
        }, {}


WORKLOADS = {w.name: w for w in (Reference, GroundStateCold, LutBuild)}


@dataclass
class Pass:
    setup_s: list  # reference seconds
    measured_setup_s: list
    rounds: list
    failures: list
    attempted: int
    failed: int
    extra: dict
    notes: dict


def rounds(wl, seconds) -> int:
    """Rounds in a run of ``seconds``: as many as take that long on the
    sizing host, at least one."""
    return max(1, round(seconds / wl.round_s))


def run_pass(wl, inputs, n_rounds, out_dir, tracer=None, setup_reps=1):
    """Set up ``setup_reps`` times, run ``n_rounds`` rounds, then check
    every round.  A traced pass runs no speed kernel: its times are as
    measured, and its spans hold only the program."""
    out_dir.mkdir(parents=True, exist_ok=True)
    setups, rounds = [], []
    with SpeedClock(enabled=tracer is None) as sw:
        for i in range(setup_reps):
            gc.collect()
            with phase(tracer if i == setup_reps - 1 else None, "setup"):
                t0 = sw.read()
                state = wl.setup(inputs)
                t1 = sw.read()
            setups.append((t1[0] - t0[0], t1[1] - t0[1]))
        for _ in range(n_rounds):
            gc.collect()
            rounds.append(wl.run_round(state, out_dir, tracer, sw))
    failures, attempted, failed = [], 0, 0
    for rnd in rounds:
        f, bad = wl.check(state, rnd)
        failures += f
        attempted += rnd.attempted
        failed += len(bad | set(rnd.errors))
    try:
        extra, notes = wl.metrics(state, rounds)
    except Exception as exc:  # only reachable when ops failed; reported, not fatal
        failures.append(f"metrics: {exc!r}")
        extra, notes = {}, {}
    if sw.samples:
        notes["speed kernel"] = (
            f"{len(sw.samples)} samples, median {np.median(sw.samples) * 1e3:.3f} ms, "
            f"fastest {min(sw.samples) * 1e3:.3f} ms"
        )
    return Pass([s[1] for s in setups], [s[0] for s in setups], rounds, failures,
                attempted, failed, extra, notes)
