"""End-to-end acceptance checks for the reference shaping scenario.

Each test asserts one headline property of the pipeline and records a
one-line pass/fail summary (printed after the run).  The checks run on
the shared session fixtures: the default scenario, its look-up table,
the prepared control design, and the 80-iteration closed-loop run.
"""

import time

import numpy as np
import pytest

from potshape.condensate import (
    CondensateParams,
    SolverConfig,
    ground_state,
    thomas_fermi_density,
)
from potshape.core import RealField1D, SpatialGrid1D, convolve, spectrum
from potshape.harness import (
    IterationRecord,
    build_scenario_lut,
    error_norm,
    export_records,
    level_update,
    run_closed_loop,
)
from potshape.ilc import (
    correction,
    density_error,
    design_kernel,
    transfer_function,
)
from potshape.inputmap import map_virtual_input
from potshape.optics import (
    PsfModel,
    column_grid,
    potential_from_field,
    propagate_full,
    propagate_separable,
)

from conftest import integrate


def test_criterion_1_harmonic_linear_limit(criterion):
    # non-interacting gas in a weak harmonic trap: exact mu = omega/2 and
    # a Gaussian ground density of variance 1/(2 m omega)
    omega = 2.0 * np.pi * 0.007
    params = CondensateParams(scattering_length=0.0)
    grid = SpatialGrid1D(60.0, 1024)
    v = RealField1D(grid=grid, values=0.5 * params.mass * omega**2 * grid.samples**2)
    t0 = time.perf_counter()
    gs = ground_state(v, params, SolverConfig(dtau=0.01, max_steps=60_000, tol=1e-12))
    dt = time.perf_counter() - t0
    mu_err = abs(gs.mu - 0.5 * omega) / (0.5 * omega)
    var = 1.0 / (2.0 * params.mass * omega)
    exact = np.exp(-grid.samples**2 / (2.0 * var))
    exact /= np.trapezoid(exact, dx=grid.dz)
    l2 = float(np.sqrt(np.trapezoid((gs.density.values - exact) ** 2, dx=grid.dz)))
    ok = gs.converged and mu_err < 1e-5 and l2 < 1e-4 and dt < 10.0
    criterion(
        1,
        ok,
        f"harmonic limit: mu rel err {mu_err:.2e}, density L2 err {l2:.2e}, "
        f"{dt:.1f} s at n=1024",
    )


def test_criterion_2_thomas_fermi_agreement(criterion, scenario, reference_prepared):
    # in the occupied bulk the kinetic term is negligible: the TF profile
    # must agree with the full ground state on amplitude level within 5%
    pre = reference_prepared
    rho_tf, _ = thomas_fermi_density(pre.v_desired, scenario.condensate)
    occupied = (pre.mu_desired - pre.v_desired.values) > 0.1 * scenario.condensate.omega_perp
    w = occupied.astype(float)
    diff = np.sqrt(rho_tf.values) - np.sqrt(pre.rho_desired.values)
    num = np.sqrt(np.trapezoid(w * diff**2, dx=pre.grid.dz))
    den = np.sqrt(np.trapezoid(w * pre.rho_desired.values, dx=pre.grid.dz))
    rel = float(num / den)
    ok = rel < 0.05
    criterion(
        2, ok, f"Thomas-Fermi amplitude mismatch {rel:.4f} over the occupied bulk (< 0.05)"
    )


def test_criterion_3_lut_quality(criterion, scenario):
    t0 = time.perf_counter()
    lut = build_scenario_lut(scenario)
    dt = time.perf_counter() - t0
    targets = np.linspace(0.0, 1.0, lut.n_nu)
    err = np.abs(lut.achieved_values() - targets)
    acc = 0.05 / (lut.n_nu - 1)
    n_ok = int(np.count_nonzero(err <= acc))
    monotone = bool(np.all(np.diff(lut.achieved_values()) >= 0.0))
    ok = (
        n_ok >= int(np.ceil(0.9 * lut.n_nu))
        and bool(np.all(err <= 4.0 * acc))
        and monotone
        and dt < 600.0
    )
    criterion(
        3,
        ok,
        f"table: {n_ok}/{lut.n_nu} levels within {acc:.1e}, worst {err.max():.2e}, "
        f"monotone={monotone}, built in {dt:.1f} s",
    )


def test_criterion_4_error_decay(criterion, reference_norms):
    # headline convergence: twentyfold amplitude-error reduction within
    # three iterations and a monotone approach to the noise floor
    norms = reference_norms
    r3 = norms[3] / norms[0]
    r2 = norms[2] / norms[0]
    breaks = [
        n
        for n in range(1, 40)
        if norms[n] > norms[n - 1] * (1.0 + 1e-3)
    ]
    ok = bool(r3 <= 0.05 and not breaks)
    criterion(
        4,
        ok,
        f"e3/e0 = {r3:.4f} (need <= 0.05), {len(breaks)} monotonicity breaks in "
        f"n=1..39 at n={breaks}, amplitude-error reduction e2/e0 = {r2:.3f}",
    )


def test_criterion_5_disturbance_recovery(criterion, reference_norms):
    # dark spots switch on at n=40; the loop must return to twice the
    # pre-disturbance error within 20 iterations
    norms = reference_norms
    threshold = 2.0 * norms[39]
    spiked = norms[40] > norms[39]
    recovered_at = None
    for n in range(41, 61):
        if norms[n] <= threshold:
            recovered_at = n
            break
    ok = bool(spiked and recovered_at is not None)
    criterion(
        5,
        ok,
        f"spike {norms[40]:.4f} at n=40 (floor {norms[39]:.4f}), recovered to "
        f"<= {threshold:.4f} at n={recovered_at}",
    )


def test_criterion_6_per_mode_contraction(criterion):
    # against a linear surrogate plant the learning loop must contract
    # every excited mode by exactly 1 - |G|^2/(gamma + |G|^2)
    alpha_bar = 1.3695
    psf = PsfModel()
    grid = SpatialGrid1D(400.0, 2048)
    g = transfer_function(alpha_bar, psf, grid)
    kernel = design_kernel(g)
    pred = 1.0 - np.abs(g.values) ** 2 / (kernel.gamma + np.abs(g.values) ** 2)

    gz = psf.gz(grid.samples)
    gz_field = RealField1D(grid=grid, values=gz / (gz.sum() * grid.dz))
    rho_flat = RealField1D(grid=grid, values=np.ones(grid.n_points))

    def measure(nu):
        dnu = RealField1D(grid=grid, values=nu - 0.5)
        e = -alpha_bar * convolve(dnu, gz_field).values
        return RealField1D(grid=grid, values=(1.0 + e) ** 2)

    z = grid.samples
    dnu0 = 0.2 * np.exp(-(z**2) / (2.0 * 6.0**2)) * np.cos(1.1 * z)
    nu = 0.5 + dnu0
    # six steps of the law nu <- clamp(nu - L * e, 0, 1); the inputs
    # applied before each one are compared, and a step would clamp where
    # nu - L * e leaves [0, 1]
    inputs, clamp_counts = [], []
    for _ in range(6):
        inputs.append(nu)
        raw = nu - correction(density_error(measure(nu), rho_flat), kernel, grid)
        clamp_counts.append(int(np.count_nonzero((raw < 0.0) | (raw > 1.0))))
        nu = np.clip(raw, 0.0, 1.0)

    worst = 0.0
    for a, b in zip(inputs[:-1], inputs[1:]):
        s_old = spectrum(RealField1D(grid=grid, values=a - 0.5)).values
        s_new = spectrum(RealField1D(grid=grid, values=b - 0.5)).values
        excited = np.abs(s_old) > 1e-6 * np.max(np.abs(s_old))
        worst = max(
            worst, float(np.max(np.abs(s_new[excited] / s_old[excited] - pred[excited])))
        )
    clamps = max(clamp_counts)
    ok = worst < 1e-4 and clamps == 0
    criterion(
        6, ok, f"worst per-mode deviation {worst:.2e} from 1 - |G|^2/(gamma + |G|^2)"
    )


def test_criterion_7_separable_route(criterion, scenario, reference_prepared, reference_lut):
    # with uniform transmission the separable control model must match
    # the direct pixel-sum propagation
    pre = reference_prepared
    col_z = pre.col_grid.samples
    nu_vals = 0.5 + 0.3 * np.sin(2.0 * np.pi * col_z / 80.0) * np.exp(-((col_z / 100.0) ** 2))
    nu = RealField1D(grid=pre.col_grid, values=nu_vals)
    pattern = map_virtual_input(nu, reference_lut)
    v_full = potential_from_field(
        propagate_full(pattern, pre.beam, scenario.psf, pre.grid),
        scenario.control.alpha_v,
    ).values
    idx = reference_lut.nearest_index(nu.values)
    achieved = reference_lut.achieved_values()[idx]
    v_sep = propagate_separable(
        RealField1D(grid=pre.col_grid, values=achieved),
        pre.beam,
        scenario.psf,
        pre.grid,
        pre.e_perp_max,
        scenario.control.alpha_v,
    ).values
    rel = float(np.max(np.abs(v_full - v_sep)) / np.max(v_full))
    ok = rel < 1e-8
    criterion(7, ok, f"full vs separable propagation mismatch {rel:.2e} relative")


def test_criterion_8_numerical_invariants(
    criterion, tmp_path, scenario, reference_lut, reference_prepared,
    small_scenario, small_lut, small_prepared,
):
    checks = {}

    # discrete Parseval identity for an edge-vanishing field
    g = SpatialGrid1D(10.0, 256)
    rng = np.random.default_rng(31)
    fv = rng.standard_normal(256)
    fv[0] = fv[-1] = 0.0
    s = spectrum(RealField1D(grid=g, values=fv))
    dk = 2.0 * np.pi / (g.n_points * g.dz)
    lhs = integrate(RealField1D(grid=g, values=fv * fv))
    rhs = float(np.sum(np.abs(s.values) ** 2) * dk / (2.0 * np.pi))
    checks["parseval"] = abs(lhs - rhs) <= 1e-10 * abs(lhs)

    # relaxation bookkeeping: unit norm every step, energy never rises
    grid = SpatialGrid1D(40.0, 256)
    v = RealField1D(
        grid=grid,
        values=0.5 * scenario.condensate.mass * (2.0 * np.pi * 0.05) ** 2 * grid.samples**2,
    )
    gs = ground_state(
        v,
        scenario.condensate,
        SolverConfig(dtau=0.02, max_steps=40_000, tol=1e-10),
        record_history=True,
    )
    checks["norm"] = bool(np.max(np.abs(gs.norm_history - 1.0)) < 1e-12)
    checks["energy"] = bool(
        np.max(np.diff(gs.energy_history)) <= 1e-10 * abs(gs.energy_history[0])
    )

    # the table addresses monotonically
    checks["lut_monotone"] = bool(np.all(np.diff(reference_lut.achieved_values()) >= 0.0))

    # zero error leaves the input on its table indices, with no clamp
    index = reference_lut.nearest_index(np.full(reference_prepared.col_grid.n_points, 0.5))
    zero = RealField1D(
        grid=reference_prepared.grid, values=np.zeros(reference_prepared.grid.n_points)
    )
    held, clamps = level_update(
        index, zero, error_norm(zero), reference_prepared, reference_lut
    )
    checks["fixed_point"] = bool(np.array_equal(held, index) and clamps == 0)

    # end-to-end determinism: identical runs export identical bytes
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        result = run_closed_loop(small_scenario, lut=small_lut, prepared=small_prepared)
        export_records(result, out)
    files_a = sorted(p.name for p in out_a.iterdir())
    files_b = sorted(p.name for p in out_b.iterdir())
    checks["byte_identical"] = files_a == files_b and all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes() for name in files_a
    )

    ok = all(checks.values())
    failed = [k for k, good in checks.items() if not good]
    criterion(
        8,
        ok,
        "invariants hold: " + ", ".join(checks)
        if ok
        else "invariants broken: " + ", ".join(failed),
    )


# columns where the desired density reaches this fraction of its peak
# count as occupied (input_activity)
OCCUPIED_FRACTION = 1e-4


def input_activity(
    records,
    rho_desired: RealField1D,
    col_grid: SpatialGrid1D,
    start: int = 0,
    stop: int | None = None,
) -> dict:
    """Input motion per unit length in the empty vs. occupied region:
    criterion 9's metric.

    The occupied region is where the desired density reaches
    ``OCCUPIED_FRACTION`` of its peak, sampled at the column positions;
    motion is the summed |delta nu| between consecutive recorded
    iterations in [start, stop).  Returns rates per column and their ratio.
    """
    rho_cols = np.interp(
        col_grid.samples, rho_desired.grid.samples, rho_desired.values, left=0.0, right=0.0
    )
    occupied = rho_cols >= OCCUPIED_FRACTION * np.max(rho_desired.values)
    hidden = ~occupied
    if not np.any(occupied) or not np.any(hidden):
        raise ValueError("activity ratio needs both occupied and empty columns")
    sel = [r for r in records if r.n >= start and (stop is None or r.n < stop)]
    if len(sel) < 2:
        raise ValueError("need at least two recorded iterations in the window")
    total = np.zeros(len(rho_cols))
    for a, b in zip(sel[:-1], sel[1:]):
        total += np.abs(b.nu - a.nu)
    hidden_rate = float(total[hidden].sum() / hidden.sum())
    occupied_rate = float(total[occupied].sum() / occupied.sum())
    return {
        "hidden_rate": hidden_rate,
        "occupied_rate": occupied_rate,
        "ratio": hidden_rate / occupied_rate if occupied_rate > 0 else np.inf,
        "n_hidden": int(hidden.sum()),
        "n_occupied": int(occupied.sum()),
        "iterations": (sel[0].n, sel[-1].n),
    }


def test_activity_ratio_arithmetic():
    col_z = column_grid(10, 1.0)
    g = SpatialGrid1D(20.0, 41)
    rho = RealField1D(grid=g, values=np.where(np.abs(g.samples) <= 2.0, 1.0, 0.0))

    def rec(n, nu):
        return IterationRecord(
            n=n, nu=nu, e_rho=np.zeros(5), error_norm=0.0, clamp_count=0, mu=0.0
        )

    nu0 = np.full(10, 0.2)
    nu1 = nu0.copy()
    nu1[0] += 0.1  # z = -4.5, empty region
    nu1[5] += 0.2  # z = +0.5, occupied region
    out = input_activity([rec(0, nu0), rec(1, nu1)], rho, col_z)
    assert out["n_hidden"] == 6 and out["n_occupied"] == 4
    assert out["hidden_rate"] == pytest.approx(0.1 / 6.0, rel=1e-12)
    assert out["occupied_rate"] == pytest.approx(0.2 / 4.0, rel=1e-12)
    assert out["ratio"] == pytest.approx((0.1 / 6.0) / (0.2 / 4.0), rel=1e-12)
    assert out["iterations"] == (0, 1)
    # windowing picks only records with start <= n < stop
    out2 = input_activity(
        [rec(0, nu0), rec(1, nu1), rec(2, nu1), rec(3, nu0)], rho, col_z, start=1, stop=3
    )
    assert out2["hidden_rate"] == 0.0


def test_activity_ratio_validation():
    col_z = column_grid(10, 1.0)
    g = SpatialGrid1D(20.0, 41)
    rho = RealField1D(grid=g, values=np.where(np.abs(g.samples) <= 2.0, 1.0, 0.0))
    rec = IterationRecord(
        n=0, nu=np.zeros(10), e_rho=np.zeros(5), error_norm=0.0, clamp_count=0, mu=0.0
    )
    with pytest.raises(ValueError, match="two recorded iterations"):
        input_activity([rec], rho, col_z)
    flat = RealField1D(grid=g, values=np.ones(41))
    with pytest.raises(ValueError, match="both occupied and empty"):
        input_activity([rec, rec], flat, col_z)


def test_criterion_9_hidden_region_activity(criterion, reference_run, reference_prepared):
    # once converged (including the disturbed phase) the loop must leave
    # columns outside the cloud essentially untouched
    out = input_activity(
        reference_run.records,
        reference_prepared.rho_desired,
        reference_prepared.col_grid,
        start=40,
        stop=80,
    )
    ok = out["ratio"] < 0.05
    criterion(
        9,
        ok,
        f"empty-to-occupied input activity ratio {out['ratio']:.4f} over the "
        f"converged window (< 0.05, {out['n_hidden']}/{out['n_occupied']} columns)",
    )
