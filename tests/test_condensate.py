"""Condensate solver checks against closed-form oracles.

The linear (non-interacting) harmonic trap has an exact ground state;
the Thomas-Fermi inversion has a closed-form solution obtained by
solving h(rho) = mu - V as a quadratic in sqrt(1 + 2 b rho); an
unnormalised imaginary-time step decays the norm at a rate set by mu,
giving a solver-independent estimate of the chemical potential; and the
real-valued solver is pinned to a complex split step that evaluates mu
with its own transform every step.
"""

import dataclasses
import logging

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings, strategies as st

from potshape import condensate
from potshape.condensate import (
    CondensateParams,
    ConvergenceError,
    MeasurementConfig,
    SolverConfig,
    _rfft_weights,
    _trapezoid,
    chemical_potential,
    ground_state,
    interaction_energy_density,
    interaction_parameter,
    inverse_nonlinearity,
    measure_density,
    nonlinearity,
    thomas_fermi_density,
    total_energy,
)
from potshape.core import RealField1D, SpatialGrid1D
from potshape.harness import desired_potential
from potshape.optics import magnetic_potential

OMEGA = 2.0 * np.pi * 0.007
MASS = 1.368
LINEAR = CondensateParams(scattering_length=0.0)


def _same_bits(a, b) -> bool:
    """Equal dtype, shape and bytes: np.array_equal would take -0.0 for 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _harmonic_potential(grid):
    return RealField1D(grid=grid, values=0.5 * MASS * OMEGA**2 * grid.samples**2)


@pytest.fixture(scope="module")
def harmonic_ground():
    grid = SpatialGrid1D(60.0, 1024)
    v = _harmonic_potential(grid)
    cfg = SolverConfig(dtau=0.01, max_steps=60_000, tol=1e-12)
    gs = ground_state(v, LINEAR, cfg, record_history=True)
    assert gs.converged
    return grid, v, gs


# --------------------------------------------------------- nonlinearity


def test_nonlinearity_limits_and_reference():
    p = CondensateParams()
    assert nonlinearity(0.0, p) == 0.0
    # weak interactions: h -> 2 omega_perp b rho
    rho = 1e-3 / p.coupling
    assert nonlinearity(rho, p) == pytest.approx(2.0 * p.omega_perp * 1e-3, rel=5e-3)
    # strongly swollen: h -> omega_perp 3 sqrt(b rho / 2)
    rho = 1e4 / p.coupling
    assert nonlinearity(rho, p) == pytest.approx(
        p.omega_perp * 3.0 * np.sqrt(1e4 / 2.0), rel=2e-2
    )
    # spot value at a typical shaped-trap density
    assert nonlinearity(0.0128, p) / p.omega_perp == pytest.approx(
        0.548449566980, abs=1e-9
    )
    with pytest.raises(ValueError):
        nonlinearity(-1e-6, p)
    # the solver's rearranged V + h(rho), from the vacuum to the swollen limit
    rho = np.concatenate([[0.0], np.geomspace(1e-9, 1e4, 200)]) / p.coupling
    v = np.linspace(0.0, 30.0, rho.size)
    want = v + nonlinearity(rho, p)
    got = condensate._effective_potential(rho, v - p.omega_perp, p)
    assert np.max(np.abs(got - want) / np.maximum(want, p.omega_perp)) < 1e-14
    # the solver's form, written into its work arrays, gives the same bits
    out, work = np.full_like(rho, np.nan), np.full_like(rho, np.nan)
    assert condensate._effective_potential(rho, v - p.omega_perp, p, out=out, work=work) is out
    assert _same_bits(out, got)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 1e3), st.floats(1e-2, 1e3))
def test_inverse_nonlinearity_round_trip(s, coupling):
    p = CondensateParams(scattering_length=coupling / 5000.0)
    t = s * p.omega_perp
    rho = inverse_nonlinearity(t, p)
    assert rho >= 0.0
    # h itself cancels to an absolute rounding of a few ulp of omega_perp
    # as t -> 0, hence the absolute floor
    assert nonlinearity(rho, p) == pytest.approx(t, rel=1e-12, abs=1e-15 * p.omega_perp)


@settings(max_examples=100, deadline=None)
@given(st.floats(-12.0, -4.0))
def test_inverse_nonlinearity_weak_interaction_limit(log_s):
    # rho = t / (2 omega_perp b) (1 + 3 s / 8 + O(s^2)), s = t / omega_perp;
    # a form that cancels in u - 1 would miss this by about 1e-16 / s
    s = 10.0**log_s
    p = CondensateParams()
    t = s * p.omega_perp
    assert inverse_nonlinearity(t, p) == pytest.approx(
        t / (2.0 * p.omega_perp * p.coupling), rel=s, abs=0.0
    )


def test_inverse_nonlinearity_vacuum_and_sign():
    p = CondensateParams()
    assert inverse_nonlinearity(0.0, p) == 0.0
    assert np.array_equal(inverse_nonlinearity(np.zeros(3), p), np.zeros(3))
    with pytest.raises(ValueError):
        inverse_nonlinearity(-1e-9, p)


def _inverse_formula(t, p):
    """inverse_nonlinearity's formula as one expression of fresh arrays."""
    s = t / p.omega_perp
    c = 1.0 + s
    d = s * (1.0 + (2.0 + s) / (np.sqrt(c * c + 3.0) + 2.0)) / 3.0
    return d * (d + 2.0) / (2.0 * p.coupling)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(0.0, 1e100), min_size=1, max_size=40),
    st.floats(1e-2, 1e3),
    st.floats(max_value=-np.nextafter(0.0, 1.0)),
)
def test_inverse_nonlinearity_kernel_is_its_formula(ts, coupling, negative):
    # the checked function, the in-place kernel into a new array and into
    # its own input, and the formula as one expression agree bit for bit
    p = CondensateParams(scattering_length=coupling / 5000.0)
    t = np.array(ts)
    want = _inverse_formula(t, p)
    assert _same_bits(inverse_nonlinearity(t, p), want)
    assert _same_bits(condensate._inverse_nonlinearity(t, p, np.empty_like(t)), want)
    in_place = t.copy()
    assert condensate._inverse_nonlinearity(in_place, p, in_place) is in_place
    assert _same_bits(in_place, want)
    assert _same_bits(t, np.array(ts))
    # a scalar gives a scalar
    one = inverse_nonlinearity(ts[0], p)
    assert isinstance(one, np.float64) and _same_bits(one, want[0])
    with pytest.raises(ValueError):
        inverse_nonlinearity(negative, p)
    with pytest.raises(ValueError):
        inverse_nonlinearity(np.append(t, negative), p)


def test_interaction_energy_is_antiderivative_of_h():
    p = CondensateParams()
    assert interaction_energy_density(0.0, p) == 0.0
    rho, d = 0.01, 1e-6
    deriv = (
        interaction_energy_density(rho + d, p) - interaction_energy_density(rho - d, p)
    ) / (2.0 * d)
    assert deriv == pytest.approx(nonlinearity(rho, p), rel=1e-6)


def test_interaction_parameter_formula():
    p = CondensateParams()
    g = SpatialGrid1D(10.0, 11)
    rho = RealField1D(grid=g, values=np.full(11, 0.01))
    assert interaction_parameter(rho, p) == pytest.approx(2.0 * 26.0 * 0.01, rel=1e-14)


def test_params_validation():
    assert CondensateParams().coupling == pytest.approx(26.0)
    with pytest.raises(ValueError):
        CondensateParams(mass=0.0)
    with pytest.raises(ValueError):
        CondensateParams(scattering_length=-1e-3)
    with pytest.raises(ValueError):
        SolverConfig(dtau=0.0)
    with pytest.raises(ValueError):
        MeasurementConfig(noise_std=-0.1)


# ------------------------------------------------- operators on states


def test_chemical_potential_of_exact_gaussian():
    grid = SpatialGrid1D(60.0, 1024)
    v = _harmonic_potential(grid)
    var = 1.0 / (2.0 * MASS * OMEGA)
    rho = np.exp(-grid.samples**2 / (2.0 * var))
    rho /= np.trapezoid(rho, dx=grid.dz)
    phi = RealField1D(grid=grid, values=np.sqrt(rho))
    assert chemical_potential(phi, v, LINEAR) == pytest.approx(0.5 * OMEGA, rel=1e-8)
    assert total_energy(phi, v, LINEAR) == pytest.approx(0.5 * OMEGA, rel=1e-8)


def test_chemical_potential_gauge_shift():
    grid = SpatialGrid1D(40.0, 256)
    v = _harmonic_potential(grid)
    rng = np.random.default_rng(4)
    raw = rng.standard_normal(256) * np.exp(-grid.samples**2 / 50.0)
    raw /= np.sqrt(np.trapezoid(raw**2, dx=grid.dz))
    phi = RealField1D(grid=grid, values=raw)
    c = 3.7
    shifted = RealField1D(grid=grid, values=v.values + c)
    mu0 = chemical_potential(phi, v, CondensateParams())
    mu1 = chemical_potential(phi, shifted, CondensateParams())
    assert mu1 - mu0 == pytest.approx(c, abs=1e-12)


# ------------------------------------------------------- ground states


def test_harmonic_ground_state_matches_exact(harmonic_ground):
    grid, v, gs = harmonic_ground
    assert gs.mu == pytest.approx(0.5 * OMEGA, rel=1e-8)
    var = 1.0 / (2.0 * MASS * OMEGA)
    exact = np.exp(-grid.samples**2 / (2.0 * var))
    exact /= np.trapezoid(exact, dx=grid.dz)
    diff = gs.density.values - exact
    l2 = np.sqrt(np.trapezoid(diff**2, dx=grid.dz))
    assert l2 < 1e-5


def test_relaxation_histories(harmonic_ground):
    _, v, gs = harmonic_ground
    # per-step renormalisation: unit norm to rounding
    assert np.max(np.abs(gs.norm_history - 1.0)) < 1e-12
    # the energy functional never increases along imaginary time
    de = np.diff(gs.energy_history)
    assert np.max(de) <= 1e-10 * abs(gs.energy_history[0])
    # the step's spectral energy is the functional evaluated on the state
    assert gs.energy_history[-1] == pytest.approx(total_energy(gs.phi, v, LINEAR), rel=1e-12)
    # mu settles onto its final value
    assert abs(gs.mu_history[-1] - gs.mu) == 0.0


def test_ground_state_is_real_and_nodeless(harmonic_ground):
    _, _, gs = harmonic_ground
    peak = np.max(np.abs(gs.phi.values))
    assert np.max(np.abs(gs.phi.values.imag)) < 1e-9 * peak
    assert np.min(gs.phi.values.real) > -1e-9 * peak


def test_norm_decay_rate_recovers_mu(harmonic_ground):
    # one split step without renormalisation decays the norm as
    # exp(-2 mu dtau) on a stationary state
    grid, v, gs = harmonic_ground
    dtau = 1e-4
    half_kin = np.exp(-grid.wavenumbers**2 * dtau / (4.0 * MASS))
    phi = gs.phi.values
    phi = scipy.fft.ifft(half_kin * scipy.fft.fft(phi))
    phi = phi * np.exp(-dtau * v.values)
    phi = scipy.fft.ifft(half_kin * scipy.fft.fft(phi))
    nrm = np.trapezoid(np.abs(phi) ** 2, dx=grid.dz)
    mu_est = -np.log(nrm) / (2.0 * dtau)
    assert mu_est == pytest.approx(gs.mu, rel=1e-6)


def test_ground_state_input_validation():
    grid = SpatialGrid1D(20.0, 64)
    v = _harmonic_potential(grid)
    cfg = SolverConfig(dtau=0.05, max_steps=100, tol=1e-8)
    zero = RealField1D(grid=grid, values=np.zeros(64))
    with pytest.raises(ValueError):
        ground_state(v, LINEAR, cfg, initial=zero)


def _real_state(grid, phi):
    """A complex state as a real field; its imaginary part must be
    rounding, below 1e-9 of the peak."""
    assert np.max(np.abs(phi.imag)) < 1e-9 * np.max(np.abs(phi))
    return RealField1D(grid=grid, values=phi.real)


def _complex_split_step(v, p, cfg, phi):
    """The complex solver the real one replaced: full FFTs every step and
    mu from its own transform of the renormalised state."""
    grid = v.grid
    phi = phi.astype(complex) / np.sqrt(np.trapezoid(np.abs(phi) ** 2, dx=grid.dz))
    half_kin = np.exp(-grid.wavenumbers**2 * cfg.dtau / (4.0 * p.mass))
    mu = chemical_potential(_real_state(grid, phi), v, p)
    for steps in range(1, cfg.max_steps + 1):
        phi = scipy.fft.ifft(half_kin * scipy.fft.fft(phi))
        phi = phi * np.exp(-cfg.dtau * (v.values + nonlinearity(np.abs(phi) ** 2, p)))
        phi = scipy.fft.ifft(half_kin * scipy.fft.fft(phi))
        phi = phi / np.sqrt(np.trapezoid(np.abs(phi) ** 2, dx=grid.dz))
        mu_new = chemical_potential(_real_state(grid, phi), v, p)
        change, mu = abs(mu_new - mu) / abs(mu_new), mu_new
        if change < cfg.tol:
            break
    peak = np.argmax(np.abs(phi))
    return phi / (phi[peak] / np.abs(phi[peak])), mu, steps


def _tilted(n_points):
    """A tilted harmonic well on n_points over 120 um."""
    grid = SpatialGrid1D(120.0, n_points)
    return RealField1D(grid=grid, values=0.02 * grid.samples**2 + 2.0 * np.sin(0.2 * grid.samples))


@pytest.fixture(scope="module")
def tilted_well():
    return _tilted(512), CondensateParams(), SolverConfig(dtau=0.05, max_steps=20_000, tol=1e-10)


@pytest.mark.parametrize("start", ["cold", "warm"])
def test_real_solver_matches_complex_split_step(tilted_well, start):
    v, p, cfg = tilted_well
    if start == "cold":
        gs = ground_state(v, p, cfg, record_history=True)
        rho_tf, _ = thomas_fermi_density(v, p)
        phi0 = np.sqrt(rho_tf.values) + 1e-6
    else:
        # the state of a shifted well with the opposite global sign
        z = v.grid.samples
        phi0 = -np.exp(-((z - 8.0) ** 2) / 200.0)
        gs = ground_state(
            v, p, cfg, initial=RealField1D(grid=v.grid, values=phi0), record_history=True
        )
    phi, mu, steps = _complex_split_step(v, p, cfg, phi0)
    assert gs.converged and steps < cfg.max_steps
    assert gs.n_steps == steps == len(gs.mu_history)
    assert gs.mu == pytest.approx(mu, rel=1e-12)
    assert np.max(np.abs(gs.phi.values - phi)) < 1e-10 * np.max(np.abs(phi))
    assert gs.mu_history[-1] == gs.mu
    # the energy does not increase beyond rounding
    assert np.max(np.diff(gs.energy_history)) <= 1e-13 * abs(gs.energy_history[-1])
    assert np.allclose(gs.norm_history, 1.0, rtol=0.0, atol=1e-14)


def _stages(monkeypatch):
    """(points, steps) of each relaxation call the solver makes from now on."""
    stages = []
    relax = condensate._relax

    def spy(post, v_offset, dz, consts, params, cfg, steps, max_steps, on_step=None):
        out = relax(post, v_offset, dz, consts, params, cfg, steps, max_steps, on_step)
        stages.append((v_offset.size, out[2] - steps))
        return out

    monkeypatch.setattr(condensate, "_relax", spy)
    return stages


def _one_stage(monkeypatch, v):
    """Keep the solves on v's grid to the full grid: no coarse grid takes
    every (n_points + 1)-th sample of n_points."""
    monkeypatch.setattr(condensate, "COARSE_FACTOR", v.grid.n_points + 1)


def _counted_calls(monkeypatch):
    """Count the solver's real transforms, every one of which goes through
    condensate's _rfft and _irfft, with the length of each, and its
    evaluations of V + h(rho)."""
    counts = {"_rfft": 0, "_irfft": 0, "_effective_potential": 0, "sizes": []}

    def counted(module, name, size):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if size is not None:
                counts["sizes"].append(size(*args))
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(condensate, "_rfft", lambda x, *out: len(x))
    counted(condensate, "_irfft", lambda x, n, *out: n)
    counted(condensate, "_effective_potential", None)
    return counts


def test_a_step_costs_two_transforms_and_one_interaction_evaluation(tilted_well, monkeypatch):
    # k applied steps: an rfft of the start, an irfft and an rfft per step,
    # the irfft of the stop test's pre-potential state and one of the result
    v, p, cfg = tilted_well
    _one_stage(monkeypatch, v)
    counts = _counted_calls(monkeypatch)
    gs = ground_state(v, p, cfg)
    assert gs.converged and gs.n_steps > 1
    k = gs.n_steps
    assert counts["_rfft"] + counts["_irfft"] <= 2 * k + 3
    assert counts["_rfft"] <= k + 1
    assert counts["_irfft"] >= k + 1  # the counter sees every step
    assert counts["_effective_potential"] <= k + 2


def test_a_two_stage_solve_transforms_mostly_coarse_states(tilted_well, monkeypatch):
    # at 2048 points k_c of the k steps run on the 512-point coarse grid,
    # in two relaxation calls split at the resolution probe: the start's
    # rfft, 2 k_c, and the stop test's irfft of each call.  The full grid
    # starts from the padded coarse spectrum with no transform, so its
    # k_f = k - k_c steps make 2 k_f + 2.  That is 2k + 5 transforms and
    # k + 4 evaluations of V + h(rho); while k_f < k / 5 they cover under
    # half the points of a one-stage solve's 2k + 3.
    _, p, cfg = tilted_well
    counts = _counted_calls(monkeypatch)
    stages = _stages(monkeypatch)
    gs = ground_state(_tilted(2048), p, cfg)
    assert gs.converged
    k = gs.n_steps
    assert [n for n, _ in stages] == [512, 512, 2048]
    k_c, k_f = stages[0][1] + stages[1][1], stages[2][1]
    sizes = counts["sizes"]
    assert sizes.count(512) <= 2 * k_c + 3
    assert sizes.count(2048) <= 2 * k_f + 2
    assert len(sizes) == counts["_rfft"] + counts["_irfft"] <= 2 * k + 5
    assert counts["_rfft"] <= k + 1
    assert counts["_irfft"] >= k + 1  # the counter sees every step
    assert counts["_effective_potential"] <= k + 4
    assert 5 * k_f < k
    assert sum(sizes) < (2 * k + 3) * 2048 / 2


@pytest.mark.parametrize("max_steps", [60_000, 25, 1])
def test_n_steps_counts_both_stages(tilted_well, max_steps, monkeypatch):
    # the coarse stage stops one step short of max_steps, so the full grid
    # always takes a step and max_steps bounds the total.  Uncut, the
    # coarse stage takes 20 + 10 steps; 25 cuts it after its probe, 1
    # before it starts
    _, p, cfg = tilted_well
    stages = _stages(monkeypatch)
    gs = ground_state(_tilted(2048), p, dataclasses.replace(cfg, max_steps=max_steps))
    assert [n for n, _ in stages] == [512] * (len(stages) - 1) + [2048]
    assert gs.n_steps == sum(k for _, k in stages) <= max_steps
    assert stages[-1][1] >= 1
    assert gs.converged == (max_steps == 60_000)


def test_a_history_is_recorded_on_the_full_grid_alone(tilted_well, monkeypatch):
    _, p, cfg = tilted_well
    stages = _stages(monkeypatch)
    gs = ground_state(_tilted(2048), p, cfg, record_history=True)
    assert gs.converged and stages == [(2048, gs.n_steps)]
    assert gs.n_steps == len(gs.mu_history) == len(gs.energy_history) == len(gs.norm_history)


@pytest.mark.parametrize(
    "length, n_points, hands_over",
    [(250.0, 2700, False), (250.0, 2048, False), (400.0, 2048, True), (800.0, 2700, True)],
)
def test_an_under_resolved_coarse_stage_hands_over_at_the_probe(
    scenario, length, n_points, hands_over, monkeypatch
):
    # the desired state: the coarse grid resolves it over 250 um, with a
    # tail share of 4e-9 at 675 and 2e-7 at 512 points, but not over 400
    # um on 512 or 800 um on 675 (1e-5 and 2e-4).  The coarse stage reads
    # the share after COARSE_PROBE_TAU, 20 steps of dtau = 0.05, and then
    # either relaxes to the end, leaving the full grid a step or two, or
    # hands over at once, leaving it fewer steps than a one-stage solve
    # takes: 16 against 26 over 400 um, 23 against 33 over 800 um
    v = desired_potential(scenario.desired, SpatialGrid1D(length, n_points))
    p, cfg = scenario.condensate, scenario.solver
    with monkeypatch.context() as m:
        _one_stage(m, v)
        full = ground_state(v, p, cfg)
    stages = _stages(monkeypatch)
    gs = ground_state(v, p, cfg)
    assert gs.converged and full.converged
    assert stages[0] == (n_points // 4, 20)
    assert len(stages) == (2 if hands_over else 3)
    k_f = stages[-1][1]
    assert k_f < full.n_steps if hands_over else k_f <= 2


@pytest.mark.parametrize("max_steps", [60_000, 40])
def test_the_coarse_stage_logs_nothing(scenario, max_steps, caplog, monkeypatch):
    # the desired state over 400 um: 2048 points resolve it, but 512 do
    # not (tail share 1.2e-5), so the coarse stage runs to its probe.  A
    # two-stage solve logs what a full-grid one does: the crossover
    # parameter and, when max_steps cuts it, one warning that counts the
    # steps of both stages.
    v = desired_potential(scenario.desired, SpatialGrid1D(400.0, 2048))
    cfg = dataclasses.replace(scenario.solver, max_steps=max_steps)
    logs = []
    for one_stage in (False, True):
        caplog.clear()
        with monkeypatch.context() as m:
            if one_stage:
                _one_stage(m, v)
            with caplog.at_level(logging.DEBUG, logger="potshape.condensate"):
                gs = ground_state(v, scenario.condensate, cfg)
        logs.append([(r.levelno, r.getMessage().split(" (")[0]) for r in caplog.records])
    assert logs[0] == logs[1]
    assert [level for level, _ in logs[0]] == [logging.INFO] + [logging.WARNING] * (not gs.converged)
    if not gs.converged:
        assert logs[0][1][1] == f"imaginary-time relaxation not converged after {max_steps} steps"


@pytest.mark.parametrize(
    "well, length, n_points",
    [
        ("desired", 250.0, 2700),
        ("near-degenerate", 250.0, 2700),
        ("desired", 400.0, 2048),
        ("desired", 800.0, 2048),
    ],
)
def test_the_coarse_stage_keeps_the_solve_accurate(scenario, well, length, n_points, monkeypatch):
    # the desired potential on the reference grid and on two that the
    # coarse grid under-resolves, and a near-degenerate double well like
    # those of perfbench's groundstate-cold set (v_max x 0.7 and k_v x
    # 1.05 on the magnetic trap; 59 steps, 1,054 unmixed on the full grid
    # alone): against a full-grid solve at tol 1e-15, the two-stage solve
    # at the scenario's tol is within 1e-6, or as close as a full-grid
    # solve at that tol
    grid = SpatialGrid1D(length, n_points)
    v = desired_potential(scenario.desired, grid)
    if well == "near-degenerate":
        spec = dataclasses.replace(
            scenario.desired, v_max=0.7 * scenario.desired.v_max, k_v=1.05 * scenario.desired.k_v
        )
        v_mag = magnetic_potential(scenario.magnetic, scenario.condensate.mass, grid)
        v = RealField1D(grid=grid, values=desired_potential(spec, grid).values + v_mag.values)
    p, cfg = scenario.condensate, scenario.solver
    two = ground_state(v, p, cfg)
    _one_stage(monkeypatch, v)
    tight = ground_state(v, p, dataclasses.replace(cfg, tol=1e-15))
    full = ground_state(v, p, cfg)
    assert tight.converged and full.converged and two.converged

    def distance(gs):
        return np.sqrt(np.trapezoid((gs.phi.values - tight.phi.values) ** 2, dx=grid.dz))

    assert distance(two) <= max(1e-6, distance(full))


@pytest.mark.parametrize("length", [250.0, 800.0])
def test_the_energy_does_not_rise_at_the_stage_switch(scenario, length, monkeypatch):
    # on the full grid: the start, the padded coarse state that the full
    # grid starts from (after the whole coarse stage over 250 um, after the
    # probe over 800 um) and the result, each normalised
    v = desired_potential(scenario.desired, SpatialGrid1D(length, 2048))
    p, cfg = scenario.condensate, scenario.solver
    starts = []
    relax = condensate._relax

    def spy(post, v_offset, *args):
        if v_offset.size == 2048:
            starts.append(scipy.fft.irfft(post, 2048))
        return relax(post, v_offset, *args)

    monkeypatch.setattr(condensate, "_relax", spy)
    gs = ground_state(v, p, cfg)

    def energy(phi):
        phi = phi / np.sqrt(np.trapezoid(phi * phi, dx=v.grid.dz))
        return total_energy(RealField1D(grid=v.grid, values=phi), v, p)

    start = condensate._initial_guess(v, p)
    e_start, e_switch, e_end = energy(start), energy(starts[0]), total_energy(gs.phi, v, p)
    assert gs.converged and len(starts) == 1
    assert e_end <= e_switch + 1e-13 * abs(e_end)
    assert e_switch < e_start


def test_every_computed_shot_of_the_reference_loop_is_its_ground_state(scenario, reference_run):
    # each shot the loop computes, warm from the last computed shot's
    # state (cold at n = 0), against a cold solve of its potential at tol
    # 1e-15: sqrt(rho) lies within 1e-6 of it in the L2 norm.  The plain
    # gradient flow stopped early at n = 0, 5 and 6 (6.7e-4, 1.7e-5 and
    # 1.6e-5) and at n = 1 (1.04e-6); the mixed one's largest is 3.6e-7,
    # at n = 0, and its warm starts' 2.0e-7
    grid = scenario.grid.build()
    tight = dataclasses.replace(scenario.solver, tol=1e-15)
    computed = [r for r in reference_run.records if r.extras["solver_steps"] > 0]
    assert len(computed) == 20
    for r in computed:
        gs = ground_state(RealField1D(grid=grid, values=r.extras["v"]), scenario.condensate, tight)
        assert gs.converged
        error = np.sqrt(r.extras["rho"]) - gs.phi.values
        assert np.sqrt(np.trapezoid(error**2, dx=grid.dz)) < 1e-6, r.n


def test_a_solve_leaves_earlier_results_alone(tilted_well):
    # the solver's work arrays belong to one call: a second solve of
    # another potential leaves the first result as it was, a repeat solve
    # gives its bits again, and a recorded solve keeps one mu per step
    v, p, cfg = tilted_well
    other = RealField1D(grid=v.grid, values=v.values[::-1])
    first = ground_state(v, p, cfg)
    phi, mu = first.phi.values.copy(), first.mu
    second = ground_state(other, p, cfg)
    assert first.converged and second.converged
    assert not np.allclose(second.phi.values, phi)
    assert _same_bits(first.phi.values, phi) and first.mu == mu
    again = ground_state(v, p, cfg)
    assert _same_bits(again.phi.values, phi) and again.mu == mu
    assert again.n_steps == first.n_steps
    recorded = ground_state(other, p, cfg, record_history=True)
    assert recorded.converged and len(recorded.mu_history) == recorded.n_steps
    assert recorded.mu_history[-1] == recorded.mu
    assert _same_bits(first.phi.values, phi) and first.mu == mu


def test_a_singular_gram_matrix_restarts_the_history(tilted_well, monkeypatch):
    # a least-squares step whose gamma is not finite, as a singular Gram
    # matrix makes it, restarts the history: the next x is g(x) itself.
    # With every gamma NaN the mixed solve is the plain gradient flow of a
    # recorded solve, step for step and bit for bit
    v, p, cfg = tilted_well
    _one_stage(monkeypatch, v)
    plain = ground_state(v, p, cfg, record_history=True)
    monkeypatch.setattr(condensate, "_solve1", lambda a, b: np.full(b.shape, np.nan))
    restarted = ground_state(v, p, cfg)
    assert plain.converged and restarted.converged
    assert restarted.n_steps == plain.n_steps
    assert _same_bits(restarted.phi.values, plain.phi.values) and restarted.mu == plain.mu


def test_a_two_point_solve_meets_a_singular_gram_matrix(monkeypatch):
    # on 2 points the rfft spectrum is two real bins, so any three
    # residual differences are linearly dependent and their Gram matrix
    # singular: LAPACK's solve gives NaN there, quietly, and the solve
    # restarts its history and converges
    gammas = []
    solve1 = condensate._solve1

    def spy(a, b):
        gammas.append(solve1(a, b))
        return gammas[-1]

    monkeypatch.setattr(condensate, "_solve1", spy)
    v = _tilted(2)
    gs = ground_state(v, CondensateParams(), SolverConfig(dtau=0.05, max_steps=20_000, tol=1e-10))
    assert gs.converged
    assert any(not np.isfinite(g).all() for g in gammas)


@pytest.mark.parametrize("n_points", [2, 4, 8])
def test_a_grid_of_a_few_points_converges_with_unit_norm(n_points):
    # 4 points divide by COARSE_FACTOR into a one-sample coarse grid, whose
    # trapezoid norm is 0: that grid relaxes in one stage, 8 points in two
    v = _tilted(n_points)
    gs = ground_state(v, CondensateParams(), SolverConfig(dtau=0.05, max_steps=20_000, tol=1e-10))
    assert gs.converged
    assert np.trapezoid(gs.phi.values**2, dx=v.grid.dz) == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("n", [511, 512])
def test_solver_quadratures_match_numpy(n):
    y = np.random.default_rng(n).standard_normal(n)
    assert _trapezoid(y, 0.3) == pytest.approx(np.trapezoid(y, dx=0.3), rel=1e-13)
    # Parseval on the rfft half with each bin counted as often as in the full spectrum
    spec = scipy.fft.rfft(y)
    power = np.dot(_rfft_weights(n), spec.real**2 + spec.imag**2)
    assert power == pytest.approx(n * np.dot(y, y), rel=1e-13)


def test_non_convergence_is_flagged(caplog):
    grid = SpatialGrid1D(40.0, 128)
    v = _harmonic_potential(grid)
    cfg = SolverConfig(dtau=0.01, max_steps=3, tol=1e-14)
    with caplog.at_level(logging.WARNING, logger="potshape.condensate"):
        gs = ground_state(v, LINEAR, cfg)
    assert not gs.converged
    assert gs.n_steps == 3
    assert any("not converged" in r.message for r in caplog.records)


@pytest.mark.parametrize("offset, cause", [(1e9, "vanished"), (-1e6, "overflowed")])
def test_a_solver_failure_names_its_cause(offset, cause):
    # a uniform potential far above the state's energy underflows it to 0
    # in one step, one far below overflows exp: either is a ConvergenceError
    # that names the cause and dtau, and numpy warns of neither
    grid = SpatialGrid1D(40.0, 128)
    v = RealField1D(grid=grid, values=np.full(128, offset))
    cfg = SolverConfig(dtau=0.05, max_steps=100, tol=1e-10)
    after = "after 1 imaginary-time steps of dtau = 0.05"
    with pytest.raises(ConvergenceError, match=rf"^wave function {cause}.* {after}$"):
        ground_state(v, CondensateParams(), cfg)


@pytest.mark.parametrize("n_points, warns", [(2700, False), (200, True)])
def test_resolution_warning_follows_the_spectral_tail(scenario, n_points, warns, caplog):
    # the desired state over the reference 250 um: converged at the
    # reference 2700 points, visibly under-resolved at 200
    grid = SpatialGrid1D(scenario.grid.length, n_points)
    v = desired_potential(scenario.desired, grid)
    with caplog.at_level(logging.WARNING, logger="potshape.condensate"):
        gs = ground_state(v, scenario.condensate, scenario.solver)
    assert gs.converged
    assert any("healing-scale resolution" in r.message for r in caplog.records) == warns


def test_crossover_parameter_is_logged(caplog):
    grid = SpatialGrid1D(40.0, 128)
    v = _harmonic_potential(grid)
    cfg = SolverConfig(dtau=0.05, max_steps=20_000, tol=1e-9)
    with caplog.at_level(logging.INFO, logger="potshape.condensate"):
        gs = ground_state(v, CondensateParams(), cfg)
    assert gs.converged
    assert any("crossover parameter" in r.message for r in caplog.records)


def test_desired_state_crossover_parameter(scenario, reference_prepared):
    # the shaped trap compresses the cloud well into the crossover: the
    # peak of 2 b rho sits around 1.7, far from the weakly-interacting
    # regime.  Pin the measured value so silent regressions show up.
    chi = interaction_parameter(reference_prepared.rho_desired, scenario.condensate)
    assert chi == pytest.approx(1.706, abs=0.02)


# ------------------------------------------------------- Thomas-Fermi


def _tf_closed_form(mu, v, p):
    # h(rho) = mu - V solved in closed form: with c = (1 + (mu-V)/omega)^2,
    # x = b rho = (c - 3 + sqrt(c (c + 3))) / 9 on the occupied region
    t = np.clip(mu - v, 0.0, None) / p.omega_perp
    c = (1.0 + t) ** 2
    x = (c - 3.0 + np.sqrt(c * (c + 3.0))) / 9.0
    rho = np.where(t > 0, x / p.coupling, 0.0)
    return rho


def test_thomas_fermi_matches_closed_form():
    p = CondensateParams()
    grid = SpatialGrid1D(120.0, 1501)
    v = RealField1D(grid=grid, values=0.02 * grid.samples**2 + 2.0 * np.sin(0.2 * grid.samples))
    rho, mu = thomas_fermi_density(v, p)
    assert np.trapezoid(rho.values, dx=grid.dz) == pytest.approx(1.0, abs=1e-9)
    expect = _tf_closed_form(mu, v.values, p)
    assert np.max(np.abs(rho.values - expect)) < 1e-11
    # back substitution on the occupied region
    occ = rho.values > 0
    resid = nonlinearity(rho.values[occ], p) - (mu - v.values[occ])
    assert np.max(np.abs(resid)) < 1e-9


def test_thomas_fermi_flat_box():
    p = CondensateParams()
    grid = SpatialGrid1D(400.0, 2048)
    flat = RealField1D(grid=grid, values=np.zeros(2048))
    rho, mu = thomas_fermi_density(flat, p)
    assert np.max(np.abs(rho.values - 1.0 / 400.0)) < 1e-11
    assert mu == pytest.approx(float(nonlinearity(1.0 / 400.0, p)), rel=1e-8)
    # a constant potential only shifts mu
    lifted = RealField1D(grid=grid, values=np.full(2048, 3.0))
    rho2, mu2 = thomas_fermi_density(lifted, p)
    assert mu2 - 3.0 == pytest.approx(float(nonlinearity(1.0 / 400.0, p)), rel=1e-8)
    assert np.max(np.abs(rho2.values - rho.values)) < 1e-11


def _tf_full_grid(potential, p):
    """Bisection on the norm within thomas_fermi_density's bracket, with h
    inverted on every sample: an oracle of mu independent of its Newton
    iteration and of its evaluation on a support."""
    v = potential.values
    dz = potential.grid.dz

    def density_for(mu):
        return inverse_nonlinearity(np.clip(mu - v, 0.0, None), p)

    def norm_for(mu):
        return np.trapezoid(density_for(mu), dx=dz)

    mu_lo = float(np.min(v))
    span = max(float(np.max(v) - np.min(v)), p.omega_perp)
    mu_hi = mu_lo + span
    for _ in range(200):
        if norm_for(mu_hi) >= 1.0:
            break
        mu_hi = mu_lo + 2.0 * (mu_hi - mu_lo)
    for _ in range(200):
        mu_mid = 0.5 * (mu_lo + mu_hi)
        n_mid = norm_for(mu_mid)
        if abs(n_mid - 1.0) <= condensate.TF_NORM_TOL:
            mu_lo = mu_hi = mu_mid
            break
        if n_mid < 1.0:
            mu_lo = mu_mid
        else:
            mu_hi = mu_mid
    mu = 0.5 * (mu_lo + mu_hi)
    return density_for(mu), float(mu)


TF_CASES = ["reference", "flat box", "tilted well", "edge", "narrow span", "steep vee"]


def _tf_case(scenario, case):
    p = scenario.condensate
    if case == "reference":
        grid = scenario.grid.build()
        v_mag = magnetic_potential(scenario.magnetic, p.mass, grid)
        return RealField1D(
            grid=grid, values=desired_potential(scenario.desired, grid).values + v_mag.values
        )
    if case == "flat box":
        return RealField1D(grid=SpatialGrid1D(400.0, 2048), values=np.zeros(2048))
    if case == "tilted well":
        return _tilted(512)
    if case == "steep vee":
        # a steep trap: at a midpoint below mu the support still holds
        # many samples with V above it, whose density must stay 0.0
        grid = SpatialGrid1D(400.0, 2048)
        return RealField1D(grid=grid, values=0.1 * np.abs(grid.samples))
    if case == "edge":
        # a shallow trap in a short box: occupied out to both ends
        grid = SpatialGrid1D(60.0, 600)
        return RealField1D(grid=grid, values=0.002 * grid.samples**2)
    # span 1 rad/ms, below omega_perp, in a box too short to hold the
    # norm at mu = min V + omega_perp: the bracket doubles
    grid = SpatialGrid1D(20.0, 400)
    v = RealField1D(grid=grid, values=0.05 * grid.samples)
    t = np.clip(np.min(v.values) + p.omega_perp - v.values, 0.0, None)
    first = inverse_nonlinearity(t, p)
    assert np.ptp(v.values) < p.omega_perp and np.trapezoid(first, dx=grid.dz) < 1.0
    return v


@pytest.mark.parametrize("case", TF_CASES)
def test_thomas_fermi_support_gives_the_full_grid_bits(scenario, case):
    p = scenario.condensate
    v = _tf_case(scenario, case)
    rho, mu = thomas_fermi_density(v, p)
    _, want_mu = _tf_full_grid(v, p)
    # the Newton iteration stops at another mu than the bisection, within
    # the norm's tolerance; at its own mu the density has every sample's bits
    assert abs(mu - want_mu) <= 1e-9 * abs(want_mu)
    assert _same_bits(rho.values, inverse_nonlinearity(np.clip(mu - v.values, 0.0, None), p))
    if case == "edge":
        assert rho.values[0] > 0 and rho.values[-1] > 0
    if case == "reference":
        assert np.count_nonzero(rho.values) < v.values.size / 2


# norm evaluations of one Thomas-Fermi solve: at most 9 over perfbench's
# 300 groundstate-cold potentials at seeds 1, 7 and 11; over wells drawn
# from the ranges of test_thomas_fermi_newton_on_random_wells, at most 11
# in 3,000 uniform draws and 12 in 8,000 draws that favour the ranges'
# ends (a steep trap and a deep narrow well on 100 points over 400 um)
TF_MAX_EVALUATIONS = 12


def _tf_evaluations(v, p):
    """thomas_fermi_density's result and the (mu, N(mu)) of each of its
    norm evaluations, in order."""
    seen = []
    tf_norm = condensate._tf_norm

    def spy(mu, *args):
        out = tf_norm(mu, *args)
        seen.append((mu, out[0]))
        return out

    condensate._tf_norm = spy
    try:
        rho, mu = thomas_fermi_density(v, p)
    finally:
        condensate._tf_norm = tf_norm
    return rho, mu, seen


def _check_tf_evaluations(v, mu, seen):
    """At most TF_MAX_EVALUATIONS evaluations, the last at the returned mu
    and within TF_NORM_TOL, and after the bracketing each one inside the
    bracket [mu_lo, mu_hi] that the evaluations before it leave."""
    assert len(seen) <= TF_MAX_EVALUATIONS
    assert seen[-1][0] == mu and abs(seen[-1][1] - 1.0) <= condensate.TF_NORM_TOL
    bracketed = next(i for i, (_, n) in enumerate(seen) if n >= 1.0)
    mu_lo, mu_hi = float(np.min(v.values)), seen[bracketed][0]
    for mu_i, n in seen[bracketed + 1 :]:
        assert mu_lo < mu_i < mu_hi
        if n < 1.0:
            mu_lo = mu_i
        else:
            mu_hi = mu_i


@pytest.mark.parametrize("case", ["desired", *TF_CASES])
def test_thomas_fermi_newton_stays_in_its_bracket(scenario, case):
    p = scenario.condensate
    if case == "desired":
        v = desired_potential(scenario.desired, scenario.grid.build())
    else:
        v = _tf_case(scenario, case)
    _, mu, seen = _tf_evaluations(v, p)
    _check_tf_evaluations(v, mu, seen)
    if case == "narrow span":
        assert seen[0][1] < 1.0  # the bracket doubled


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    length=st.floats(20.0, 400.0),
    n_points=st.integers(100, 1200),
    rise=st.floats(-2.0, 2.5),
    offset=st.floats(-50.0, 50.0),
    wells=st.lists(
        st.tuples(st.floats(-30.0, 30.0), st.floats(-0.5, 0.5), st.floats(-2.0, -0.6)),
        min_size=1,
        max_size=3,
    ),
)
# shallow traps in short boxes, whose support reaches both grid ends; in
# the 20 um box the bracket doubles
@example(length=20.0, n_points=400, rise=-2.0, offset=0.0, wells=[(0.5, 0.0, -1.0)])
@example(length=60.0, n_points=600, rise=0.0, offset=-10.0, wells=[(-1.0, 0.1, -1.0)])
def test_thomas_fermi_newton_on_random_wells(length, n_points, rise, offset, wells):
    # a harmonic trap rising by 10**rise rad/ms to the box's ends plus
    # Gaussians of amplitude a at c * length with width 10**w * length
    p = CondensateParams()
    grid = SpatialGrid1D(length, n_points)
    z = grid.samples
    values = 10.0**rise * (2.0 * z / length) ** 2 + offset
    for a, c, w in wells:
        values += a * np.exp(-((z - c * length) ** 2) / (2.0 * (10.0**w * length) ** 2))
    v = RealField1D(grid=grid, values=values)
    rho, mu, seen = _tf_evaluations(v, p)
    _check_tf_evaluations(v, mu, seen)
    assert abs(np.trapezoid(rho.values, dx=grid.dz) - 1.0) <= condensate.TF_NORM_TOL
    # both mu hold the norm within TF_NORM_TOL, and the convex norm's slope
    # is at least N / (mu - min V), so they differ by at most about
    # 2 TF_NORM_TOL (mu - min V)
    _, want_mu = _tf_full_grid(v, p)
    assert abs(mu - want_mu) <= 1e-9 * (want_mu - np.min(values))


def test_a_warm_start_at_an_excited_state_ends_on_the_ground_state(monkeypatch):
    # a symmetric double well's lowest antisymmetric state is stationary,
    # and the mixing from an antisymmetric start converges onto it: half
    # its norm lies on each sign of its node, so the solve relaxes again
    # from its modulus and ends on the nodeless ground state
    grid = SpatialGrid1D(120.0, 512)
    z = grid.samples
    v = RealField1D(grid=grid, values=0.02 * z**2 + 16.0 * np.exp(-(z**2) / 50.0))
    p, cfg = CondensateParams(), SolverConfig()
    cold = ground_state(v, p, cfg)
    start = RealField1D(grid=grid, values=np.sign(z) * cold.phi.values)
    warm = ground_state(v, p, cfg, initial=start)
    assert warm.converged and warm.mu == pytest.approx(cold.mu, rel=1e-8)
    assert condensate._minority_share(warm.phi.values, grid.dz) <= condensate.NODE_SHARE_TOL
    # without the restart the solve ends on the excited state
    monkeypatch.setattr(condensate, "NODE_SHARE_TOL", 1.0)
    excited = ground_state(v, p, cfg, initial=start)
    assert excited.converged and excited.mu > cold.mu + 2e-5
    assert condensate._minority_share(excited.phi.values, grid.dz) > 0.49


@pytest.mark.parametrize("length, n_points, v_max", [(20.0, 16, 500.0), (250.0, 200, 200.0)])
def test_a_sign_change_that_a_restart_keeps_ends_the_solve(
    scenario, length, n_points, v_max, caplog
):
    # on these under-resolved grids the desired state's converged states
    # keep a sign change (a share 3.9e-7 and 4.8e-8 of the norm), and a
    # restart from the modulus relaxes back onto the same mu: the solve
    # stops there, not converged, instead of restarting for 60,000 steps
    grid = SpatialGrid1D(length, n_points)
    v = desired_potential(dataclasses.replace(scenario.desired, v_max=v_max), grid)
    with caplog.at_level(logging.WARNING, logger="potshape.condensate"):
        gs = ground_state(v, scenario.condensate, scenario.solver)
    assert not gs.converged and gs.n_steps < 200
    assert "on its minority sign, and a restart from its modulus did not lower mu" in caplog.text
    assert "nan" not in caplog.text


def test_a_sign_change_with_no_step_left_ends_the_solve(scenario, caplog, monkeypatch):
    # the 16-point solve's full-grid stage first converges onto a signed
    # state at step s; with max_steps = s no step is left for a restart,
    # so the solve ends there instead of making a restart of 0 steps,
    # whose relative mu change would read nan
    grid = SpatialGrid1D(20.0, 16)
    v = desired_potential(dataclasses.replace(scenario.desired, v_max=500.0), grid)
    with monkeypatch.context() as m:
        m.setattr(condensate, "NODE_SHARE_TOL", 1.0)
        first = ground_state(v, scenario.condensate, scenario.solver)
    assert first.converged
    assert condensate._minority_share(first.phi.values, grid.dz) > condensate.NODE_SHARE_TOL
    cfg = dataclasses.replace(scenario.solver, max_steps=first.n_steps)
    with caplog.at_level(logging.WARNING, logger="potshape.condensate"):
        gs = ground_state(v, scenario.condensate, cfg)
    assert not gs.converged and gs.n_steps == first.n_steps
    assert "on its minority sign" in caplog.text and "nan" not in caplog.text


def test_split_step_constants_are_cached_read_only_and_change_no_bit(tilted_well, monkeypatch):
    consts = condensate._split_step_constants(512, 0.25, 0.05, MASS)
    assert condensate._split_step_constants(512, 0.25, 0.05, MASS) is consts
    for a in consts:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0
    v, p, cfg = tilted_well  # 512 points: a two-stage solve
    cached = ground_state(v, p, cfg)
    monkeypatch.setattr(
        condensate, "_split_step_constants", condensate._split_step_constants.__wrapped__
    )
    fresh = ground_state(v, p, cfg)
    assert _same_bits(cached.phi.values, fresh.phi.values)
    assert (cached.mu, cached.n_steps) == (fresh.mu, fresh.n_steps)


def test_thomas_fermi_needs_interactions():
    grid = SpatialGrid1D(40.0, 128)
    v = _harmonic_potential(grid)
    with pytest.raises(ConvergenceError):
        thomas_fermi_density(v, LINEAR)


# -------------------------------------------------------- measurement


def test_measurement_identity_and_determinism():
    grid = SpatialGrid1D(20.0, 101)
    rho = RealField1D(grid=grid, values=np.exp(-grid.samples**2))
    ideal = measure_density(rho, MeasurementConfig(), np.random.default_rng(5))
    assert ideal is rho
    cfg = MeasurementConfig(noise_std=1e-3)
    a = measure_density(rho, cfg, np.random.default_rng(5))
    b = measure_density(rho, cfg, np.random.default_rng(5))
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, rho.values)


def test_measurement_clamping_and_bias():
    grid = SpatialGrid1D(20.0, 100_000)
    rho = RealField1D(grid=grid, values=np.full(100_000, 1e-2))
    rng = np.random.default_rng(9)
    clamped = measure_density(rho, MeasurementConfig(noise_std=5e-3), rng)
    assert np.min(clamped.values) == 0.0  # some samples really were clamped
    # a density ten noise sigmas above 0 is never clamped, so the noise is
    # unbiased: sample mean within 5 sigma / sqrt(N)
    rng = np.random.default_rng(10)
    noisy = measure_density(rho, MeasurementConfig(noise_std=1e-3), rng)
    assert np.min(noisy.values) > 0.0
    assert abs(np.mean(noisy.values - rho.values)) < 5e-3 / np.sqrt(100_000)


def test_measurement_rejects_negative_density():
    grid = SpatialGrid1D(10.0, 11)
    bad = RealField1D(grid=grid, values=np.full(11, -1.0))
    with pytest.raises(ValueError):
        measure_density(bad, MeasurementConfig(), np.random.default_rng(0))


def test_noisy_measurement_needs_a_generator():
    # the noise-free measurement reads no generator; a noisy one refuses
    # a missing generator by name
    grid = SpatialGrid1D(10.0, 11)
    rho = RealField1D(grid=grid, values=np.full(11, 0.5))
    assert measure_density(rho, MeasurementConfig(), None) is rho
    with pytest.raises(ValueError, match="rng=None"):
        measure_density(rho, MeasurementConfig(noise_std=1e-3), None)
