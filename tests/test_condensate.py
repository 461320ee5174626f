"""Condensate solver checks against closed-form oracles.

The linear (non-interacting) harmonic trap has an exact ground state;
the Thomas-Fermi inversion has a closed-form solution obtained by
solving h(rho) = mu - V as a quadratic in sqrt(1 + 2 b rho); an
unnormalised imaginary-time step decays the norm at a rate set by mu,
giving a solver-independent estimate of the chemical potential; and the
real-valued solver is pinned to a complex split step that evaluates mu
with its own transform every step.
"""

import logging

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st

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

OMEGA = 2.0 * np.pi * 0.007
MASS = 1.368
LINEAR = CondensateParams(scattering_length=0.0)


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


@pytest.fixture(scope="module")
def tilted_well():
    grid = SpatialGrid1D(120.0, 512)
    v = RealField1D(grid=grid, values=0.02 * grid.samples**2 + 2.0 * np.sin(0.2 * grid.samples))
    return v, CondensateParams(), SolverConfig(dtau=0.05, max_steps=20_000, tol=1e-10)


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


def test_a_step_costs_two_transforms_and_one_interaction_evaluation(tilted_well, monkeypatch):
    # k applied steps: an rfft of the start, an irfft and an rfft per step,
    # the irfft of the stop test's pre-potential state and one of the result
    v, p, cfg = tilted_well
    counts = {"rfft": 0, "irfft": 0, "_effective_potential": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(scipy.fft, "rfft")
    counted(scipy.fft, "irfft")
    counted(condensate, "_effective_potential")
    gs = ground_state(v, p, cfg)
    assert gs.converged and gs.n_steps > 1
    k = gs.n_steps
    assert counts["rfft"] + counts["irfft"] <= 2 * k + 3
    assert counts["rfft"] <= k + 1
    assert counts["_effective_potential"] <= k + 2


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
