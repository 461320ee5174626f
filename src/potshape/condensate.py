"""Stationary states of a quasi-1d condensate in the dimensional crossover.

The effective 1d interaction is non-polynomial in the line density,

    h(rho) = omega_perp * ((1 + 3 b rho) / sqrt(1 + 2 b rho) - 1),  b = a_s N,

which reduces to 2 omega_perp b rho for b rho << 1 and grows like
sqrt(rho) once the transversal cloud swells.  The ground state of the
corresponding nonlinear eigenvalue problem is found by real-valued
imaginary-time split-step propagation with per-step renormalisation, two
real FFTs and one evaluation of V + h(rho) per step; the Thomas-Fermi
routine drops the kinetic term, inverts h pointwise in closed form and
finds mu by bisection on the norm.

Units: lengths in um, times in ms, energies in rad/ms (hbar = 1), and
the wave function is normalised to int |phi|^2 dz = 1 so rho is a
probability density in 1/um (atom number enters only through b).
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .core import RealField1D, check_index, check_positive, require_same_grid

__all__ = [
    "CondensateParams",
    "SolverConfig",
    "MeasurementConfig",
    "GroundState",
    "ConvergenceError",
    "nonlinearity",
    "inverse_nonlinearity",
    "interaction_energy_density",
    "interaction_parameter",
    "chemical_potential",
    "total_energy",
    "ground_state",
    "thomas_fermi_density",
    "measure_density",
]

log = logging.getLogger(__name__)

# Share of |phi_k|^2 above half the Nyquist wavenumber beyond which a
# ground state counts as under-resolved.  For the desired state of the
# reference scenario (250 um) the share is about 5e-30 at 2700 points and
# 3e-7 at 500, with mu converged to 1e-11; at 400 points it is 2e-6 and
# mu is off by 4e-8 relative, at 200 points 2e-4 and 2e-5.
SPECTRAL_TAIL_TOL = 1e-6

# Tolerance on int rho dz - 1 at which the Thomas-Fermi bisection on mu stops.
TF_NORM_TOL = 1e-10


class ConvergenceError(RuntimeError):
    """An iterative solve failed to produce a usable result."""


@dataclass(frozen=True)
class CondensateParams:
    """Physical constants of the condensate.

    mass in ms/um^2, scattering_length in um, omega_perp in rad/ms.
    scattering_length = 0 gives the linear (non-interacting) limit.
    """

    mass: float = 1.368
    scattering_length: float = 5.2e-3
    atom_number: float = 5000.0
    omega_perp: float = 2.0 * np.pi * 1.4

    def __post_init__(self):
        check_positive(self, "mass", "omega_perp")
        for name in ("scattering_length", "atom_number"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")

    @property
    def coupling(self) -> float:
        """b = a_s N, the interaction length scale in um."""
        return self.scattering_length * self.atom_number


@dataclass(frozen=True)
class SolverConfig:
    """Imaginary-time solver settings.

    ``tol`` is on the relative change of mu between consecutive steps; mu
    is read every step from the state before its potential step, with the
    V + h(rho) that step applies and no transform of its own.
    """

    dtau: float = 1e-3
    max_steps: int = 200_000
    tol: float = 1e-10

    def __post_init__(self):
        check_index(self, "max_steps")
        check_positive(self, "dtau", "max_steps", "tol")


@dataclass(frozen=True)
class MeasurementConfig:
    """Additive Gaussian density noise; std in 1/um, 0 means ideal."""

    noise_std: float = 0.0

    def __post_init__(self):
        if not self.noise_std >= 0:
            raise ValueError(f"noise_std must be >= 0, got {self.noise_std!r}")


@dataclass(frozen=True)
class GroundState:
    phi: RealField1D
    mu: float
    n_steps: int
    converged: bool
    mu_history: np.ndarray | None = None
    energy_history: np.ndarray | None = None
    norm_history: np.ndarray | None = None

    @property
    def density(self) -> RealField1D:
        return RealField1D(grid=self.phi.grid, values=self.phi.values**2)


def nonlinearity(rho, params: CondensateParams):
    """Interaction term h(rho) in rad/ms; vacuum limit h(0) = 0."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0):
        raise ValueError("density must be non-negative")
    x = params.coupling * rho
    return params.omega_perp * ((1.0 + 3.0 * x) / np.sqrt(1.0 + 2.0 * x) - 1.0)


def inverse_nonlinearity(t, params: CondensateParams):
    """Density rho >= 0 with h(rho) = t, for t >= 0 (needs b = a_s N > 0).

    With x = b rho and u = sqrt(1 + 2x), h(rho) = t is a quadratic in u
    with root u = (c + sqrt(c^2 + 3)) / 3, c = 1 + t / omega_perp, and
    rho = (u^2 - 1) / (2b).  It is evaluated as u - 1 = s (1 + (2 + s) /
    (sqrt(c^2 + 3) + 2)) / 3 with s = t / omega_perp, which keeps full
    relative precision for small t (where rho -> t / (2 omega_perp b))
    and gives rho = 0 exactly at t = 0.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("interaction energy must be non-negative")
    s = t / params.omega_perp
    c = 1.0 + s
    d = s * (1.0 + (2.0 + s) / (np.sqrt(c * c + 3.0) + 2.0)) / 3.0
    return d * (d + 2.0) / (2.0 * params.coupling)


def interaction_energy_density(rho, params: CondensateParams):
    """Antiderivative W(rho) of h, the interaction energy per length.

    W(rho) = omega_perp * (rho * sqrt(1 + 2 b rho) - rho), dW/drho = h.
    """
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0):
        raise ValueError("density must be non-negative")
    x = params.coupling * rho
    return params.omega_perp * rho * (np.sqrt(1.0 + 2.0 * x) - 1.0)


def interaction_parameter(rho: RealField1D, params: CondensateParams) -> float:
    """Peak of 2 b rho, the crossover parameter of the 1d reduction.

    Values below 1 mean the transversal cloud stays close to its ground
    mode everywhere; the caller decides what to do with larger values.
    """
    return float(2.0 * params.coupling * np.max(rho.values))


def _spectral_second_derivative(values: np.ndarray, grid) -> np.ndarray:
    k2 = grid.wavenumbers**2
    return scipy.fft.ifft(-k2 * scipy.fft.fft(values))


def chemical_potential(phi: RealField1D, potential: RealField1D, params) -> float:
    """mu = <phi| T + V + h(phi^2) |phi> for a normalised phi."""
    require_same_grid(phi, potential)
    v = phi.values
    rho = v * v
    d2 = _spectral_second_derivative(v, phi.grid)
    integrand = v * (
        -d2 / (2.0 * params.mass) + (potential.values + nonlinearity(rho, params)) * v
    )
    return float(np.real(np.trapezoid(integrand, dx=phi.grid.dz)))


def total_energy(phi: RealField1D, potential: RealField1D, params) -> float:
    """Energy functional whose stationary point is the ground state."""
    require_same_grid(phi, potential)
    grid = phi.grid
    v = phi.values
    rho = v * v
    dphi = scipy.fft.ifft(1j * grid.wavenumbers * scipy.fft.fft(v))
    dens = (
        np.abs(dphi) ** 2 / (2.0 * params.mass)
        + potential.values * rho
        + interaction_energy_density(rho, params)
    )
    return float(np.trapezoid(dens, dx=grid.dz))


def _initial_guess(potential: RealField1D, params: CondensateParams) -> np.ndarray:
    if params.coupling > 0:
        try:
            rho_tf, _ = thomas_fermi_density(potential, params)
            if np.max(rho_tf.values) > 0:
                return np.sqrt(rho_tf.values) + 1e-6
        except ConvergenceError:
            pass
    z = potential.grid.samples
    return np.exp(-(z**2) / (2.0 * 10.0**2))


def _trapezoid(y: np.ndarray, dz: float) -> float:
    """Trapezoid rule on the uniform grid, without np.trapezoid's slices."""
    return float(dz * (y.sum() - 0.5 * (y[0] + y[-1])))


def _rfft_weights(n: int) -> np.ndarray:
    """Multiplicity of each rfft bin in the full spectrum: every bin other
    than 0 and Nyquist stands for +k and -k."""
    w = np.ones(n // 2 + 1)
    w[1 : (n + 1) // 2] = 2.0
    return w


@functools.lru_cache(maxsize=8)
def _split_step_constants(n: int, dz: float, dtau: float, mass: float) -> tuple:
    """Read-only arrays of one (grid, step, mass): the rfft wavenumbers k,
    the half kinetic step exp(-k^2 dtau / 4m), and the Parseval weights of
    the norm, of the kinetic energy and of the carried spectrum's kinetic
    energy read off the post-step one.  Kept per set of values, so the
    warm solves of a loop build them once."""
    k = 2.0 * np.pi * scipy.fft.rfftfreq(n, d=dz)
    half_kin = np.exp(-(k**2) * dtau / (4.0 * mass))
    # |phi|^2 and <phi|T|phi> = dz / n * sums of 1 and k^2/2m times
    # |phi_k|^2 over the full spectrum
    norm_weights = (dz / n) * _rfft_weights(n)
    kin_weights = k**2 / (2.0 * mass) * norm_weights
    carried_kin_weights = kin_weights * half_kin**2
    out = (k, half_kin, norm_weights, kin_weights, carried_kin_weights)
    for a in out:
        a.flags.writeable = False
    return out


def _effective_potential(rho: np.ndarray, v_offset: np.ndarray, params) -> np.ndarray:
    """V + h(rho) for v_offset = V - omega_perp, in seven array operations.

    With q = sqrt(1 + 2 b rho), 1 + 3 b rho = (3 q^2 - 1) / 2, so
    h = omega_perp (1.5 q - 0.5 / q - 1); equal to :func:`nonlinearity`
    to rounding.  No checks: the solver's rho = phi^2 is non-negative by
    construction.
    """
    q = rho * (2.0 * params.coupling)
    q += 1.0
    np.sqrt(q, out=q)
    w = np.divide(-0.5 * params.omega_perp, q)
    q *= 1.5 * params.omega_perp
    w += q
    w += v_offset
    return w


def _spectral_resolution_check(power: np.ndarray, k: np.ndarray, grid):
    """Warn when a state puts more than SPECTRAL_TAIL_TOL of its spectral
    weight above half the Nyquist wavenumber pi / (2 dz).  ``power`` is
    |phi_k|^2 on the rfft wavenumbers ``k``, each bin weighted by its
    multiplicity; the share does not depend on the state's scale."""
    tail = float(power[k > 0.5 * np.pi / grid.dz].sum() / power.sum())
    if tail > SPECTRAL_TAIL_TOL:
        log.warning(
            "grid spacing %.4g um exceeds the healing-scale resolution of the "
            "ground state: a share %.3g of |phi_k|^2 lies above half the Nyquist "
            "wavenumber (limit %.3g)",
            grid.dz,
            tail,
            SPECTRAL_TAIL_TOL,
        )


def ground_state(
    potential: RealField1D,
    params: CondensateParams,
    cfg: SolverConfig,
    initial: RealField1D | None = None,
    record_history: bool = False,
) -> GroundState:
    """Imaginary-time Strang split-step relaxation to the ground state.

    The normalised gradient flow (Bao & Du, SIAM J. Sci. Comput. 25, 2004):
    each step applies half a kinetic step in wavenumber space, a full
    potential-plus-interaction step in position space, the second kinetic
    half step, and renormalises.  Imaginary time keeps a real state real,
    so phi is a real array and the kinetic steps act on its rfft spectrum.
    A step costs two real transforms and one evaluation of V + h(rho):
    the renormalisation is a scalar and commutes with the linear kinetic
    step, so the spectrum after the second half step, times another half
    step and over the square root of its Parseval norm, is the next step's
    first half step.  Its irfft is the pre-potential state phi_a, and mu is
    read from phi_a before the potential step: the kinetic part by
    Parseval from the carried spectrum, the rest from the same V + h(rho)
    the potential step applies, both over the norm of phi_a.  Convergence
    is declared when the relative change of that mu between consecutive
    steps drops below cfg.tol; ``n_steps`` counts the potential steps
    applied.  After the stop one irfft of the last post-step spectrum
    gives the returned state, renormalised, and the returned mu is that
    state's own, so a solve of k steps makes 2k + 3 transforms.  The
    resolution check reads the same spectrum.  ``initial`` warm-starts the
    relaxation (any normalisation; its read-only values are only read by
    the first rfft); otherwise the Thomas-Fermi profile is used where
    available, falling back to a 10 um Gaussian.  ``record_history`` also
    stores mu, energy and norm of each post-step state, renormalised, for
    the invariant checks (one more irfft and two h evaluations per step).
    """
    grid = potential.grid
    if not np.all(np.isfinite(potential.values)):
        raise ValueError("potential must be finite")
    if initial is not None:
        require_same_grid(initial, potential)
        phi = initial.values
    else:
        phi = _initial_guess(potential, params)
    dz = grid.dz
    n = grid.n_points
    k, half_kin, norm_weights, kin_weights, carried_kin_weights = _split_step_constants(
        n, dz, cfg.dtau, params.mass
    )
    vvals = potential.values
    v_offset = vvals - params.omega_perp

    def post_step_state(post, power):
        """The renormalised state of a post-step spectrum with power
        |post|^2, with its kinetic energy and mu."""
        phi = scipy.fft.irfft(post, n)
        rho = phi * phi
        nrm = _trapezoid(rho, dz)
        phi /= np.sqrt(nrm)
        np.multiply(phi, phi, out=rho)
        kinetic = float(np.dot(kin_weights, power)) / nrm
        mu = kinetic + _trapezoid(_effective_potential(rho, v_offset, params) * rho, dz)
        return phi, rho, kinetic, mu

    # the start counts as the post-step state of step 0
    post = scipy.fft.rfft(phi)
    power = post.real**2 + post.imag**2
    nrm = float(np.dot(norm_weights, power))
    if not nrm > 0:
        raise ValueError("initial state has zero norm")
    carried = np.empty_like(post)
    rho = np.empty(n)
    mus, energies, norms = [], [], []
    converged = False
    steps = 0
    mu = last_change = np.nan
    def failure(what):
        return ConvergenceError(
            f"{what} after {steps} imaginary-time steps of dtau = {cfg.dtau:g}"
        )

    # a potential too high or too low for dtau underflows or overflows the
    # state; numpy stays quiet and the finiteness checks name the cause
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            # the pre-potential state phi_a and its mu, from the V + h(rho)
            # that the potential step applies
            np.multiply(post, half_kin / np.sqrt(nrm), out=carried)
            phi = scipy.fft.irfft(carried, n)
            np.multiply(phi, phi, out=rho)
            w = _effective_potential(rho, v_offset, params)
            kinetic = float(np.dot(carried_kin_weights, power)) / nrm
            mu_new = (kinetic + _trapezoid(w * rho, dz)) / _trapezoid(rho, dz)
            if not np.isfinite(mu_new):
                raise failure("chemical potential became non-finite")
            if steps > 0:
                last_change = abs(mu_new - mu) / max(abs(mu_new), 1e-30)
                if last_change < cfg.tol:
                    converged = True
                    break
            mu = mu_new
            if steps == cfg.max_steps:
                break
            w *= -cfg.dtau
            phi *= np.exp(w, out=w)
            post = scipy.fft.rfft(phi)
            post *= half_kin
            steps += 1
            power = post.real**2 + post.imag**2
            nrm = float(np.dot(norm_weights, power))
            if not np.isfinite(nrm):
                raise failure("wave function overflowed")
            if nrm <= 0:
                raise failure("wave function vanished (its norm underflowed to 0)")
            if record_history:
                _, rho_b, kinetic, mu_b = post_step_state(post, power)
                mus.append(mu_b)
                energies.append(
                    kinetic
                    + _trapezoid(vvals * rho_b + interaction_energy_density(rho_b, params), dz)
                )
                norms.append(_trapezoid(rho_b, dz))
    phi, _, _, mu = post_step_state(post, power)
    # fix the global sign; the ground state is nodeless and positive
    if phi[np.argmax(np.abs(phi))] < 0:
        phi = -phi
    gs = GroundState(
        phi=RealField1D(grid=grid, values=phi),
        mu=mu,
        n_steps=steps,
        converged=converged,
        mu_history=np.array(mus) if record_history else None,
        energy_history=np.array(energies) if record_history else None,
        norm_history=np.array(norms) if record_history else None,
    )
    _spectral_resolution_check(norm_weights * power, k, grid)
    if params.coupling > 0 and log.isEnabledFor(logging.INFO):
        log.info(
            "crossover parameter max 2 b rho = %.3f", interaction_parameter(gs.density, params)
        )
    if not converged:
        log.warning(
            "imaginary-time relaxation not converged after %d steps "
            "(last relative mu change %.3g)",
            steps,
            last_change,
        )
    return gs


def thomas_fermi_density(potential: RealField1D, params: CondensateParams):
    """Density with the kinetic term dropped: h(rho) = mu - V where positive.

    Returns (rho, mu) with rho from :func:`inverse_nonlinearity` and mu
    adjusted by bisection until the density integrates to 1 within
    TF_NORM_TOL.
    """
    if params.coupling <= 0:
        raise ConvergenceError(
            "Thomas-Fermi inversion needs interactions (a_s N > 0)"
        )
    v = potential.values
    if not np.all(np.isfinite(v)):
        raise ValueError("potential must be finite")
    grid = potential.grid

    def density_for(mu):
        return inverse_nonlinearity(np.clip(mu - v, 0.0, None), params)

    def norm_for(mu):
        return np.trapezoid(density_for(mu), dx=grid.dz)

    mu_lo = float(np.min(v))
    span = max(float(np.max(v) - np.min(v)), params.omega_perp)
    mu_hi = mu_lo + span
    for _ in range(200):
        if norm_for(mu_hi) >= 1.0:
            break
        mu_hi = mu_lo + 2.0 * (mu_hi - mu_lo)
    else:
        raise ConvergenceError("could not bracket the chemical potential")
    for _ in range(200):
        mu_mid = 0.5 * (mu_lo + mu_hi)
        n_mid = norm_for(mu_mid)
        if abs(n_mid - 1.0) <= TF_NORM_TOL:
            mu_lo = mu_hi = mu_mid
            break
        if n_mid < 1.0:
            mu_lo = mu_mid
        else:
            mu_hi = mu_mid
    mu = 0.5 * (mu_lo + mu_hi)
    rho = density_for(mu)
    n = np.trapezoid(rho, dx=grid.dz)
    if abs(n - 1.0) > 1e3 * TF_NORM_TOL:
        raise ConvergenceError(
            f"chemical-potential bisection stalled at int rho dz = {n!r}"
        )
    return RealField1D(grid=grid, values=rho), float(mu)


def measure_density(
    rho: RealField1D, cfg: MeasurementConfig, rng: np.random.Generator | None
) -> RealField1D:
    """Simulated destructive density measurement.

    With noise_std = 0 the input is returned unchanged and ``rng`` is not
    read (None will do).  Otherwise additive Gaussian noise is drawn from
    ``rng`` and negative samples are clamped to 0, so the measurement
    stays a density.
    """
    if np.any(rho.values < 0):
        raise ValueError("density must be non-negative")
    if cfg.noise_std == 0.0:
        return rho
    noisy = rho.values + rng.normal(0.0, cfg.noise_std, size=rho.values.shape)
    return RealField1D(grid=rho.grid, values=np.clip(noisy, 0.0, None))
