"""Stationary states of a quasi-1d condensate in the dimensional crossover.

The effective 1d interaction is non-polynomial in the line density,

    h(rho) = omega_perp * ((1 + 3 b rho) / sqrt(1 + 2 b rho) - 1),  b = a_s N,

which reduces to 2 omega_perp b rho for b rho << 1 and grows like
sqrt(rho) once the transversal cloud swells.  The ground state of the
corresponding nonlinear eigenvalue problem is found by real-valued
imaginary-time split-step propagation with per-step renormalisation, two
real FFTs and one evaluation of V + h(rho) per step, whose iterates are
Anderson-mixed.  On a grid of n >= 8
points with n a multiple of COARSE_FACTOR (4), it relaxes first on every
fourth sample, then finishes on the full grid from the interpolated
coarse state; the coarse stage hands over early when its state proves
under-resolved there.  A converged state that changes sign is excited,
and the solve restarts from its modulus while a restart lowers mu.
The Thomas-Fermi routine drops the kinetic term, inverts h pointwise in
closed form and finds mu by a safeguarded Newton iteration on the norm,
which is convex in mu.

Units: lengths in um, times in ms, energies in rad/ms (hbar = 1), and
the wave function is normalised to int |phi|^2 dz = 1 so rho is a
probability density in 1/um (atom number enters only through b).
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.fft
from numpy.linalg._umath_linalg import solve1 as _solve1
from scipy.fft._pocketfft.pypocketfft import c2r as _c2r, r2c as _r2c

from .core import RealField1D, check_index, check_real, require_same_grid

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

# Tolerance on int rho dz - 1 at which the Thomas-Fermi Newton iteration on
# mu stops.
TF_NORM_TOL = 1e-10

# The ground state first relaxes on every COARSE_FACTOR-th sample when the
# grid's point count divides by it (n >= 8).  Measured with the Anderson-mixed
# relaxation on the reference 2700-point grid, over perfbench's 100
# groundstate-cold potentials at seed 7 and the desired one (one BLAS
# thread, 2-core Xeon KVM guest, median of three interleaved solves):
# after a coarse stage at 4x the full-grid stage needs a median of 1 step
# (max 9); at 2x 1 (max 15), at 3x 1 (max 11), at 5x 9, at 6x 17 and at
# 9x 23.  The median solve took 3.8 ms at 3x and 4x, 4.3 ms at 2x and 5x,
# 4.5 ms at 6x, 5.2 ms at 9x and 5.3 ms on the full grid alone.  On the
# same host a plain step costs 73 us at 2700 points and 38 us at 675
# (fastest of 7 runs of 200 steps), and the mixing adds 30-50 % to
# either.
COARSE_FACTOR = 4

# Imaginary time in ms after which the coarse stage reads its state's
# spectral tail (the resolution check's share, on the coarse grid) and
# hands over to the full grid at once when it exceeds SPECTRAL_TAIL_TOL.
# A coarse grid that cannot resolve the state relaxes it to a wrong one,
# which the full grid must then correct.  Under the plain gradient flow
# that took nearly as many steps as a full solve: relaxed to the end, the
# desired state over 800 um on 2048 points took 206 coarse and 138
# full-grid steps against 188 on the full grid alone; handed over at the
# probe, 20 and 162.  With the Anderson mixing the full grid takes 29
# steps after either, so the hand-over saves the 13 coarse steps past the
# probe; the full grid alone takes 26.  The Thomas-Fermi start's edges
# put 1e-5 to 1e-3 of its weight in the tail, which the kinetic steps
# damp in the first ms: at dtau = 0.05 the share after 20 steps is at
# most 1.6e-7 over the groundstate-cold set and 1.7e-7 for the desired
# state over 250 um on 2048 points, but 1.1e-5 over 400 um and 4.0e-4
# over 800 um.
COARSE_PROBE_TAU = 1.0

# Share of a converged state's norm on its minority sign (see
# _minority_share) above which ground_state takes it for an excited
# stationary state, which the Anderson mixing converges onto as readily as
# onto the nodeless ground state, and relaxes again from its modulus while
# that lowers mu.  The ground states of perfbench's groundstate-cold
# potentials at seeds 1, 7 and 11 and of the reference loop leave at most
# 2.5e-15 there; the excited states that the mixed-sign start's warm solve
# in the test suite reached hold 1e-3 to 1e-2, their nodes in the barrier
# of a pocket at the box's edges.
NODE_SHARE_TOL = 1e-8

# Residual differences that the Anderson mixing of _relax combines.  Over
# perfbench's groundstate-cold potentials at seeds 1, 7 and 11 (100 each),
# depth 4, 6 and 8 give median cold solves of 37-39, 33 and 31-32 steps,
# and slowest ones of 82-95, 57-66 and 52-55; the plain gradient flow
# (depth 0) takes a median of 176-179 steps and at most 539-684.
ANDERSON_DEPTH = 6


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
        check_real(self, "mass", "omega_perp", above=0)
        check_real(self, "scattering_length", "atom_number", low=0)

    @property
    def coupling(self) -> float:
        """b = a_s N, the interaction length scale in um."""
        return self.scattering_length * self.atom_number


@dataclass(frozen=True)
class SolverConfig:
    """Imaginary-time solver settings; the defaults are the reference
    scenario's.

    ``tol`` is on the relative change of mu between consecutive steps of
    one stage of :func:`ground_state`; mu is read every step from the
    mixed state before its potential step, with the V + h(rho) that step
    applies and no transform of its own.  ``dtau`` sets the split step,
    whose fixed point the mixing keeps, and with it the O(dtau) bias of
    every solve.  ``max_steps`` bounds the potential steps of the coarse
    and the full-grid stage together.
    """

    dtau: float = 0.05
    max_steps: int = 60_000
    tol: float = 1e-10

    def __post_init__(self):
        check_index(self, "max_steps", low=1)
        check_real(self, "dtau", "tol", above=0)


@dataclass(frozen=True)
class MeasurementConfig:
    """Additive Gaussian density noise; std in 1/um, 0 means ideal."""

    noise_std: float = 0.0

    def __post_init__(self):
        check_real(self, "noise_std", low=0)


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
    return _inverse_nonlinearity(t, params, np.empty_like(t))[()]


def _inverse_nonlinearity(t: np.ndarray, params, out: np.ndarray, work=None) -> np.ndarray:
    """The formula of :func:`inverse_nonlinearity` without its checks,
    written into ``out`` (which may be ``t``) with two work arrays, the
    first ``work`` when given, which ends holding u + 1."""
    s = np.divide(t, params.omega_perp, out=out)
    q = np.add(s, 1.0, out=np.empty_like(s) if work is None else work)
    q *= q
    q += 3.0
    np.sqrt(q, out=q)
    q += 2.0
    r = np.add(s, 2.0, out=np.empty_like(s))
    r /= q
    r += 1.0
    s *= r
    s /= 3.0
    # s is now d = u - 1; rho = d (d + 2) / (2b)
    np.add(s, 2.0, out=q)
    s *= q
    s /= 2.0 * params.coupling
    return s


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


def chemical_potential(phi: RealField1D, potential: RealField1D, params) -> float:
    """mu = <phi| T + V + h(phi^2) |phi> for a normalised phi."""
    require_same_grid(phi, potential)
    v = phi.values
    rho = v * v
    d2 = scipy.fft.ifft(-(phi.grid.wavenumbers**2) * scipy.fft.fft(v))
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


# The solver's real transforms and its least-squares step call the routines
# beneath scipy.fft.rfft / irfft and np.linalg.solve, with the arguments
# those wrappers pass, so they give the wrappers' bits.  95 % of a cold
# solve's steps run on the coarse grid (3,343 of 3,520 over perfbench's 100
# groundstate-cold solves at seed 1), where call overhead sets a step's
# cost: at 675 points scipy.fft.rfft and irfft took 8.3 and 9.8 us a call
# against 4.3 us for either pocketfft routine, and np.linalg.solve 5.1 us
# against 1.2 us for its gufunc, in a step of about 30 us (one thread,
# 2-core Xeon KVM guest, fastest of five runs of 2,000 calls).
# tests/test_entry_points.py pins all three against the public functions.


def _rfft(x: np.ndarray, out=None) -> np.ndarray:
    """scipy.fft.rfft(x) of a real 1-d array, bit for bit: pocketfft's r2c
    unnormalised on one thread, written into ``out`` (n // 2 + 1 complex)
    when given."""
    return _r2c(x, (-1,), True, 0, out, 1)


def _irfft(x: np.ndarray, n: int, out=None) -> np.ndarray:
    """scipy.fft.irfft(x, n) of the n // 2 + 1 bins ``x``, bit for bit:
    pocketfft's c2r normalised by 1 / n on one thread, written into ``out``
    (n floats) when given."""
    return _c2r(x, (-1,), n, False, 2, out, 1)


@functools.lru_cache(maxsize=4)
def _split_step_constants(n: int, dz: float, dtau: float, mass: float) -> tuple:
    """Arrays of one (grid, step, mass): the rfft wavenumbers k, the half
    kinetic step exp(-k^2 dtau / 4m), and the Parseval weights of the
    norm and of the kinetic energy.  Cached, as a two-stage solve needs
    those of its full and its coarse grid, and read-only, as every caller
    shares them."""
    k = 2.0 * np.pi * scipy.fft.rfftfreq(n, d=dz)
    half_kin = np.exp(-(k**2) * dtau / (4.0 * mass))
    # |phi|^2 and <phi|T|phi> = dz / n * sums of 1 and k^2/2m times
    # |phi_k|^2 over the full spectrum
    norm_weights = (dz / n) * _rfft_weights(n)
    kin_weights = k**2 / (2.0 * mass) * norm_weights
    consts = k, half_kin, norm_weights, kin_weights
    for a in consts:
        a.flags.writeable = False
    return consts


def _effective_potential(
    rho: np.ndarray, v_offset: np.ndarray, params, out=None, work=None
) -> np.ndarray:
    """V + h(rho) for v_offset = V - omega_perp, in seven array operations.

    With q = sqrt(1 + 2 b rho), 1 + 3 b rho = (3 q^2 - 1) / 2, so
    h = omega_perp (1.5 q - 0.5 / q - 1); equal to :func:`nonlinearity`
    to rounding.  The result goes to ``out`` and q to ``work``, arrays
    shaped like rho, each allocated when None.  No checks: the solver's
    rho = phi^2 is non-negative by construction.
    """
    q = np.multiply(rho, 2.0 * params.coupling, out=work)
    q += 1.0
    np.sqrt(q, out=q)
    w = np.divide(-0.5 * params.omega_perp, q, out=out)
    q *= 1.5 * params.omega_perp
    w += q
    w += v_offset
    return w


def _minority_share(phi: np.ndarray, dz: float) -> float:
    """Share of a normalised real state's norm on the sign that holds less
    of it: 0 for a nodeless state."""
    negative = _trapezoid(np.square(np.minimum(phi, 0.0)), dz)
    return min(negative, 1.0 - negative)


def _tail_share(power: np.ndarray, k: np.ndarray, dz: float) -> float:
    """Share of a state's spectral weight above half the Nyquist wavenumber
    pi / (2 dz) of its grid.  ``power`` is |phi_k|^2 on the rfft
    wavenumbers ``k``, each bin weighted by its multiplicity; the share
    does not depend on the state's scale."""
    return float(power[k > 0.5 * np.pi / dz].sum() / power.sum())


def _spectral_resolution_check(power: np.ndarray, k: np.ndarray, grid):
    """Warn when a state's :func:`_tail_share` exceeds SPECTRAL_TAIL_TOL."""
    tail = _tail_share(power, k, grid.dz)
    if tail > SPECTRAL_TAIL_TOL:
        log.warning(
            "grid spacing %.4g um exceeds the healing-scale resolution of the "
            "ground state: a share %.3g of |phi_k|^2 lies above half the Nyquist "
            "wavenumber (limit %.3g)",
            grid.dz,
            tail,
            SPECTRAL_TAIL_TOL,
        )


def _relax(post, v_offset, dz, consts, params, cfg, steps, max_steps, on_step=None):
    """The split-step relaxation on one grid, from the post-step spectrum
    ``post`` of a state sampled like ``v_offset`` (V - omega_perp) at
    spacing ``dz``, with that grid's :func:`_split_step_constants`.

    A step maps the carried spectrum x, whose irfft is the pre-potential
    state phi_a, to g(x): the potential step, the second half kinetic step
    and, over the square root of the Parseval norm, the next step's first
    half step.  The next x is the Anderson type II mixture (Walker & Ni,
    SIAM J. Numer. Anal. 49, 2011) g(x) - dG gamma.  The columns of dF
    and dG are the differences of the last m <= ANDERSON_DEPTH consecutive
    residuals f = g(x) - x and of the g(x), and gamma minimises
    |f - dF gamma| over the real and imaginary parts of the spectra.  Each
    step writes one column into the oldest slot of a ring and one row and
    column of the m x m Gram matrix dF^T dF, whose normal equations give
    gamma.  The mixture keeps the split step's own fixed point and
    removes the gradient flow's slow mode.  The history restarts, and the
    next x is g(x) itself, at the first step of a call, whenever |f| grows
    and when the Gram matrix is singular, which makes gamma non-finite.
    With ``on_step`` the depth is 0: the plain gradient flow, whose
    invariants a recorded history checks.

    It runs until the relative change of mu between two consecutive steps
    of this call drops below cfg.tol, or until the step count, which
    starts at ``steps``, reaches ``max_steps``.  mu is read from phi_a:
    the kinetic part by Parseval from x, the rest from the V + h(rho) that
    the potential step applies.  ``on_step(post, power)`` sees every
    post-step spectrum.  Returns the last post-step spectrum (the last g(x)
    without its renormalisation and extra half step), its power |post|^2,
    the step count, whether mu converged and its last relative change.  It
    logs nothing; failures raise.  Its work arrays, the two transforms'
    outputs and the history's views among them, are allocated once per
    call and filled in place, so a step allocates only dG gamma and the
    least-squares step's vectors of length m; the returned spectrum and
    power are work arrays.
    """
    n = v_offset.size
    _, half_kin, norm_weights, kin_weights = consts
    depth = 0 if on_step is not None else ANDERSON_DEPTH
    power = np.empty(half_kin.size)
    squares = np.empty(2 * half_kin.size)
    squares_re, squares_im = squares[0::2], squares[1::2]
    scale = np.empty(half_kin.size)
    x, g, g_prev, spectrum = (np.empty_like(post) for _ in range(4))
    f, f_prev = np.empty(2 * post.size), np.empty(2 * post.size)
    d_f, d_g = np.empty((depth, f.size)), np.empty((depth, f.size))
    gram = np.empty((depth, depth))
    # the history's m newest columns and their Gram matrix, for m <= depth
    history = [(d_f[:m], d_g[:m], gram[:m, :m]) for m in range(depth + 1)]
    state = np.empty(n)
    rho = np.empty(n)
    w = np.empty(n)
    product = np.empty(n)
    neg_dtau = -cfg.dtau

    def power_of(spec):
        # |spec|^2 as spec.real**2 + spec.imag**2
        np.square(spec.view(float), out=squares)
        return np.add(squares_re, squares_im, out=power)

    def carry(post, nrm, out):
        # the renormalised post-step spectrum after another half kinetic step
        return np.multiply(post, np.divide(half_kin, math.sqrt(nrm), out=scale), out=out)

    nrm = float(np.dot(norm_weights, power_of(post)))
    if not nrm > 0:
        raise ValueError("initial state has zero norm")
    carry(post, nrm, x)
    first = steps
    mu = last_change = np.nan
    f_norm = np.inf
    added = 0  # columns added to the history since it last restarted

    def failure(what):
        return ConvergenceError(
            f"{what} after {steps} imaginary-time steps of dtau = {cfg.dtau:g}"
        )

    # a potential too high or too low for dtau underflows or overflows the
    # state, and a singular Gram matrix makes gamma NaN; numpy stays quiet
    # and the finiteness checks name the cause
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            # the pre-potential state phi_a and its mu, from the V + h(rho)
            # that the potential step applies
            phi = _irfft(x, n, state)
            np.multiply(phi, phi, out=rho)
            _effective_potential(rho, v_offset, params, out=w, work=product)
            kinetic = float(np.dot(kin_weights, power_of(x)))
            np.multiply(w, rho, out=product)
            mu_new = (kinetic + _trapezoid(product, dz)) / _trapezoid(rho, dz)
            if not math.isfinite(mu_new):
                raise failure("chemical potential became non-finite")
            if steps > first:
                last_change = abs(mu_new - mu) / max(abs(mu_new), 1e-30)
                if last_change < cfg.tol:
                    return post, power_of(post), steps, True, last_change
            mu = mu_new
            if steps == max_steps:
                return post, power_of(post), steps, False, last_change
            w *= neg_dtau
            phi *= np.exp(w, out=w)
            post = _rfft(phi, spectrum)
            post *= half_kin
            steps += 1
            nrm = float(np.dot(norm_weights, power_of(post)))
            if not math.isfinite(nrm):
                raise failure("wave function overflowed")
            if nrm <= 0:
                raise failure("wave function vanished (its norm underflowed to 0)")
            if on_step is not None:
                on_step(post, power)
            carry(post, nrm, g)
            gv = g.view(float)
            np.subtract(gv, x.view(float), out=f)
            f_prev_norm, f_norm = f_norm, float(np.dot(f, f))
            added = 0 if steps == first + 1 or f_norm > f_prev_norm else added + 1
            if depth and added:
                s, m = (added - 1) % depth, min(added, depth)
                d_f_m, d_g_m, gram_m = history[m]
                np.subtract(f, f_prev, out=d_f[s])
                np.subtract(gv, g_prev.view(float), out=d_g[s])
                gram[s, :m] = gram[:m, s] = d_f_m @ d_f[s]
                gamma = _solve1(gram_m, d_f_m @ f)
                if np.isfinite(gamma).all():
                    np.subtract(gv, gamma @ d_g_m, out=x.view(float))
                else:
                    added = 0
            if not (depth and added):
                np.copyto(x, g)
            f, f_prev = f_prev, f
            g, g_prev = g_prev, g


def ground_state(
    potential: RealField1D,
    params: CondensateParams,
    cfg: SolverConfig,
    initial: RealField1D | None = None,
    record_history: bool = False,
) -> GroundState:
    """Imaginary-time Strang split-step relaxation to the ground state,
    Anderson-accelerated.

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
    the potential step applies, both over the norm of phi_a.  A stage
    stops when the relative change of that mu between two of its
    consecutive steps drops below cfg.tol.  Each step's carried spectrum
    is the Anderson mixture of the last ANDERSON_DEPTH steps (see
    :func:`_relax`).  It has the split step's own fixed point, with its
    O(dtau) bias, and reaches it in a fraction of the plain flow's steps:
    a median of 33 against 179 over perfbench's groundstate-cold
    potentials.

    The relaxation runs in two stages when the grid's n_points is a
    multiple of COARSE_FACTOR, at least twice it (one coarse sample has
    no trapezoid norm), and ``record_history`` is off.  The coarse
    stage relaxes the start sampled at every COARSE_FACTOR-th point
    (spacing COARSE_FACTOR dz, the same periodic box n_points dz).  After
    COARSE_PROBE_TAU of imaginary time it reads its state's share of
    spectral weight above half the coarse Nyquist wavenumber, and goes on
    only while that share is within SPECTRAL_TAIL_TOL, the full grid's own
    resolution test; otherwise it hands over at once.  It takes at most
    cfg.max_steps - 1 steps, so the full grid takes at least one.  Its
    last spectrum, zero-padded to the full grid (the coarse Nyquist bin
    split between +k and -k), is the start of the full-grid stage.
    Otherwise the full-grid stage starts from the rfft of the start.
    ``n_steps`` counts the potential steps of both stages, and
    cfg.max_steps bounds that total; only the full-grid stage decides
    ``converged``.  After the stop one irfft of the last post-step
    spectrum gives the returned state, renormalised, and the returned mu
    is that state's own, so a one-stage solve of k steps makes 2k + 3
    transforms.  A two-stage one makes 2k + 5 (2k + 4 when the coarse
    stage hands over at the probe), of which 2k_c + 3 (2k_c + 2) on the
    coarse grid for its k_c steps.  Each of these transforms is a call of
    :func:`_rfft` or :func:`_irfft`, scipy.fft's own pocketfft routines
    without its wrappers, bit for bit.  The resolution check reads the
    same spectrum.  The mixing converges onto any stationary state, and the
    ground state is the nodeless one: when a converged state holds more
    than NODE_SHARE_TOL of its norm on its minority sign, the full-grid
    stage runs again from the rfft of the state's modulus, with its steps
    counted in ``n_steps`` and its transforms on top of those above.  The
    ground state has the lowest mu of the stationary states, so when a
    restart ends on a signed state whose mu is not below the last signed
    state's by more than cfg.tol relative, or no step is left for a
    restart, the solve stops there, not converged, and its warning names
    the sign change.

    ``initial`` warm-starts the relaxation (any normalisation; its
    read-only values are only read by the first rfft); otherwise the
    Thomas-Fermi profile is used where available, falling back to a 10 um
    Gaussian, both built on the full grid.  ``record_history`` solves on
    the full grid alone by the plain gradient flow, unmixed, and also
    stores mu, energy and norm of each post-step state, renormalised, for
    the invariant checks (one more irfft and two h evaluations per step),
    so len(mu_history) == n_steps.
    """
    grid = potential.grid
    if initial is not None:
        require_same_grid(initial, potential)
        phi = initial.values
    else:
        phi = _initial_guess(potential, params)
    dz = grid.dz
    n = grid.n_points
    consts = _split_step_constants(n, dz, cfg.dtau, params.mass)
    k, _, norm_weights, kin_weights = consts
    vvals = potential.values
    v_offset = vvals - params.omega_perp

    def post_step_state(post, power):
        """The renormalised state of a post-step spectrum with power
        |post|^2, with its kinetic energy and mu."""
        phi = _irfft(post, n)
        rho = phi * phi
        nrm = _trapezoid(rho, dz)
        phi /= np.sqrt(nrm)
        np.multiply(phi, phi, out=rho)
        kinetic = float(np.dot(kin_weights, power)) / nrm
        mu = kinetic + _trapezoid(_effective_potential(rho, v_offset, params) * rho, dz)
        return phi, rho, kinetic, mu

    mus, energies, norms = [], [], []

    def record(post, power):
        _, rho_b, kinetic, mu_b = post_step_state(post, power)
        mus.append(mu_b)
        energies.append(
            kinetic + _trapezoid(vvals * rho_b + interaction_energy_density(rho_b, params), dz)
        )
        norms.append(_trapezoid(rho_b, dz))

    c = COARSE_FACTOR
    if n % c == 0 and n >= 2 * c and not record_history:
        coarse_consts = _split_step_constants(n // c, c * dz, cfg.dtau, params.mass)
        coarse_args = (np.ascontiguousarray(v_offset[::c]), c * dz, coarse_consts, params, cfg)
        budget = cfg.max_steps - 1
        probe = min(budget, math.ceil(COARSE_PROBE_TAU / cfg.dtau))
        coarse, power, steps, converged, _ = _relax(
            _rfft(phi[::c]), *coarse_args, 0, probe
        )
        coarse_k, _, coarse_weights, _ = coarse_consts
        # go on only while the coarse grid resolves the state
        if (
            not converged
            and steps < budget
            and _tail_share(coarse_weights * power, coarse_k, c * dz) <= SPECTRAL_TAIL_TOL
        ):
            coarse, _, steps, _, _ = _relax(coarse, *coarse_args, steps, budget)
        # the band-limited interpolant of the coarse state: its spectrum,
        # scaled by the ratio of the sample counts, below the coarse
        # Nyquist wavenumber and zero above
        post = np.zeros(n // 2 + 1, dtype=complex)
        post[: coarse.size] = c * coarse
        if (n // c) % 2 == 0:
            post[coarse.size - 1] *= 0.5
    else:
        post, steps = _rfft(phi), 0
    mu_signed = math.inf
    while True:
        post, power, steps, converged, last_change = _relax(
            post, v_offset, dz, consts, params, cfg, steps, cfg.max_steps,
            record if record_history else None,
        )
        phi, _, _, mu = post_step_state(post, power)
        share = _minority_share(phi, dz) if converged else 0.0
        if share <= NODE_SHARE_TOL:
            break
        # a signed stationary state: relax again from its modulus, unless
        # the last restart did not lower mu or no step is left
        if mu_signed - mu <= cfg.tol * abs(mu) or steps == cfg.max_steps:
            converged = False
            break
        mu_signed = mu
        post = _rfft(np.abs(phi))
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
    if share > NODE_SHARE_TOL:
        log.warning(
            "imaginary-time relaxation not converged after %d steps: its "
            "stationary state keeps a share %.3g of its norm on its minority "
            "sign, and a restart from its modulus did not lower mu",
            steps,
            share,
        )
    elif not converged:
        log.warning(
            "imaginary-time relaxation not converged after %d steps "
            "(last relative mu change %.3g)",
            steps,
            last_change,
        )
    return gs


def _tf_norm(mu: float, v: np.ndarray, first: bool, last: bool, dz: float, params):
    """The Thomas-Fermi density rho(mu - V)+ on the samples ``v`` of a
    support, with its norm N(mu) and slope dN/dmu by the trapezoid rule.

    ``first`` and ``last`` say whether the support's first and last
    samples are the grid's ends, whose weights are halved.  The slope sums
    drho/dt = 1 / h'(rho) = u^3 / (omega_perp b (1.5 u^2 + 0.5)), with the
    inversion's u = sqrt(1 + 2 b rho), over the samples where rho > 0.
    Returns (N, dN/dmu, rho).
    """
    t = np.subtract(mu, v)
    np.maximum(t, 0.0, out=t)
    u = np.empty_like(t)
    rho = _inverse_nonlinearity(t, params, t, work=u)
    u -= 1.0
    u2 = u * u
    u *= u2
    u2 *= 1.5
    u2 += 0.5
    u /= u2
    u *= rho > 0.0
    norm, slope = rho.sum(), u.sum()
    if first:
        norm -= 0.5 * rho[0]
        slope -= 0.5 * u[0]
    if last:
        norm -= 0.5 * rho[-1]
        slope -= 0.5 * u[-1]
    return float(dz * norm), float(dz * slope / (params.omega_perp * params.coupling)), rho


def thomas_fermi_density(potential: RealField1D, params: CondensateParams):
    """Density with the kinetic term dropped: h(rho) = mu - V where positive.

    Returns (rho, mu) with rho from :func:`inverse_nonlinearity` and mu
    found by a safeguarded Newton iteration on the norm N(mu) = int
    rho(mu - V)+ dz until it is 1 within TF_NORM_TOL.  h is increasing
    and concave, as h'(rho) = omega_perp b (1.5 / u + 0.5 / u^3) falls
    with u = sqrt(1 + 2 b rho), so rho(t) is convex and N convex and
    increasing.  Newton started from the upper end of a bracket [min V,
    mu_hi] with N(mu_hi) >= 1 therefore falls monotonically onto the
    root; an iterate that leaves the bracket, which only rounding can
    cause, is replaced by its midpoint.  Each evaluation inverts h only on
    the support of the last mu whose norm is at least 1, the samples whose
    V lies below it, and writes 0.0 elsewhere, which gives the same bits
    as inverting every sample.
    """
    if params.coupling <= 0:
        raise ConvergenceError(
            "Thomas-Fermi inversion needs interactions (a_s N > 0)"
        )
    v = potential.values
    grid = potential.grid
    n = v.size
    # the samples whose V lies below the bracket's upper end, the only ones
    # where mu - V > 0 for a mu in the bracket; the density is 0.0 elsewhere
    support = np.arange(n)
    v_support = v

    def norm_for(mu):
        return _tf_norm(mu, v_support, support[0] == 0, support[-1] == n - 1, grid.dz, params)

    mu_lo = float(np.min(v))
    mu_hi = mu_lo + max(float(np.max(v)) - mu_lo, params.omega_perp)
    for _ in range(200):
        n_mu, slope, rho = norm_for(mu_hi)
        if n_mu >= 1.0:
            break
        mu_hi = mu_lo + 2.0 * (mu_hi - mu_lo)
    else:
        raise ConvergenceError("could not bracket the chemical potential")
    mu = mu_hi
    for _ in range(200):
        if abs(n_mu - 1.0) <= TF_NORM_TOL:
            break
        step = mu - (n_mu - 1.0) / slope if slope > 0.0 else mu
        if n_mu < 1.0:
            mu_lo = mu
        else:
            mu_hi = mu
            below = v_support < mu_hi
            support, v_support = support[below], v_support[below]
        mu = step if mu_lo < step < mu_hi else 0.5 * (mu_lo + mu_hi)
        n_mu, slope, rho = norm_for(mu)
    values = np.zeros(n)
    values[support] = rho
    norm = np.trapezoid(values, dx=grid.dz)
    if abs(norm - 1.0) > 1e3 * TF_NORM_TOL:
        raise ConvergenceError(
            f"Thomas-Fermi chemical potential stalled at int rho dz = {norm!r}"
        )
    return RealField1D(grid=grid, values=values), float(mu)


def measure_density(
    rho: RealField1D, cfg: MeasurementConfig, rng: np.random.Generator | None
) -> RealField1D:
    """Simulated destructive density measurement.

    With noise_std = 0 the input is returned unchanged and ``rng`` is not
    read (None will do).  Otherwise additive Gaussian noise is drawn from
    ``rng``, a ValueError if it is None, and negative samples are clamped
    to 0, so the measurement stays a density.
    """
    if np.any(rho.values < 0):
        raise ValueError("density must be non-negative")
    if cfg.noise_std == 0.0:
        return rho
    if rng is None:
        raise ValueError("a noisy measurement needs a random generator, got rng=None")
    noisy = rho.values + rng.normal(0.0, cfg.noise_std, size=rho.values.shape)
    return RealField1D(grid=rho.grid, values=np.clip(noisy, 0.0, None))
