"""Iterative learning of the virtual input from measured density errors.

The measured error is expressed on amplitude level, e = sqrt(rho) -
sqrt(rho_d), because the stationary density responds to the potential
through the local chemical-potential balance mu_d = V + h(rho).
Linearising that balance around the desired state gives a spatial gain
alpha(z) and, after replacing it with its density-weighted mean over the
support, a shift-invariant plant

    e(k) = G(k) dnu(k),   G(k) = -alpha_bar * F{g_z}(k),

whose regularised pseudo-inverse is the learning kernel

    L(k) = G*(k) / (gamma + |G(k)|^2).

Applying the kernel with a negative sign, nu <- clamp(nu - L * e, 0, 1),
contracts every spatial mode by 1 - |G|^2/(gamma + |G|^2) in the
linearised model; the regularisation keeps the filter bounded where the
optical response has no authority.  Pre-scaling the error by
alpha_bar / alpha(z) on the support hands the kernel the spatial gain
it was designed for.  G(k) serves only this design.

The loop applies the law in one place, harness.level_update, which
holds the input on the table's levels, counts the columns the law
would clamp and judges its moves with the plant's own column response.
This module supplies only the law's correction L * e (:func:`correction`)
and the error, gain and kernel it is built from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft

from .condensate import inverse_nonlinearity
from .core import (
    RealField1D,
    SpatialGrid1D,
    Spectrum1D,
    convolve,
    require_same_grid,
    spectrum,
)
from .optics import PsfModel

__all__ = [
    "GainProfile",
    "LearningKernel",
    "density_error",
    "gain_profile",
    "scaled_error",
    "transfer_function",
    "design_kernel",
    "correction",
]

KERNEL_TAIL_CUT = 1e-8


def density_error(rho_meas: RealField1D, rho_desired: RealField1D) -> RealField1D:
    """Amplitude-level error sqrt(rho_meas) - sqrt(rho_desired)."""
    require_same_grid(rho_meas, rho_desired)
    if np.any(rho_meas.values < 0) or np.any(rho_desired.values < 0):
        raise ValueError("densities must be non-negative")
    return RealField1D(
        grid=rho_meas.grid,
        values=np.sqrt(rho_meas.values) - np.sqrt(rho_desired.values),
    )


@dataclass(frozen=True)
class GainProfile:
    """Spatial linearisation gain and its density-weighted mean over the support."""

    alpha: RealField1D
    alpha_bar: float
    support: np.ndarray
    eps_opt: float
    eps_mu: float

    def __post_init__(self):
        s = np.asarray(self.support, dtype=bool).copy()
        s.flags.writeable = False
        object.__setattr__(self, "support", s)


def gain_profile(
    v_desired: RealField1D,
    v_magnetic: RealField1D,
    mu_desired: float,
    params,
    e_perp_max,
    alpha_v: float,
) -> GainProfile:
    """Gain alpha(z) = -d sqrt(rho) / d nu of the local balance mu_d = V + h(rho).

    At fixed mu_d a potential change dV moves the amplitude by
    -dV / (2 sqrt(rho_d) h'(rho_d)), where rho_d solves h(rho_d) = mu_d - V_d.
    The optical potential alpha_v E^2 moves by 2 sqrt(alpha_v (V_d - V_mag))
    times the field per unit input, E_max p_z, so

        alpha = E_max p_z sqrt(alpha_v (V_d - V_mag)) / (sqrt(rho_d) h'(rho_d)).

    ``e_perp_max`` is that field per unit input: a scalar, or its samples
    E_max p_z(z) on the grid.  The balance inverts in closed form
    (condensate.inverse_nonlinearity), and with x = b rho,
    h'(rho) = b omega_perp (2 + 3x) / (1 + 2x)^(3/2);
    for b rho << 1 the gain tends to E_max p_z sqrt(alpha_v (V_d - V_mag) /
    (mu_d - V_d)) / sqrt(2 omega_perp b).  alpha_bar is the rho_d-weighted
    mean of alpha over the support.

    Evaluated only on the support S where the optical part of the desired
    potential exceeds eps_opt = 5% of max V_d and the desired state is
    occupied by at least eps_mu = 5% of omega_perp; both square roots are
    singular at the respective edges.  The thresholds are fixed here, not
    set by a caller; the profile records them.
    """
    require_same_grid(v_desired, v_magnetic)
    e_field = np.broadcast_to(np.asarray(e_perp_max, dtype=float), v_desired.values.shape)
    if np.any(e_field <= 0) or alpha_v <= 0:
        raise ValueError("e_perp_max and alpha_v must be positive")
    if params.coupling <= 0:
        raise ValueError("linearisation gain needs interactions (a_s N > 0)")
    eps_opt = 0.05 * float(np.max(v_desired.values))
    eps_mu = 0.05 * params.omega_perp
    s_opt = v_desired.values - v_magnetic.values
    s_mu = mu_desired - v_desired.values
    mask = (s_opt > eps_opt) & (s_mu > eps_mu)
    if not np.any(mask):
        raise ValueError(
            "gain support is empty: nowhere is the desired potential both "
            "optically dominated and occupied"
        )
    b, w = params.coupling, params.omega_perp
    rho = inverse_nonlinearity(s_mu[mask], params)
    x = b * rho
    slope = b * w * (2.0 + 3.0 * x) / (1.0 + 2.0 * x) ** 1.5
    alpha = np.zeros_like(s_opt)
    alpha[mask] = e_field[mask] * np.sqrt(alpha_v * s_opt[mask]) / (np.sqrt(rho) * slope)
    alpha_bar = float(np.sum(rho * alpha[mask]) / np.sum(rho))
    return GainProfile(
        alpha=RealField1D(grid=v_desired.grid, values=alpha),
        alpha_bar=alpha_bar,
        support=mask,
        eps_opt=float(eps_opt),
        eps_mu=float(eps_mu),
    )


def scaled_error(e: RealField1D, gain: GainProfile) -> RealField1D:
    """Error pre-scaled by alpha_bar / alpha(z) on the support, unchanged off it.

    The kernel inverts the plant with the single gain alpha_bar; scaling
    the error first makes it invert alpha(z) on the support instead.
    """
    require_same_grid(e, gain.alpha)
    s = gain.support
    values = e.values.copy()
    values[s] *= gain.alpha_bar / gain.alpha.values[s]
    return RealField1D(grid=e.grid, values=values)


def transfer_function(alpha_bar: float, psf: PsfModel, grid: SpatialGrid1D) -> Spectrum1D:
    """Plant spectrum G(k) = -alpha_bar * F{g_z}(k) on the grid's band.

    The sampled point-spread kernel is renormalised to unit discrete
    mass so that G(0) = -alpha_bar exactly; a grid whose samples all lie
    where g_z underflows to 0 gives no mass and is a ValueError.
    """
    if alpha_bar <= 0:
        raise ValueError("alpha_bar must be positive")
    gz = psf.gz(grid.samples)
    mass = gz.sum() * grid.dz
    if mass <= 0:
        raise ValueError("the point-spread kernel sampled on the grid has no weight")
    gz = gz / mass
    g = spectrum(RealField1D(grid=grid, values=gz))
    return Spectrum1D(grid=grid, values=-alpha_bar * g.values)


@dataclass(frozen=True)
class LearningKernel:
    """Real-space learning filter with its design metadata."""

    kernel: RealField1D
    gamma: float


def design_kernel(g: Spectrum1D) -> LearningKernel:
    """Regularised pseudo-inverse filter L = F^-1{G*/(gamma + |G|^2)}.

    gamma is one percent of the peak plant power, 1e-2 max|G|^2; a
    spectrum with no power is a ValueError.  The kernel is sampled on
    integer lags q * dz with a literal z = 0 sample, so that convolving
    it with a field on the design grid reduces to a sliding sum whether
    or not that grid itself contains z = 0.  It is then truncated to the
    symmetric window outside which it falls below KERNEL_TAIL_CUT of its
    peak, so convolutions pay only for the effective support, and keeps
    at least the lags -dz, 0 and +dz; a grid whose lags do not hold them
    (one of 2 points) is a ValueError.  gamma and the cut are fixed here,
    not set by a caller.
    """
    gamma = 1e-2 * float(np.max(np.abs(g.values) ** 2))
    if gamma <= 0:
        raise ValueError("plant spectrum has no power: the regularisation gamma is 0")
    lhat = np.conj(g.values) / (gamma + np.abs(g.values) ** 2)
    gr = g.grid
    n, dz = gr.n_points, gr.dz
    z0 = gr.samples[0]
    # inverse transform evaluated at the integer-lag positions: shift the
    # usual sample positions z0 + j dz onto multiples of dz
    j0 = round(z0 / dz)
    if j0 > -1 or j0 + n - 1 < 1:
        raise ValueError(
            f"a grid of {n} points holds no lag on each side of z = 0 for the "
            "learning kernel; grid.n_points must be 3 or more"
        )
    vals = scipy.fft.ifft(lhat * np.exp(1j * g.wavenumbers * (j0 * dz))) / dz
    lags = (j0 + np.arange(n)) * dz
    peak = np.max(np.abs(vals))
    if peak > 0 and np.max(np.abs(vals.imag)) > 1e-9 * peak:
        raise ValueError("learning kernel has a non-negligible imaginary part")
    vals = vals.real
    mag = np.abs(vals)
    keep = mag >= KERNEL_TAIL_CUT * mag.max()
    z_t = float(np.max(np.abs(lags[keep])))
    z_t = min(z_t, -float(lags[0]), float(lags[-1]))
    # a perfectly concentrated kernel (constant spectrum) would truncate to a
    # single tap; keep at least one neighbour on each side
    z_t = max(z_t, dz)
    sel = np.abs(lags) <= z_t * (1.0 + 1e-12) + 1e-12 * dz
    kernel = RealField1D(grid=SpatialGrid1D.from_samples(lags[sel]), values=vals[sel])
    return LearningKernel(kernel=kernel, gamma=float(gamma))


def correction(e_rho: RealField1D, kernel: LearningKernel, grid: SpatialGrid1D) -> np.ndarray:
    """The law's correction L * e at the positions of ``grid``.

    The kernel is convolved with the error on the error's (fine) grid
    (:func:`core.convolve`, one zero-padded real FFT product),
    then sampled at the positions of ``grid`` (the input's columns);
    positions outside the error grid take the nearest edge value.  Where
    no non-zero error lies within the kernel's reach the correction is
    exactly 0.
    """
    conv = convolve(e_rho, kernel.kernel)
    return np.interp(grid.samples, e_rho.grid.samples, conv.values)

