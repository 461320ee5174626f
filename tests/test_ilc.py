"""Learning-control checks: gain model, plant spectrum, kernel, update.

The central property is per-mode contraction: driving a surrogate plant
e = -alpha_bar (g_z * dnu) with the designed kernel must shrink every
excited spatial mode by exactly 1 - |G|^2/(gamma + |G|^2) per iteration.
"""

import numpy as np
import pytest
from scipy.optimize import brentq

from potshape.core import (
    RealField1D,
    SpatialGrid1D,
    Spectrum1D,
    convolve,
    same_grid,
    spectrum,
)
from potshape.harness import error_norm, level_update
from potshape.ilc import (
    correction,
    density_error,
    design_kernel,
    gain_profile,
    scaled_error,
    transfer_function,
)
from potshape.condensate import CondensateParams, nonlinearity
from potshape.optics import PsfModel

ALPHA_BAR = 1.3695


@pytest.fixture(scope="module")
def fine_grid():
    return SpatialGrid1D(400.0, 2048)


@pytest.fixture(scope="module")
def transfer(fine_grid):
    return transfer_function(ALPHA_BAR, PsfModel(), fine_grid)


# -------------------------------------------------------- density error


def test_density_error_is_amplitude_difference():
    g = SpatialGrid1D(10.0, 21)
    rho_m = RealField1D(grid=g, values=np.full(21, 1.44))
    rho_d = RealField1D(grid=g, values=np.ones(21))
    e = density_error(rho_m, rho_d)
    assert np.max(np.abs(e.values - 0.2)) < 1e-12
    neg = RealField1D(grid=g, values=np.full(21, -0.1))
    with pytest.raises(ValueError):
        density_error(neg, rho_d)
    other = RealField1D(grid=SpatialGrid1D(10.0, 22), values=np.ones(22))
    with pytest.raises(ValueError):
        density_error(rho_m, other)


# ----------------------------------------------------------------- gain


def _balance_amplitude(v, mu, params):
    """sqrt(rho) solving h(rho) = mu - v, by root finding through nonlinearity."""
    rho = brentq(lambda r: float(nonlinearity(r, params)) - (mu - v), 0.0, 1e3, xtol=1e-16, rtol=1e-15)
    return np.sqrt(rho)


def test_gain_profile_formula():
    # alpha = -d sqrt(rho)/d nu of the local balance h(rho) = mu_d - V at
    # fixed mu_d, with dV/dnu = 2 sqrt(alpha_v (V_d - V_mag)) e_max: checked
    # against a central difference of the balance solved through nonlinearity
    g = SpatialGrid1D(20.0, 11)
    p = CondensateParams()
    v_d = RealField1D(grid=g, values=np.linspace(0.0, 10.0, 11))
    v_m = RealField1D(grid=g, values=np.zeros(11))
    mu_d = 8.0
    e_max = 8.0
    gain = gain_profile(v_d, v_m, mu_d, p, e_max, 1.0)
    assert gain.eps_opt == pytest.approx(0.5)  # 5% of max V_d
    assert gain.eps_mu == pytest.approx(0.05 * p.omega_perp)
    expect_mask = (v_d.values > gain.eps_opt) & (mu_d - v_d.values > gain.eps_mu)
    assert np.array_equal(gain.support, expect_mask)
    s = v_d.values[expect_mask]
    dv = 1e-4
    slope = np.array(
        [
            (_balance_amplitude(v - dv, mu_d, p) - _balance_amplitude(v + dv, mu_d, p)) / (2 * dv)
            for v in s
        ]
    )
    expect = slope * 2.0 * np.sqrt(s) * e_max
    assert np.max(np.abs(gain.alpha.values[expect_mask] / expect - 1.0)) < 1e-6
    rho = np.array([_balance_amplitude(v, mu_d, p) ** 2 for v in s])
    assert gain.alpha_bar == pytest.approx(np.sum(rho * expect) / np.sum(rho), rel=1e-6)
    assert np.all(gain.alpha.values[~expect_mask] == 0.0)

    # a field profile e_max p_z(z) scales the gain pointwise
    pz = np.exp(-((g.samples / 30.0) ** 2))
    shaped = gain_profile(v_d, v_m, mu_d, p, e_max * pz, 1.0)
    assert np.max(np.abs(shaped.alpha.values - gain.alpha.values * pz)) < 1e-13


def test_scaled_error_divides_out_the_spatial_gain():
    g = SpatialGrid1D(20.0, 11)
    v_d = RealField1D(grid=g, values=np.linspace(0.0, 10.0, 11))
    v_m = RealField1D(grid=g, values=np.zeros(11))
    gain = gain_profile(v_d, v_m, 8.0, CondensateParams(), 8.0, 1.0)
    e = RealField1D(grid=g, values=np.linspace(-1.0, 1.0, 11))
    out = scaled_error(e, gain).values
    s = gain.support
    assert np.allclose(out[s] * gain.alpha.values[s], e.values[s] * gain.alpha_bar, rtol=1e-14)
    assert np.array_equal(out[~s], e.values[~s])


def test_gain_profile_validation():
    g = SpatialGrid1D(20.0, 11)
    p = CondensateParams()
    v_d = RealField1D(grid=g, values=np.linspace(0.0, 10.0, 11))
    v_m = RealField1D(grid=g, values=np.zeros(11))
    with pytest.raises(ValueError, match="support is empty"):
        gain_profile(v_d, v_m, -5.0, p, 8.0, 1.0)  # nothing occupied
    with pytest.raises(ValueError):
        gain_profile(v_d, v_m, 8.0, p, 0.0, 1.0)
    with pytest.raises(ValueError):
        gain_profile(v_d, v_m, 8.0, p, 8.0, 0.0)
    with pytest.raises(ValueError):
        gain_profile(v_d, v_m, 8.0, CondensateParams(scattering_length=0.0), 8.0, 1.0)


# ----------------------------------------------------------- the plant


def test_transfer_function_dc_and_shape(fine_grid, transfer):
    k = transfer.wavenumbers
    assert transfer.values[0] == pytest.approx(-ALPHA_BAR, rel=1e-12)
    sigma = PsfModel().sigma_z
    expect = -ALPHA_BAR * np.exp(-0.5 * (sigma * k) ** 2)
    assert np.max(np.abs(transfer.values - expect)) < 1e-8 * ALPHA_BAR
    with pytest.raises(ValueError):
        transfer_function(0.0, PsfModel(), fine_grid)


def test_a_kernel_with_no_weight_on_the_grid_is_refused():
    # two samples at +-125 um, where g_z underflows to 0: the refusal names
    # the cause before the normalisation would divide 0 by 0
    grid = SpatialGrid1D(250.0, 2)
    assert not PsfModel().gz(grid.samples).any()
    refusal = "^the point-spread kernel sampled on the grid has no weight$"
    with pytest.raises(ValueError, match=refusal):
        transfer_function(ALPHA_BAR, PsfModel(), grid)


def test_transfer_is_hermitian(transfer):
    v = transfer.values
    # G(-k) = conj(G(k)) for a real kernel
    assert np.max(np.abs(v[1:] - np.conj(v[1:][::-1]))) < 1e-12 * ALPHA_BAR


# --------------------------------------------------------------- kernel


def test_kernel_defaults_and_geometry(transfer):
    lk = design_kernel(transfer)
    # gamma is one percent of the peak plant power |G(0)|^2 = alpha_bar^2
    assert lk.gamma == 1e-2 * ALPHA_BAR**2
    kg = lk.kernel.grid
    mid = kg.n_points // 2
    # sampled on integer lags with a literal z = 0 tap, symmetric window
    assert kg.n_points % 2 == 1
    assert kg.samples[mid] == 0.0
    assert np.max(np.abs(lk.kernel.values - lk.kernel.values[::-1])) < 1e-10 * np.max(
        np.abs(lk.kernel.values)
    )
    # truncation really shrinks the support
    assert kg.n_points < transfer.grid.n_points
    silent = Spectrum1D(grid=transfer.grid, values=np.zeros(transfer.grid.n_points))
    with pytest.raises(ValueError, match="no power"):
        design_kernel(silent)


def test_flat_spectrum_gives_delta_kernel(fine_grid):
    # constant G: the inverse filter is a pure gain, i.e. a delta kernel;
    # applying it must scale any field by G/(gamma + G^2), gamma = 1e-2 G^2
    c = 0.5
    g = Spectrum1D(grid=fine_grid, values=np.full(fine_grid.n_points, -c, dtype=complex))
    lk = design_kernel(g)
    gamma = 1e-2 * c**2
    assert lk.gamma == gamma
    assert lk.kernel.grid.n_points == 3  # delta plus one guard tap each side
    f = RealField1D(
        grid=fine_grid, values=np.exp(-fine_grid.samples**2 / 800.0)
    )
    out = convolve(f, lk.kernel)
    expect = -c / (gamma + c * c) * f.values
    assert np.max(np.abs(out.values - expect)) <= 1e-10 * np.max(np.abs(expect))


def test_a_kernel_spanning_its_whole_grid_matches_direct_quadrature():
    # on 60 um no tap falls below the tail cut, so the kernel keeps its
    # field's own odd grid and is applied by the compact route as it is
    grid = SpatialGrid1D(60.0, 601)
    kernel = design_kernel(transfer_function(0.5, PsfModel(), grid)).kernel
    assert same_grid(kernel.grid, grid)
    rng = np.random.default_rng(40)
    e = rng.standard_normal(grid.n_points) * np.exp(-grid.samples**2 / 200.0)
    out = convolve(RealField1D(grid=grid, values=e), kernel).values
    # k((i - j) dz) for lags out to +-(n - 1) dz, zero beyond the kernel's grid
    n = grid.n_points
    k = np.pad(kernel.values, n // 2)
    i = np.arange(n)
    direct = grid.dz * (k[i[:, None] - i[None, :] + n - 1] @ e)
    assert np.max(np.abs(out - direct)) <= 1e-13 * np.max(np.abs(direct))


def test_non_hermitian_spectrum_is_rejected(fine_grid):
    rng = np.random.default_rng(6)
    bad = Spectrum1D(
        grid=fine_grid,
        values=rng.standard_normal(fine_grid.n_points)
        + 1j * rng.standard_normal(fine_grid.n_points),
    )
    with pytest.raises(ValueError, match="imaginary"):
        design_kernel(bad)


# ------------------------------------------------- correction and update


def test_update_zero_error_is_a_fixed_point(transfer, small_prepared, small_lut):
    # a zero error has a zero correction, so the loop's update keeps the
    # input's table indices and counts no clamp
    lk = design_kernel(transfer)
    g = transfer.grid
    zero = RealField1D(grid=g, values=np.zeros(g.n_points))
    assert np.max(np.abs(correction(zero, lk, g))) == 0.0
    pre = small_prepared
    rng = np.random.default_rng(12)
    index = rng.integers(0, small_lut.n_nu, pre.col_grid.n_points)
    e = RealField1D(grid=pre.grid, values=np.zeros(pre.grid.n_points))
    held, clamp_count = level_update(index, e, error_norm(e), pre, small_lut)
    assert np.array_equal(held, index)
    assert clamp_count == 0


def test_update_correction_is_linear_in_the_error(transfer):
    lk = design_kernel(transfer)
    g = transfer.grid
    rng = np.random.default_rng(13)
    env = np.exp(-g.samples**2 / 2000.0)
    e1 = RealField1D(grid=g, values=rng.standard_normal(g.n_points) * env * 0.01)
    e2 = RealField1D(grid=g, values=rng.standard_normal(g.n_points) * env * 0.01)
    mix = RealField1D(grid=g, values=2.0 * e1.values - 3.0 * e2.values)
    c1 = correction(e1, lk, g)
    c2 = correction(e2, lk, g)
    cm = correction(mix, lk, g)
    scale = np.max(np.abs(cm)) + 1e-30
    assert np.max(np.abs(cm - (2.0 * c1 - 3.0 * c2))) < 1e-10 * scale


def test_update_clamps_and_counts(small_prepared, small_lut):
    # a raised and a lowered bump on the gain's support push the law's
    # target nu - L * e below 0 and above 1; the update counts both
    pre = small_prepared
    z = pre.grid.samples
    support = z[pre.gain.support]
    z1, z2 = support[len(support) // 4], support[3 * len(support) // 4]
    values = np.zeros(pre.grid.n_points)
    for zc, sign in ((z1, 1.0), (z2, -1.0)):
        bump = RealField1D(grid=pre.grid, values=np.exp(-((z - zc) ** 2) / 20.0))
        peak = np.max(np.abs(correction(scaled_error(bump, pre.gain), pre.kernel, pre.col_grid)))
        values += sign * 0.8 / peak * bump.values
    e = RealField1D(grid=pre.grid, values=values)
    index = small_lut.nearest_index(np.full(pre.col_grid.n_points, 0.5))
    nu = small_lut.nu_levels[index]
    raw = nu - correction(scaled_error(e, pre.gain), pre.kernel, pre.col_grid)
    below, above = np.count_nonzero(raw < 0.0), np.count_nonzero(raw > 1.0)
    assert below > 0 and above > 0
    _, clamp_count = level_update(index, e, error_norm(e), pre, small_lut)
    assert clamp_count == below + above


def test_update_on_the_reference_kernel_matches_the_direct_sum(
    reference_prepared, reference_lut
):
    pre = reference_prepared
    kernel = pre.kernel.kernel
    g = pre.grid
    rng = np.random.default_rng(21)
    e = 0.3 * rng.standard_normal(g.n_points)
    e[: g.n_points // 3] = 0.0
    e = RealField1D(grid=g, values=e)
    # the input on its table levels, as the loop applies it
    index = reference_lut.nearest_index(rng.uniform(0.0, 1.0, pre.col_grid.n_points))
    nu = reference_lut.nu_levels[index]
    # oracle: the direct sliding sum, sampled at the columns
    direct = g.dz * np.convolve(e.values, kernel.values, mode="same")
    corr = np.interp(pre.col_grid.samples, g.samples, direct)
    got = correction(e, pre.kernel, pre.col_grid)
    peak = np.max(np.abs(corr))
    assert peak > 0.5
    assert np.max(np.abs(got - corr)) <= 1e-13 * peak
    # columns between fine samples the error cannot reach get no correction
    unreached = g.n_points // 3 - kernel.grid.n_points // 2 - 1
    beyond = pre.col_grid.samples <= g.samples[unreached]
    assert np.count_nonzero(beyond) > 50
    assert np.all(got[beyond] == 0.0)
    # the loop's update counts the columns whose target nu - L * e, with
    # the error pre-scaled on the gain's support, leaves [0, 1]
    scaled = g.dz * np.convolve(scaled_error(e, pre.gain).values, kernel.values, mode="same")
    raw = nu - np.interp(pre.col_grid.samples, g.samples, scaled)
    _, clamp_count = level_update(index, e, error_norm(e), pre, reference_lut)
    assert clamp_count == np.count_nonzero((raw < 0.0) | (raw > 1.0)) > 0


# ---------------------------------------------------- mode contraction


def test_learning_loop_contracts_every_mode(fine_grid):
    psf = PsfModel()
    g = transfer_function(ALPHA_BAR, psf, fine_grid)
    lk = design_kernel(g)
    pred = 1.0 - np.abs(g.values) ** 2 / (lk.gamma + np.abs(g.values) ** 2)

    # g_z on integer lags out to +-10 sigma_z, with unit discrete mass
    lag = fine_grid.dz * np.arange(-128, 129)
    gz = psf.gz(lag)
    gz_field = RealField1D(
        grid=SpatialGrid1D.from_samples(lag), values=gz / (gz.sum() * fine_grid.dz)
    )
    z = fine_grid.samples
    dnu = 0.2 * np.exp(-(z**2) / (2.0 * 6.0**2)) * np.cos(1.1 * z)
    nu = 0.5 + dnu

    worst = 0.0
    for _ in range(5):
        dnu_field = RealField1D(grid=fine_grid, values=nu - 0.5)
        e = RealField1D(
            grid=fine_grid, values=-ALPHA_BAR * convolve(dnu_field, gz_field).values
        )
        raw = nu - correction(e, lk, fine_grid)
        assert np.all((raw >= 0.0) & (raw <= 1.0))
        s_old = spectrum(dnu_field).values
        s_new = spectrum(RealField1D(grid=fine_grid, values=raw - 0.5)).values
        excited = np.abs(s_old) > 1e-6 * np.max(np.abs(s_old))
        ratio = s_new[excited] / s_old[excited]
        worst = max(worst, float(np.max(np.abs(ratio - pred[excited]))))
        nu = raw
    assert worst < 1e-6
