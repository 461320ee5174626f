"""Grid, spectral-transform and quadrature-oracle checks.

Analytic oracles: closed-form Gaussian integrals and transforms, direct
DFT / sliding-sum reimplementations, and the discrete Parseval identity
(exact for fields that vanish at the domain edges).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from potshape.core import (
    RealField1D,
    SpatialGrid1D,
    Spectrum1D,
    convolve,
    require_same_grid,
    same_grid,
    spectrum,
)

from conftest import integrate


# ---------------------------------------------------------------- grids


def test_grid_samples_and_spacing():
    g = SpatialGrid1D(length=10.0, n_points=11)
    assert g.dz == 1.0
    assert g.samples[0] == -5.0 and g.samples[-1] == 5.0
    assert np.allclose(np.diff(g.samples), 1.0)
    # symmetric about the origin
    assert np.max(np.abs(g.samples + g.samples[::-1])) == 0.0


def test_grid_wavenumbers_are_fft_ordered():
    g = SpatialGrid1D(length=8.0, n_points=8)
    k = g.wavenumbers
    assert k[0] == 0.0
    assert np.allclose(k, 2.0 * np.pi * np.fft.fftfreq(8, d=g.dz))


def test_grid_validation():
    with pytest.raises(ValueError):
        SpatialGrid1D(length=-1.0, n_points=10)
    with pytest.raises(ValueError):
        SpatialGrid1D(length=np.inf, n_points=10)
    with pytest.raises(ValueError):
        SpatialGrid1D(length=1.0, n_points=1)


def test_from_samples_round_trip():
    g = SpatialGrid1D(length=12.0, n_points=25)
    g2 = SpatialGrid1D.from_samples(g.samples)
    assert same_grid(g, g2)
    assert type(g2.length) is float


def test_from_samples_rejects_bad_input():
    with pytest.raises(ValueError):
        SpatialGrid1D.from_samples([0.0])
    with pytest.raises(ValueError):
        SpatialGrid1D.from_samples([-1.0, 0.0, 2.0])  # non uniform
    with pytest.raises(ValueError):
        SpatialGrid1D.from_samples([0.0, 1.0, 2.0])  # not centred


def test_fields_validate_and_freeze():
    g = SpatialGrid1D(length=4.0, n_points=5)
    f = RealField1D(grid=g, values=np.arange(5.0))
    with pytest.raises(ValueError):
        f.values[0] = 7.0
    with pytest.raises(ValueError):
        RealField1D(grid=g, values=np.ones(4))
    with pytest.raises(ValueError):
        RealField1D(grid=g, values=[0.0, 1.0, np.nan, 3.0, 4.0])
    # a field is its grid and its real samples, nothing more
    assert [fd.name for fd in dataclasses.fields(RealField1D)] == ["grid", "values"]
    with pytest.raises(ValueError, match="a real field takes real values"):
        RealField1D(grid=g, values=np.ones(5) + 1e-12j)


def test_require_same_grid():
    a = RealField1D(grid=SpatialGrid1D(4.0, 5), values=np.zeros(5))
    b = RealField1D(grid=SpatialGrid1D(4.0, 9), values=np.zeros(9))
    require_same_grid(a, a)
    with pytest.raises(ValueError):
        require_same_grid(a, b)


# ----------------------------------------------------------- quadrature


def test_integrate_constant_and_odd():
    g = SpatialGrid1D(length=7.0, n_points=141)
    const = RealField1D(grid=g, values=np.full(g.n_points, 3.0))
    assert integrate(const) == pytest.approx(21.0, rel=1e-13)
    odd = RealField1D(grid=g, values=g.samples**3)
    assert integrate(odd) == pytest.approx(0.0, abs=1e-12)


def test_integrate_gaussian_matches_closed_form():
    g = SpatialGrid1D(length=100.0, n_points=2001)
    sigma = 5.0
    f = RealField1D(grid=g, values=np.exp(-g.samples**2 / (2 * sigma**2)))
    exact = sigma * np.sqrt(2.0 * np.pi)
    assert integrate(f) == pytest.approx(exact, rel=1e-8)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(-5, 5), st.floats(-5, 5))
def test_integrate_is_linear(seed, a, b):
    g = SpatialGrid1D(length=6.0, n_points=64)
    rng = np.random.default_rng(seed)
    fv = rng.standard_normal(64)
    gv = rng.standard_normal(64)
    lhs = integrate(RealField1D(grid=g, values=a * fv + b * gv))
    rhs = a * integrate(RealField1D(grid=g, values=fv)) + b * integrate(
        RealField1D(grid=g, values=gv)
    )
    assert lhs == pytest.approx(rhs, abs=1e-10)


# ------------------------------------------------------------- spectra


def test_spectrum_of_grid_delta_is_flat():
    # unit-mass delta at z = 0: F(k) = exp(-i k 0) = 1 for every mode
    g = SpatialGrid1D(length=128.0, n_points=129)
    v = np.zeros(129)
    v[64] = 1.0 / g.dz
    assert g.samples[64] == 0.0
    s = spectrum(RealField1D(grid=g, values=v))
    assert np.max(np.abs(s.values - 1.0)) < 1e-12


def test_spectrum_gaussian_matches_closed_form():
    # exp(-z^2 / (2 s^2))  ->  s sqrt(2 pi) exp(-s^2 k^2 / 2)
    g = SpatialGrid1D(length=200.0, n_points=1001)
    s_z = 4.0
    f = RealField1D(grid=g, values=np.exp(-g.samples**2 / (2 * s_z**2)))
    got = spectrum(f)
    expect = s_z * np.sqrt(2.0 * np.pi) * np.exp(-0.5 * (s_z * got.wavenumbers) ** 2)
    assert np.max(np.abs(got.values - expect)) < 1e-8


def test_spectrum_matches_direct_dft_sum():
    g = SpatialGrid1D(length=16.0, n_points=128)
    rng = np.random.default_rng(21)
    vals = rng.standard_normal(128)
    s = spectrum(RealField1D(grid=g, values=vals))
    # direct O(n^2) evaluation of dz * sum_j f_j exp(-i k z_j)
    phase = np.exp(-1j * np.outer(s.wavenumbers, g.samples))
    direct = g.dz * phase @ vals
    assert np.max(np.abs(s.values - direct)) < 1e-10


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_parseval_for_edge_vanishing_fields(seed):
    # int |f|^2 dz = (1/2pi) sum |F_m|^2 dk, exact when the edge samples
    # are zero (trapezoid and rectangle sums then coincide)
    g = SpatialGrid1D(length=10.0, n_points=100)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(100)
    v[0] = v[-1] = 0.0
    f = RealField1D(grid=g, values=v)
    s = spectrum(f)
    dk = 2.0 * np.pi / (g.n_points * g.dz)
    lhs = integrate(RealField1D(grid=g, values=v * v))
    rhs = np.sum(np.abs(s.values) ** 2) * dk / (2.0 * np.pi)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_spectrum_container_validates_shapes():
    g = SpatialGrid1D(length=4.0, n_points=8)
    with pytest.raises(ValueError, match=r"expected shape \(8,\), got \(7,\)"):
        Spectrum1D(grid=g, values=np.zeros(7))
    # the wavenumbers are the grid's
    assert np.array_equal(Spectrum1D(grid=g, values=np.zeros(8)).wavenumbers, g.wavenumbers)


# --------------------------------------------------------- convolution


def _gaussian(g, s):
    return np.exp(-g.samples**2 / (2.0 * s * s))


def test_convolve_same_grid_delta_identity():
    g = SpatialGrid1D(length=60.0, n_points=301)
    f = RealField1D(grid=g, values=_gaussian(g, 4.0))
    dv = np.zeros(g.n_points)
    dv[g.n_points // 2] = 1.0 / g.dz
    delta = RealField1D(grid=g, values=dv)
    out = convolve(f, delta)
    assert np.max(np.abs(out.values - f.values)) < 1e-10


def test_convolve_gaussians_add_widths():
    # G_a * G_b = sqrt(2 pi) a b / c * G_c with c^2 = a^2 + b^2
    g = SpatialGrid1D(length=120.0, n_points=1201)
    a, b = 3.0, 4.0
    c = np.hypot(a, b)
    fa = RealField1D(grid=g, values=_gaussian(g, a))
    fb = RealField1D(grid=g, values=_gaussian(g, b))
    out = convolve(fa, fb)
    expect = np.sqrt(2.0 * np.pi) * a * b / c * _gaussian(g, c)
    assert np.max(np.abs(out.values - expect)) < 1e-6


def test_convolve_zero_field_is_zero():
    g = SpatialGrid1D(length=10.0, n_points=51)
    z = RealField1D(grid=g, values=np.zeros(51))
    k = RealField1D(grid=g, values=_gaussian(g, 1.0))
    assert np.max(np.abs(convolve(z, k).values)) == 0.0


def test_compact_kernel_matches_direct_sliding_sum():
    g = SpatialGrid1D(length=50.0, n_points=101)
    rng = np.random.default_rng(3)
    fv = rng.standard_normal(101)
    kg = SpatialGrid1D(length=3.0, n_points=7)  # same dz = 0.5
    kv = rng.standard_normal(7)
    out = convolve(RealField1D(grid=g, values=fv), RealField1D(grid=kg, values=kv))
    mid = 3
    direct = np.zeros(101)
    for i in range(101):
        for j in range(101):
            p = i - j + mid
            if 0 <= p < 7:
                direct[i] += fv[j] * kv[p]
    direct *= g.dz
    assert np.max(np.abs(out.values - direct)) < 1e-12 * np.max(np.abs(direct))


def test_compact_kernel_longer_than_its_field_matches_direct_quadrature():
    # 41 taps over a 21-point field: every output sums the whole field
    g = SpatialGrid1D(length=10.0, n_points=21)
    kg = SpatialGrid1D(length=20.0, n_points=41)  # same dz = 0.5

    def k(z):
        return np.exp(-z / 3.0) * np.cos(z)

    fv = np.random.default_rng(8).standard_normal(21)
    out = convolve(RealField1D(grid=g, values=fv), RealField1D(grid=kg, values=k(kg.samples)))
    z = g.samples
    direct = g.dz * (k(z[:, None] - z[None, :]) @ fv)
    assert np.max(np.abs(out.values - direct)) < 1e-13 * np.max(np.abs(direct))


def test_compact_kernel_is_exactly_zero_beyond_the_field_reach():
    g = SpatialGrid1D(length=100.0, n_points=201)
    kg = SpatialGrid1D(length=10.0, n_points=21)  # reach of 10 samples
    fv = np.zeros(201)
    fv[100:120] = np.random.default_rng(9).standard_normal(20)
    fv[150] = 1.0
    out = convolve(RealField1D(grid=g, values=fv), RealField1D(grid=kg, values=_gaussian(kg, 4.0)))
    reached = np.zeros(201, dtype=bool)
    for j in np.flatnonzero(fv):
        reached[max(j - 10, 0) : j + 11] = True
    assert np.all(out.values[~reached] == 0.0)
    assert np.all(out.values[reached] != 0.0)


def test_compact_kernel_agrees_with_spectral_path():
    g = SpatialGrid1D(length=80.0, n_points=401)
    f = RealField1D(grid=g, values=_gaussian(g, 6.0))
    kg = SpatialGrid1D(length=8.0, n_points=41)
    kv = _gaussian(kg, 1.0)
    compact = convolve(f, RealField1D(grid=kg, values=kv))
    embedded = np.zeros(g.n_points)
    mid = g.n_points // 2
    embedded[mid - 20 : mid + 21] = kv
    full = convolve(f, RealField1D(grid=g, values=embedded))
    assert np.max(np.abs(compact.values - full.values)) < 1e-10


def test_compact_kernel_validation():
    g = SpatialGrid1D(length=50.0, n_points=101)
    f = RealField1D(grid=g, values=np.zeros(101))
    wrong_dz = SpatialGrid1D(length=3.0, n_points=11)
    with pytest.raises(ValueError):
        convolve(f, RealField1D(grid=wrong_dz, values=np.zeros(11)))
    even = SpatialGrid1D(length=2.5, n_points=6)  # matching dz but no z = 0 sample
    with pytest.raises(ValueError):
        convolve(f, RealField1D(grid=even, values=np.zeros(6)))
