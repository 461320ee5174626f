"""Optical model checks: imaging kernels, propagation routes, potentials.

The two propagation routes (direct pixel sum vs closed-form column
response) are algebraically independent, so their agreement is the main
oracle here.  Scalar references were computed with scipy.integrate.quad
and closed-form Gaussian integrals.
"""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erf

from conftest import dense_matrix
from potshape.core import BLOCK_BYTES, RealField1D, SpatialGrid1D
from potshape.optics import (
    BeamProfile,
    DarkSpot,
    DmdPattern,
    MagneticPotentialSpec,
    PsfModel,
    TransmissionDisturbance,
    calibrate_beam,
    column_grid,
    column_response,
    column_sums,
    e_perp_max,
    magnetic_potential,
    pixel_centers,
    potential_from_field,
    propagate_full,
    propagate_separable,
    transversal_weights,
)

OMEGA_PAR = 2.0 * np.pi * 0.007
MASS = 1.368
V_MAX = 2.0 * np.pi * 8.0


# ------------------------------------------------------- imaging kernels


def test_gz_is_unit_mass_gaussian():
    psf = PsfModel()
    z = np.linspace(-30.0, 30.0, 6001)
    gz = psf.gz(z)
    assert np.trapezoid(gz, z) == pytest.approx(1.0, rel=1e-10)
    assert np.max(np.abs(gz - gz[::-1])) < 1e-15
    # variance equals sigma_z^2
    var = np.trapezoid(z * z * gz, z)
    assert var == pytest.approx(psf.sigma_z**2, rel=1e-8)


def test_gz_equals_the_plain_gaussian_expression():
    psf = PsfModel()
    s = psf.sigma_z
    z = np.linspace(-300.0, 300.0, 60001)
    kept = z.copy()
    want = np.exp(-0.5 * (z / s) ** 2) / (s * np.sqrt(2.0 * np.pi))
    assert np.array_equal(psf.gz(z), want)
    assert np.array_equal(z, kept)  # the in-place steps work on a copy
    assert np.array_equal(psf.gz(z[1:].reshape(100, -1)), want[1:].reshape(100, -1))
    g = psf.gz(-0.7)
    assert np.ndim(g) == 0
    assert float(g) == np.exp(-0.5 * (-0.7 / s) ** 2) / (s * np.sqrt(2.0 * np.pi))
    assert float(psf.gz(3)) == float(psf.gz(3.0))


def test_gy_truncation_and_normalisation():
    psf = PsfModel()
    cut = psf.gy_zero_cut * psf.w_y
    y = np.linspace(-cut, cut, 400001)
    assert np.trapezoid(psf.gy(y), y) == pytest.approx(1.0, rel=1e-8)
    assert psf.gy(cut + 1e-9) == 0.0
    assert psf.gy(-cut - 5.0) == 0.0
    # first negative lobe of the sinc response
    assert psf.gy(1.5 * psf.w_y) < 0.0
    assert np.max(np.abs(psf.gy(y) - psf.gy(-y))) == 0.0


def test_psf_validation():
    with pytest.raises(ValueError):
        PsfModel(sigma_z=0.0)
    with pytest.raises(ValueError):
        PsfModel(w_y=-1.0)
    with pytest.raises(ValueError):
        PsfModel(gy_zero_cut=0)


# --------------------------------------------------- geometry and bits


def test_pixel_centres_are_symmetric():
    r = pixel_centers(4, 1.0)
    assert np.allclose(r, [-1.5, -0.5, 0.5, 1.5])
    c = pixel_centers(5, 2.0)
    assert np.allclose(c, [-4.0, -2.0, 0.0, 2.0, 4.0])
    g = column_grid(5, 2.0)
    assert np.allclose(g.samples, c)


def test_pattern_validation_and_hash():
    bits = np.zeros((4, 6), dtype=int)
    p = DmdPattern(bits=bits)
    assert p.n_t == 4 and p.n_l == 6
    with pytest.raises(ValueError):
        p.bits[0, 0] = 1
    with pytest.raises(ValueError):
        DmdPattern(bits=np.full((2, 2), 2))
    with pytest.raises(ValueError):
        DmdPattern(bits=np.zeros(4))
    with pytest.raises(ValueError):
        DmdPattern(bits=bits, pixel_pitch=0.0)
    h0 = p.sha256()
    assert h0 == DmdPattern(bits=bits).sha256()
    flipped = bits.copy()
    flipped[1, 3] = 1
    assert DmdPattern(bits=flipped).sha256() != h0
    assert DmdPattern(bits=bits, pixel_pitch=2.0).sha256() != h0


@pytest.mark.parametrize("n_t", [130, 200])
def test_full_route_takes_patterns_wider_than_the_psf_window(n_t):
    # rows beyond g_y's truncation window (48 um) add nothing, so a
    # pattern of any width sums like the plant's column_sums
    psf = PsfModel()
    beam = calibrate_beam(psf, BeamProfile(), n_t, 1.0, v_max=V_MAX, alpha_v=1.0, headroom=1.3)
    grid = SpatialGrid1D(250.0, 501)
    pattern = _lobe_pattern(n_t, 200, psf, seed=n_t)
    want = column_response(grid, column_grid(200, 1.0), psf, beam).field(
        column_sums(pattern, psf, beam)
    )
    got = propagate_full(pattern, beam, psf, grid).values
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


# ------------------------------------------------ transversal weights


def test_transversal_weights_symmetry_and_sign():
    psf = PsfModel()
    beam = BeamProfile()
    w0 = transversal_weights(psf, beam, 100, 1.0, [0.0])[0]
    assert w0.shape == (100,)
    # even psf and beam on a symmetric pixel lattice
    assert np.max(np.abs(w0 - w0[::-1])) < 1e-15
    # sinc side lobes make some contributions negative
    assert np.any(w0 < 0.0) and w0.sum() > 0.0


def test_calibration_hits_headroom_target():
    psf = PsfModel()
    beam = calibrate_beam(psf, BeamProfile(), 100, 1.0, v_max=V_MAX, alpha_v=1.0, headroom=1.3)
    target = np.sqrt(1.3 * V_MAX)
    assert e_perp_max(psf, beam, 100, 1.0) == pytest.approx(target, rel=1e-14)
    assert (beam.sigma_y, beam.sigma_z) == (BeamProfile().sigma_y, BeamProfile().sigma_z)
    # the amplitude is set by the calibration only, not by the caller
    with pytest.raises(TypeError):
        BeamProfile(amplitude=3.0)


# ----------------------------------------------------- magnetic potential


def test_magnetic_potential_reference_value():
    grid = SpatialGrid1D(200.0, 201)
    # the harmonic term alone: the default ripple's sine is 0 only to rounding here
    spec = MagneticPotentialSpec(omega_par=OMEGA_PAR, ripple_amplitude=0.0)
    v = magnetic_potential(spec, MASS, grid)
    assert grid.samples[-1] == 100.0
    assert v.values[-1] == pytest.approx(13.231586444276436, rel=1e-13)
    assert v.values[grid.n_points // 2] == 0.0


def test_magnetic_potential_ripple_term():
    grid = SpatialGrid1D(40.0, 81)
    spec = MagneticPotentialSpec(
        omega_par=OMEGA_PAR, ripple_amplitude=0.5, ripple_wavelength=10.0, ripple_phase=0.3
    )
    v = magnetic_potential(spec, MASS, grid)
    z = grid.samples
    expect = 0.5 * MASS * OMEGA_PAR**2 * z**2 + 0.5 * np.sin(2 * np.pi * z / 10.0 + 0.3)
    assert np.max(np.abs(v.values - expect)) < 1e-12
    with pytest.raises(ValueError):
        MagneticPotentialSpec(omega_par=-1.0)
    with pytest.raises(ValueError):
        MagneticPotentialSpec(omega_par=1.0, ripple_wavelength=0.0)


# ----------------------------------------------------------- propagation


def test_all_off_pattern_gives_zero_field():
    psf = PsfModel()
    beam = BeamProfile()
    grid = SpatialGrid1D(50.0, 201)
    pat = DmdPattern(bits=np.zeros((20, 40), dtype=int))
    e = propagate_full(pat, beam, psf, grid)
    assert np.max(np.abs(e.values)) == 0.0


def test_propagation_is_linear_in_disjoint_pixels():
    psf = PsfModel()
    beam = BeamProfile()
    grid = SpatialGrid1D(60.0, 241)
    rng = np.random.default_rng(5)
    mask = rng.random((30, 50)) < 0.5
    a = np.where(mask, rng.integers(0, 2, (30, 50)), 0)
    b = np.where(~mask, rng.integers(0, 2, (30, 50)), 0)
    ea = propagate_full(DmdPattern(bits=a), beam, psf, grid).values
    eb = propagate_full(DmdPattern(bits=b), beam, psf, grid).values
    eab = propagate_full(DmdPattern(bits=a + b), beam, psf, grid).values
    scale = np.max(np.abs(eab))
    assert np.max(np.abs(eab - (ea + eb))) < 1e-12 * scale


def test_field_translates_with_the_pattern():
    # with a flat illumination envelope, shifting the pattern one pixel
    # must shift the sampled field by exactly one grid step (dz = pitch)
    psf = PsfModel()
    beam = BeamProfile(sigma_z=1e9)
    grid = SpatialGrid1D(400.0, 401)
    rng = np.random.default_rng(11)
    a = rng.integers(0, 2, (10, 400))
    a[:, -1] = 0
    b = np.zeros_like(a)
    b[:, 1:] = a[:, :-1]
    ea = propagate_full(DmdPattern(bits=a), beam, psf, grid).values.real
    eb = propagate_full(DmdPattern(bits=b), beam, psf, grid).values.real
    scale = np.max(np.abs(ea))
    assert np.max(np.abs(eb[1:] - ea[:-1])) < 1e-12 * scale


def test_single_column_peak_against_quadrature():
    psf = PsfModel()
    beam = BeamProfile()
    grid = SpatialGrid1D(40.0, 401)
    bits = np.zeros((100, 1), dtype=int)
    bits[:, 0] = 1
    pat = DmdPattern(bits=bits)
    e = propagate_full(pat, beam, psf, grid).values.real
    col = beam.amplitude * transversal_weights(psf, beam, 100, 1.0, [0.0])[0].sum()
    q, _ = quad(lambda t: psf.gz(-t) * beam.pz(t), -0.5, 0.5, epsabs=1e-14)
    assert e[grid.n_points // 2] == pytest.approx(col * q, rel=1e-10)


def test_separable_route_matches_full_route():
    # mixed pattern: every column has a different transversal filling, so
    # this exercises the full per-column amplitude bookkeeping
    psf = PsfModel()
    beam = calibrate_beam(psf, BeamProfile(), 40, 1.0, v_max=V_MAX, alpha_v=1.0, headroom=1.3)
    grid = SpatialGrid1D(60.0, 601)
    n_l = 41
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2, (40, n_l))
    pat = DmdPattern(bits=bits)
    v_full = potential_from_field(propagate_full(pat, beam, psf, grid), 1.0).values

    # per-column amplitudes; normalise by a scale above the largest one so
    # the sinc side lobes cannot push any value outside [0, 1]
    w0 = transversal_weights(psf, beam, 40, 1.0, [0.0])[0]
    cols = beam.amplitude * (w0 @ bits)
    assert cols.min() > 0.0
    scale_e = 1.1 * cols.max()
    nu = RealField1D(grid=column_grid(n_l, 1.0), values=cols / scale_e)
    v_sep = propagate_separable(nu, beam, psf, grid, scale_e, 1.0).values
    scale = np.max(v_full)
    assert np.max(np.abs(v_full - v_sep)) < 1e-8 * scale


def test_column_response_matches_the_pixel_sum_with_signed_columns():
    # E(0, z) = amplitude * Z @ (w0 @ bits) against the direct pixel sum.
    # One column has mirrors only in the first negative sinc lobe
    # (w_y < |y| < 2 w_y), so its on-axis sum is negative and its field
    # cancels part of its neighbours'; the magnitude of that sum would add.
    psf = PsfModel()
    beam = calibrate_beam(psf, BeamProfile(), 40, 1.0, v_max=V_MAX, alpha_v=1.0, headroom=1.3)
    grid = SpatialGrid1D(60.0, 601)
    n_l = 21
    rng = np.random.default_rng(23)
    bits = rng.integers(0, 2, (40, n_l))
    y = pixel_centers(40, 1.0)
    bits[:, 10] = (np.abs(y) > psf.w_y) & (np.abs(y) < 2.0 * psf.w_y)
    w0 = transversal_weights(psf, beam, 40, 1.0, [0.0])[0]
    cols = beam.amplitude * (w0 @ bits)
    assert cols[10] < 0.0

    band = column_response(grid, column_grid(n_l, 1.0), psf, beam)
    assert dense_matrix(band).shape == (grid.n_points, n_l)
    e_full = propagate_full(DmdPattern(bits=bits), beam, psf, grid).values.real
    scale = np.max(np.abs(e_full))
    assert np.max(np.abs(band.field(cols) - e_full)) < 1e-12 * scale
    assert np.max(np.abs(band.field(np.abs(cols)) - e_full)) > 1e-3 * scale


def _lobe_pattern(n_t, n_l, psf, seed):
    # random columns, every fifth with mirrors only in the first negative
    # sinc lobe, whose on-axis sum is negative
    bits = np.random.default_rng(seed).integers(0, 2, (n_t, n_l))
    y = pixel_centers(n_t, 1.0)
    bits[:, ::5] = ((np.abs(y) > psf.w_y) & (np.abs(y) < 2.0 * psf.w_y))[:, None]
    return DmdPattern(bits=bits)


def _dense_pixel_sum(pattern, beam, psf, grid):
    # the pixel sum over the whole (grid row, column node) matrix at once,
    # the reference that the row-blocked evaluation must reproduce
    nodes, weights = np.polynomial.legendre.leggauss(8)
    half = 0.5 * pattern.pixel_pitch
    w0 = transversal_weights(psf, beam, pattern.n_t, pattern.pixel_pitch, [0.0])[0]
    cols = beam.amplitude * (w0 @ pattern.bits)
    centers = pixel_centers(pattern.n_l, pattern.pixel_pitch)
    eta = (centers[:, None] + half * nodes[None, :]).ravel()
    coef = (cols[:, None] * (half * weights)[None, :]).ravel() * beam.pz(eta)
    d = grid.samples[:, None] - eta[None, :]
    s = psf.sigma_z
    return (np.exp(-0.5 * (d / s) ** 2) / (s * np.sqrt(2.0 * np.pi))) @ coef, cols


@pytest.mark.parametrize("n_points", [2700, 2701, 2689, 63, 9])
def test_full_route_equals_the_dense_pixel_sum(n_points):
    # on 400 columns a block is 10 rows: 2700 is the reference grid;
    # 2701 ends in a one-row block, 2689 and 63 in short blocks of 9 and
    # 3 rows, and 9 points fit in less than one block
    psf = PsfModel()
    beam = calibrate_beam(psf, BeamProfile(), 100, 1.0, v_max=V_MAX, alpha_v=1.0, headroom=1.3)
    grid = SpatialGrid1D(250.0 * (n_points - 1) / 2699, n_points)
    pattern = _lobe_pattern(100, 400, psf, seed=n_points)
    dense, cols = _dense_pixel_sum(pattern, beam, psf, grid)
    assert np.sum(cols < 0.0) >= 80
    got = propagate_full(pattern, beam, psf, grid).values
    assert got.shape == (n_points,)
    assert np.max(np.abs(got - dense)) <= 1e-14 * np.max(np.abs(dense))


def test_full_route_memory_is_bounded_by_one_row_block():
    # the whole node matrix of the reference grid is 2700 x 3200 doubles
    # (69 MB) and each temporary of its evaluation as large; one block of
    # 10 rows keeps its differences and g_z's copy of them, 0.26 MB each,
    # within BLOCK_BYTES.  Measured: 0.59 MB
    psf = PsfModel()
    beam = calibrate_beam(psf, BeamProfile(), 100, 1.0, v_max=V_MAX, alpha_v=1.0, headroom=1.3)
    grid = SpatialGrid1D(250.0, 2700)
    pattern = _lobe_pattern(100, 400, psf, seed=4)
    tracemalloc.start()
    try:
        propagate_full(pattern, beam, psf, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= BLOCK_BYTES + 0.25e6


def test_column_response_memory_is_its_band():
    # on the reference geometry the band is 2700 x 47 doubles (1.0 MB)
    # and propagate_separable adds one gathered window per row; the full
    # 2700 x 400 matrix alone is 8.6 MB.  Measured: 1.7 and 2.1 MB
    psf = PsfModel()
    beam = calibrate_beam(psf, BeamProfile(), 100, 1.0, v_max=V_MAX, alpha_v=1.0, headroom=1.3)
    grid = SpatialGrid1D(250.0, 2700)
    nu = RealField1D(grid=column_grid(400, 1.0), values=np.full(400, 0.5))
    calls = {
        "column_response": lambda: column_response(grid, nu.grid, psf, beam),
        "propagate_separable": lambda: propagate_separable(nu, beam, psf, grid, 2.0, 1.0),
    }
    for name, call in calls.items():
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6, name


def test_column_response_holds_its_band_and_one_row_block():
    # beside the reference band (2700 x 47 doubles, 1.04 MB) only one block
    # of rows is live: its edge indices, gathered edges and their erf, 455
    # rows of 48 each within BLOCK_BYTES, and a few arrays of one value per
    # row (0.14 MB).  Rows sized by one (rows, 48) matrix alone, 1365 of
    # them, would hold three times the budget.  Measured: 1.70 MB
    psf = PsfModel()
    beam = calibrate_beam(psf, BeamProfile(), 100, 1.0, v_max=V_MAX, alpha_v=1.0, headroom=1.3)
    grid = SpatialGrid1D(250.0, 2700)
    tracemalloc.start()
    try:
        band = column_response(grid, column_grid(400, 1.0), psf, beam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= band.values.nbytes + band.first.nbytes + BLOCK_BYTES + 0.25e6


def _dense_column_response(grid, col_grid, psf, beam):
    # the erf difference at every (row, column), the reference that the
    # band, scattered into the full matrix, must reproduce bit for bit
    centers = col_grid.samples
    half = 0.5 * col_grid.dz
    return _dense_erf_difference(grid, centers - half, centers + half, psf, beam)


def _dense_erf_difference(grid, lo_edge, hi_edge, psf, beam):
    z = grid.samples
    sigma, sigma_in = psf.sigma_z, beam.sigma_z
    a = 0.5 / sigma**2 + 1.0 / sigma_in**2
    sq = np.sqrt(a)
    eta_bar = z / (2.0 * sigma**2 * a)
    env = (
        np.exp(-(z**2) / (sigma_in**2 + 2.0 * sigma**2))
        / (sigma * np.sqrt(2.0 * np.pi))
        * 0.5
        * np.sqrt(np.pi / a)
    )
    lo = erf(sq * (lo_edge[None, :] - eta_bar[:, None]))
    hi = erf(sq * (hi_edge[None, :] - eta_bar[:, None]))
    return env[:, None] * (hi - lo)


GEOMETRIES = pytest.mark.parametrize(
    "grid, col_grid",
    [
        (SpatialGrid1D(120.0, 1201), column_grid(100, 1.0)),
        # every row's band covers all five columns
        (SpatialGrid1D(20.0, 201), column_grid(5, 1.0)),
        # the columns reach far beyond the condensate grid on both sides
        (SpatialGrid1D(40.0, 401), column_grid(240, 1.0)),
        # the reference scenario's condensate grid and mirror columns
        (SpatialGrid1D(250.0, 2700), column_grid(400, 1.0)),
    ],
    ids=["wide", "tiny-columns", "columns-beyond-grid", "reference"],
)
OPTICS = [(sigma_z, beam_sigma_z) for sigma_z in (0.5, 2.5, 8.0) for beam_sigma_z in (125.0, 30.0)]


@GEOMETRIES
def test_column_response_equals_the_dense_erf_difference(grid, col_grid):
    for sigma_z, beam_sigma_z in OPTICS:
        psf = PsfModel(sigma_z=sigma_z)
        beam = BeamProfile(sigma_z=beam_sigma_z)
        band = column_response(grid, col_grid, psf, beam)
        assert band.n_columns == col_grid.n_points
        assert np.all(np.diff(band.first) >= 0)
        resp = dense_matrix(band)
        dense = _dense_column_response(grid, col_grid, psf, beam)
        assert np.array_equal(resp, dense)
        # array_equal takes -0.0 for +0.0; the zeros' signs must match too
        assert np.array_equal(np.signbit(resp), np.signbit(dense))


@GEOMETRIES
def test_band_products_equal_the_dense_products(grid, col_grid):
    # column values in [0, 1], as the achieved values are, and their signed
    # changes on spans at both ends, in the middle, of one column and of
    # all columns, +0.0 off the span as the loop's changes are.  Each
    # product is within 1e-15 of the peak of |Z| |x|, the scale of its
    # terms.  A row the span cannot reach, its band and the span apart,
    # is exactly +0.0
    rng = np.random.default_rng(grid.n_points)
    n = col_grid.n_points
    spans = [(0, n), (0, 1), (n - 1, n), (n // 3, n // 3 + 1), (n // 4, n // 2), (0, n // 2)]
    for sigma_z, beam_sigma_z in OPTICS:
        psf, beam = PsfModel(sigma_z=sigma_z), BeamProfile(sigma_z=beam_sigma_z)
        band = column_response(grid, col_grid, psf, beam)
        dense = dense_matrix(band)
        c = rng.random(n)
        peak = np.max(np.abs(dense) @ c)
        assert np.max(np.abs(band.field(c) - dense @ c)) <= 1e-15 * peak
        # a strided input gives its contiguous copy's bits
        every_other = rng.random(2 * n)[::2]
        assert band.field(every_other).tobytes() == band.field(every_other.copy()).tobytes()
        for start, stop in spans:
            d = rng.random(stop - start) - rng.random(stop - start)
            got = band.field(np.pad(d, (start, n - stop)))
            want = dense[:, start:stop] @ d
            peak = np.max(np.abs(dense[:, start:stop]) @ np.abs(d))
            assert np.max(np.abs(got - want)) <= 1e-15 * peak
            apart = (band.first >= stop) | (band.first + band.width <= start)
            assert np.all(got[apart] == 0.0) and not np.any(np.signbit(got[apart]))
            assert np.all(want[apart] == 0.0)


def test_band_is_read_only_and_refuses_a_wrong_length():
    band = column_response(SpatialGrid1D(20.0, 201), column_grid(5, 1.0), PsfModel(), BeamProfile())
    assert not band.values.flags.writeable and not band.first.flags.writeable
    with pytest.raises(ValueError, match="need 5 column values"):
        band.field(np.ones(4))


def test_column_response_shares_each_edge_between_its_two_columns():
    # at pitch 0.7 the centre + half of one column and the centre - half
    # of the next round apart, so the matrix is the erf difference over
    # the lower edges and the last upper edge; it moves from the centre
    # +- half difference by the rounding of the edges only (2.1e-14 of the
    # largest entry at most here)
    grid = SpatialGrid1D(120.0, 1201)
    col_grid = column_grid(100, 0.7)
    centers = col_grid.samples
    half = 0.5 * col_grid.dz
    assert np.count_nonzero(centers[1:] - half != centers[:-1] + half) > 0
    edges = np.append(centers - half, centers[-1] + half)
    for sigma_z, beam_sigma_z in OPTICS:
        psf = PsfModel(sigma_z=sigma_z)
        beam = BeamProfile(sigma_z=beam_sigma_z)
        resp = dense_matrix(column_response(grid, col_grid, psf, beam))
        shared = _dense_erf_difference(grid, edges[:-1], edges[1:], psf, beam)
        assert np.array_equal(resp, shared)
        assert np.array_equal(np.signbit(resp), np.signbit(shared))
        dense = _dense_column_response(grid, col_grid, psf, beam)
        assert not np.array_equal(resp, dense)
        assert np.max(np.abs(resp - dense)) <= 1e-13 * np.max(np.abs(dense))


def test_separable_plateau_with_flat_envelope():
    # all columns fully on and a flat beam: away from the ends the column
    # responses tile the axis, so V -> e_max^2 (unit-mass g_z)
    psf = PsfModel()
    beam = BeamProfile(sigma_z=1e9)
    n_l = 120
    grid = SpatialGrid1D(40.0, 201)
    nu = RealField1D(grid=column_grid(n_l, 1.0), values=np.ones(n_l))
    e_max = 2.0
    v = propagate_separable(nu, beam, psf, grid, e_max, 1.0).values
    assert np.max(np.abs(v - e_max**2)) < 1e-6 * e_max**2


def test_separable_rejects_out_of_range_values():
    psf = PsfModel()
    beam = BeamProfile()
    grid = SpatialGrid1D(10.0, 51)
    nu = RealField1D(grid=column_grid(11, 1.0), values=np.full(11, 1.5))
    with pytest.raises(ValueError):
        propagate_separable(nu, beam, psf, grid, 1.0, 1.0)
    # RealField1D refuses NaN itself; values that reach the function
    # another way meet its own range check
    nan = SimpleNamespace(grid=nu.grid, values=np.full(11, np.nan))
    with pytest.raises(ValueError, match="must lie in"):
        propagate_separable(nan, beam, psf, grid, 1.0, 1.0)
    # the potential is potential_from_field's, which refuses alpha_v <= 0
    half_on = RealField1D(grid=nu.grid, values=np.full(11, 0.5))
    for alpha_v in (0.0, -1.0):
        with pytest.raises(ValueError, match="conversion factor must be positive"):
            propagate_separable(half_on, beam, psf, grid, 1.0, alpha_v)


# ------------------------------------------------- potential and spots


def test_potential_from_field_basics():
    grid = SpatialGrid1D(10.0, 101)
    zero = propagate_full(
        DmdPattern(bits=np.zeros((4, 4), dtype=int)), BeamProfile(), PsfModel(), grid
    )
    assert zero.values.dtype == np.float64
    assert np.max(potential_from_field(zero, 1.0).values) == 0.0
    const = RealField1D(grid=grid, values=np.full(101, -3.0))
    v = potential_from_field(const, alpha_v=2.0)
    assert np.max(np.abs(v.values - 18.0)) == 0.0
    with pytest.raises(ValueError):
        potential_from_field(const, alpha_v=0.0)


def test_dark_spot_transmission():
    spot = DarkSpot(center=0.0, width=2.0, depth=0.25)
    dist = TransmissionDisturbance(spots=(spot,))
    assert dist.tau(0.0) == pytest.approx(0.75, rel=1e-15)
    assert dist.tau(50.0) == pytest.approx(1.0, rel=1e-12)
    # overlapping deep spots run into the positivity floor
    deep = TransmissionDisturbance(
        spots=(DarkSpot(0.0, 3.0, 0.7), DarkSpot(0.5, 3.0, 0.7))
    )
    assert deep.tau(0.25) == pytest.approx(1e-3, abs=1e-15)
    with pytest.raises(ValueError):
        DarkSpot(center=0.0, width=2.0, depth=0.0)
    with pytest.raises(ValueError):
        DarkSpot(center=0.0, width=2.0, depth=1.1)
    with pytest.raises(ValueError):
        DarkSpot(center=0.0, width=-1.0, depth=0.5)


def test_disturbance_scales_the_potential():
    grid = SpatialGrid1D(20.0, 201)
    e = RealField1D(grid=grid, values=np.full(201, 2.0))
    dist = TransmissionDisturbance(spots=(DarkSpot(0.0, 2.0, 0.25),))
    v = potential_from_field(e, 1.0, disturbance=dist).values
    tau = dist.tau(grid.samples)
    assert np.max(np.abs(v - 4.0 * tau**2)) < 1e-14
