"""Optical truth model: micromirror array, imaging kernels, propagation.

The binary micromirror array (DMD) sits in an object plane that is imaged
onto the atoms.  The imaging system is modelled by a separable incoherent
point spread response g(y, z) = g_y(y) g_z(z): a Gaussian of width
``sigma_z`` along the condensate axis and a sinc-type kernel of lobe
width ``w_y`` transversally (a rectangular Fourier-plane aperture gives a
sinc field response; relative phase shifts between mirrors make the
transversal average coherent).  The illuminating beam is Gaussian in both
directions.  The optical dipole potential is proportional to the squared
field magnitude in the atom plane, evaluated on the y = 0 axis.

Only ``calibrate_beam`` sets the beam's amplitude.  The field is linear
in the per-column on-axis sums (``column_sums``, shared by the loop's
plant and ``propagate_full``), and the longitudinal blur of each column
has a closed form (an erf difference).  ``column_response`` tabulates
that blur once, evaluating each row only on the band of columns near
it: farther out both erfs of a column's edges round to the same exact
+1 or -1, so the rest of the row is exactly zero.  Neighbouring columns
share an edge, so each row evaluates erf once per edge of its band.  It
returns that band (``ColumnBand``), never the full matrix: one field
evaluation is the band's one product with the column values
(``ColumnBand.field``), each row summed over its band in one fixed order
without BLAS.  The closed loop (``harness``) builds the band once: the
plant feeds it the ``column_sums`` of the actual mirror pattern, and the
control model in ``harness.level_update`` the change in the table's
achieved values that a trial move would make.  ``propagate_separable``
is that column product for one achieved amplitude per column, through a
band of its own, turned into a potential by ``potential_from_field``;
the acceptance criteria and the benchmark use it.  ``propagate_full``
performs the direct pixel sum with per-pixel Gauss-Legendre quadrature,
never the closed form; it is the independent oracle that the tests and
the acceptance criteria check the band's product against, and the loop
does not call it.  It sums over blocks of grid rows sized to a core's
L2 cache, so its memory is bounded by one block's node matrix and does
not grow with the grid.  With a uniform transmission the routes agree
to near machine precision.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf, sici

from .core import BLOCK_BYTES, RealField1D, SpatialGrid1D, check_index, check_real

__all__ = [
    "PsfModel",
    "BeamProfile",
    "DmdPattern",
    "DmdSpec",
    "DarkSpot",
    "TransmissionDisturbance",
    "MagneticPotentialSpec",
    "ColumnBand",
    "pixel_centers",
    "column_grid",
    "transversal_weights",
    "on_axis_weights",
    "e_perp_max",
    "column_response",
    "column_sums",
    "calibrate_beam",
    "propagate_full",
    "propagate_separable",
    "potential_from_field",
    "magnetic_potential",
]

# 8-point Gauss-Legendre rule, exact to machine precision for the smooth
# (Gaussian / low-order sinc) integrands over a single 1 um pixel.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)

# erf(x) rounds to exactly 1.0 in double precision once erfc(x) falls
# below half an ulp of 1 (1.1e-16), from x = 5.9 on; erfc(6.5) = 3.8e-20
# leaves a margin far above the rounding error of the argument.
_ERF_SATURATION = 6.5

_TAU_FLOOR = 1e-3  # lowest transmission overlapping dark spots leave, so tau > 0


@dataclass(frozen=True)
class PsfModel:
    """Separable imaging response g(y, z) = g_y(y) g_z(z).

    g_z is a unit-mass Gaussian of standard deviation ``sigma_z``.  g_y is
    sin(pi y / w_y) / (pi y / w_y), truncated at the ``gy_zero_cut``-th
    zero (|y| > gy_zero_cut * w_y evaluates to 0) and normalised to unit
    mass over the truncation window.
    """

    sigma_z: float = 2.5
    w_y: float = 8.0
    gy_zero_cut: int = 6
    _gy_norm: float = field(init=False, repr=False, compare=False, default=0.0)

    def __post_init__(self):
        check_index(self, "gy_zero_cut", low=1)
        check_real(self, "sigma_z", "w_y", above=0)
        # integral of sinc(y/w) over the truncation window, via the sine
        # integral Si: int_{-a}^{a} sinc(t) dt = 2 Si(pi a) / pi.
        si, _ = sici(np.pi * self.gy_zero_cut)
        object.__setattr__(self, "_gy_norm", self.w_y * 2.0 * si / np.pi)

    def gz(self, z):
        """Unit-mass Gaussian exp(-(z/s)^2 / 2) / (s sqrt(2 pi)), s = sigma_z.

        Every step runs in place on one fresh copy of z, in the order of
        that expression, so the values are bit for bit the expression's and
        no other array of the input's size is made.  A scalar z gives a
        scalar.
        """
        s = self.sigma_z
        x = np.array(z, dtype=float)
        x /= s
        np.square(x, out=x)
        x *= -0.5
        np.exp(x, out=x)
        x /= s * np.sqrt(2.0 * np.pi)
        return x[()]

    def gy(self, y):
        y = np.asarray(y, dtype=float)
        out = np.sinc(y / self.w_y) / self._gy_norm
        return np.where(np.abs(y) <= self.gy_zero_cut * self.w_y, out, 0.0)


@dataclass(frozen=True)
class BeamProfile:
    """Gaussian illumination E_in(y, z) = amplitude * p_y(y) * p_z(z).

    The profiles follow p(u) = exp(-u^2 / sigma^2), i.e. sigma is the 1/e
    half-width of the field amplitude.  The amplitude is 1 unless the beam
    comes from :func:`calibrate_beam`, the only place that sets it.
    """

    sigma_y: float = 13.0
    sigma_z: float = 125.0
    amplitude: float = field(default=1.0, init=False)

    def __post_init__(self):
        check_real(self, "sigma_y", "sigma_z", above=0)

    def py(self, y):
        return np.exp(-((np.asarray(y, dtype=float) / self.sigma_y) ** 2))

    def pz(self, z):
        return np.exp(-((np.asarray(z, dtype=float) / self.sigma_z) ** 2))


@dataclass(frozen=True)
class DmdPattern:
    """Binary mirror state, n_t rows (transversal y) by n_l columns (z).

    Pixels are squares of side ``pixel_pitch`` centred on a lattice that is
    itself centred on the optical axis.
    """

    bits: np.ndarray
    pixel_pitch: float = 1.0

    def __post_init__(self):
        b = np.asarray(self.bits)
        if b.ndim != 2:
            raise ValueError("pattern must be a 2d bit array")
        if not np.all((b == 0) | (b == 1)):
            raise ValueError("pattern entries must be 0 or 1")
        check_real(self, "pixel_pitch", above=0)
        b = b.astype(np.uint8)
        b.flags.writeable = False
        object.__setattr__(self, "bits", b)

    @property
    def n_t(self) -> int:
        return self.bits.shape[0]

    @property
    def n_l(self) -> int:
        return self.bits.shape[1]

    def sha256(self) -> str:
        h = hashlib.sha256()
        h.update(np.int64(self.bits.shape).tobytes())
        h.update(np.float64(self.pixel_pitch).tobytes())
        h.update(np.packbits(self.bits).tobytes())
        return h.hexdigest()


@dataclass(frozen=True)
class DmdSpec:
    """The mirror-array section of a scenario: ``n_rows`` transversal
    rows (the mirrors of one column), ``n_columns`` columns along z and
    square pixels of side ``pixel_pitch``, as in :class:`DmdPattern`."""

    n_rows: int = 100
    n_columns: int = 400
    pixel_pitch: float = 1.0

    def __post_init__(self):
        check_index(self, "n_rows", low=1)
        check_index(self, "n_columns", low=2)
        check_real(self, "pixel_pitch", above=0)


def pixel_centers(n: int, pitch: float) -> np.ndarray:
    """Centres of n pixels of the given pitch, symmetric about 0: the rows
    about the optical axis y = 0, or the columns about z = 0."""
    return (np.arange(n) - 0.5 * (n - 1)) * pitch


def column_grid(n_l: int, pitch: float) -> SpatialGrid1D:
    """Grid whose samples coincide with the column centres."""
    return SpatialGrid1D(length=(n_l - 1) * pitch, n_points=n_l)


@dataclass(frozen=True)
class DarkSpot:
    """Gaussian transmission dip: depth * exp(-((z - center)/width)^2)."""

    center: float
    width: float
    depth: float

    def __post_init__(self):
        check_real(self, "center", "depth")
        check_real(self, "width", above=0)
        if not 0.0 < self.depth <= 1.0:
            raise ValueError(f"depth must lie in (0, 1], got {self.depth!r}")


@dataclass(frozen=True)
class TransmissionDisturbance:
    """Multiplicative field transmission tau(z) built from dark spots.

    tau = 1 - sum of Gaussian dips, floored at 1e-3 so that the
    transmission stays strictly positive.
    """

    spots: tuple = ()

    def tau(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        t = np.ones_like(z)
        for s in self.spots:
            t = t - s.depth * np.exp(-(((z - s.center) / s.width) ** 2))
        return np.maximum(t, _TAU_FLOOR)


@dataclass(frozen=True)
class MagneticPotentialSpec:
    """Harmonic longitudinal confinement plus a corrugation ripple.  The
    defaults are the reference trap: 7 Hz, with a ripple of 5 % of the
    reference double well's depth 2 pi 8 rad/ms."""

    omega_par: float = 2.0 * np.pi * 0.007
    ripple_amplitude: float = 0.05 * (2.0 * np.pi * 8.0)
    ripple_wavelength: float = 10.0
    ripple_phase: float = 0.0

    def __post_init__(self):
        check_real(self, "omega_par", "ripple_wavelength", above=0)
        check_real(self, "ripple_amplitude", low=0)
        check_real(self, "ripple_phase")


def magnetic_potential(spec: MagneticPotentialSpec, mass: float, grid: SpatialGrid1D) -> RealField1D:
    """V_mag(z) = (m omega_par^2 / 2) z^2 + A sin(2 pi z / lambda + phase)."""
    z = grid.samples
    phase = 2.0 * np.pi * z / spec.ripple_wavelength + spec.ripple_phase
    v = 0.5 * mass * spec.omega_par**2 * z**2 + spec.ripple_amplitude * np.sin(phase)
    return RealField1D(grid=grid, values=v)


def transversal_weights(
    psf: PsfModel, beam: BeamProfile, n_t: int, pitch: float, y_values
) -> np.ndarray:
    """Per-pixel transversal field contributions, unit beam amplitude.

    Returns W with W[a, i] = int over pixel i of g_y(y_a - xi) p_y(xi) dxi,
    so the field at y_a from a bit vector b is amplitude * (b @ W[a]) times
    the column factor.  Negative entries are physical: they come from the
    negative lobes of the sinc response.
    """
    y_values = np.atleast_1d(np.asarray(y_values, dtype=float))
    rows = pixel_centers(n_t, pitch)
    half = 0.5 * pitch
    # quadrature nodes per pixel, shape (n_t, q)
    xi = rows[:, None] + half * _GL_NODES[None, :]
    py = beam.py(xi)
    w = np.empty((len(y_values), n_t))
    for a, y in enumerate(y_values):
        w[a] = half * (psf.gy(y - xi) * py * _GL_WEIGHTS[None, :]).sum(axis=1)
    return w


def on_axis_weights(psf: PsfModel, beam: BeamProfile, n_t: int, pitch: float) -> np.ndarray:
    """The on-axis row of :func:`transversal_weights`.  Its sum, the
    all-ones pattern's on-axis field per unit amplitude, normalises the
    table's achieved values and calibrates the beam, so a sum that is not
    positive is a ValueError naming the keys that set it."""
    w0 = transversal_weights(psf, beam, n_t, pitch, [0.0])[0]
    total = w0.sum()
    if not total > 0:
        raise ValueError(
            f"the all-ones pattern's on-axis field is {total:.3g}, not positive, for "
            f"beam.sigma_y = {beam.sigma_y!r}, psf.w_y = {psf.w_y!r}, psf.gy_zero_cut = "
            f"{psf.gy_zero_cut!r}, dmd.n_rows = {n_t!r} and dmd.pixel_pitch = {pitch!r}"
        )
    return w0


def e_perp_max(psf: PsfModel, beam: BeamProfile, n_t: int, pitch: float) -> float:
    """On-axis field of the all-ones pattern; normalisation for achieved values."""
    return beam.amplitude * float(on_axis_weights(psf, beam, n_t, pitch).sum())


def calibrate_beam(
    psf: PsfModel,
    beam: BeamProfile,
    n_t: int,
    pitch: float,
    v_max: float,
    alpha_v: float,
    headroom: float,
) -> BeamProfile:
    """The beam of ``beam``'s widths (its amplitude is not read) whose
    flat-beam, all-ones optical potential alpha_v E^2 peaks at
    ``headroom * v_max`` (evaluated with p_z = 1).  ``alpha_v`` and
    ``headroom`` are the scenario's ``ControlSpec`` values; they have no
    defaults here."""
    target = np.sqrt(headroom * v_max / alpha_v)
    out = BeamProfile(sigma_y=beam.sigma_y, sigma_z=beam.sigma_z)
    # on-axis all-ones field per unit amplitude
    unit = e_perp_max(psf, out, n_t, pitch)
    object.__setattr__(out, "amplitude", target / unit)
    return out


def column_sums(pattern: DmdPattern, psf: PsfModel, beam: BeamProfile) -> np.ndarray:
    """Signed on-axis field of each column, amplitude * sum_i bits[i, j] W0[i]
    with W0 the on-axis :func:`transversal_weights` (negative sinc lobes
    subtract); the loop's plant and :func:`propagate_full` blur these."""
    w0 = transversal_weights(psf, beam, pattern.n_t, pattern.pixel_pitch, [0.0])[0]
    return beam.amplitude * (w0 @ pattern.bits)


def propagate_full(
    pattern: DmdPattern, beam: BeamProfile, psf: PsfModel, grid: SpatialGrid1D
) -> RealField1D:
    """On-axis image-plane field E(0, z) by direct pixel summation.

    Every mirror contributes the product of a transversal pixel integral
    (g_y weighted by the beam, Gauss-Legendre, per column in
    :func:`column_sums`) and a longitudinal one (g_z weighted by the beam,
    Gauss-Legendre as well); the routine never uses the closed-form
    column response, so it independently checks :func:`propagate_separable`
    and the loop's field, the band's product with the ``column_sums``.

    The sum runs over blocks of grid rows, each one g_z evaluation on its
    (rows, column nodes) matrix times the node coefficients.  A block
    holds as many rows as keep its two live temporaries, the differences
    and g_z's copy of them, within :data:`core.BLOCK_BYTES` (10 rows on
    the reference scenario's 3200 nodes), so memory is bounded by one
    block however fine the grid.
    """
    cols = column_sums(pattern, psf, beam)
    centers = pixel_centers(pattern.n_l, pattern.pixel_pitch)
    half = 0.5 * pattern.pixel_pitch
    # longitudinal quadrature nodes, flattened over (column, node)
    eta = (centers[:, None] + half * _GL_NODES[None, :]).ravel()
    coef = (cols[:, None] * (half * _GL_WEIGHTS)[None, :]).ravel() * beam.pz(eta)
    z = grid.samples
    out = np.empty(len(z))
    block = max(1, BLOCK_BYTES // (2 * eta.nbytes))
    for s in range(0, len(z), block):
        rows = slice(s, s + block)
        out[rows] = psf.gz(z[rows, None] - eta[None, :]) @ coef
    return RealField1D(grid=grid, values=out)


@dataclass(frozen=True, eq=False)
class ColumnBand:
    """The longitudinal column response Z (:func:`column_response`) kept
    as its band: row i of Z is zero outside the ``width`` columns from
    ``first[i]`` on, and ``values[i, k]`` is Z[i, first[i] + k].

    ``first`` never decreases along the grid, since each row's band
    follows its Gaussian centre.  The one product, :meth:`field`, sums
    each row's ``width`` terms in one fixed order, by ``np.einsum`` with
    no BLAS call, so its bits do not depend on the BLAS thread count.
    Z is non-negative, so a row whose band holds only +0.0 column values
    is exactly +0.0.
    :func:`column_response` makes both arrays read-only; bands compare by
    identity."""

    values: np.ndarray
    first: np.ndarray
    n_columns: int

    @property
    def width(self) -> int:
        return self.values.shape[1]

    def field(self, c) -> np.ndarray:
        """Z @ c: the field on the grid of one value per column."""
        c = np.asarray(c, dtype=float)
        if c.shape != (self.n_columns,):
            raise ValueError(f"need {self.n_columns} column values, got shape {c.shape}")
        # row j of the windows is c[j : j + width], a strided view of c
        c = np.ascontiguousarray(c)
        step = c.itemsize
        windows = np.ndarray(
            (c.size - self.width + 1, self.width), float, c, strides=(step, step)
        )
        return np.einsum("ij,ij->i", self.values, windows[self.first])


def column_response(
    grid: SpatialGrid1D, col_grid: SpatialGrid1D, psf: PsfModel, beam: BeamProfile
) -> ColumnBand:
    """Longitudinal response Z[:, j] = int over column j of g_z(z - eta) p_z(eta) d eta,
    returned as its band (:class:`ColumnBand`).

    Column j is centred on the j-th sample of ``col_grid`` and is one
    spacing wide; z runs over ``grid``.  The Gaussian product
    g_z(z - eta) p_z(eta) is completed to a single Gaussian in eta, whose
    integral over the finite column is an erf difference.  The on-axis
    field is linear in the per-column transversal sums c_j, E(0, z) =
    sum_j Z[:, j] c_j, and Z does not depend on the pattern.  Z has
    grid.n_points rows and col_grid.n_points columns.

    Column j spans edges[j] to edges[j + 1], the lower edges
    ``centers - half`` followed by the last upper edge, so two neighbouring
    columns share one edge and each row evaluates erf once per edge.  Only
    each row's band is evaluated: the columns with an edge within
    6.5 / sqrt(a) of the row's Gaussian centre, where a is the Gaussian's
    precision.  Beyond that margin erf rounds to exactly +1 or -1 at both
    edges of a column, so the erf difference, and the entry, is exactly
    zero; on the reference scenario 89 % of the entries are, and the band
    keeps 47 of the 400 columns per row (1.0 MB against the full matrix's
    8.6 MB).  Every row keeps the widest band's width, its window shifted
    inside the column grid where it would leave it.  The rows are evaluated
    in blocks, one erf call each, of as many rows as keep a block's three
    live temporaries (its edge indices, the gathered edges and their erf)
    within :data:`core.BLOCK_BYTES` (455 rows on the reference scenario),
    so no temporary grows with the grid.  The band's entries use the same
    arithmetic as a full evaluation, so, scattered into the full matrix,
    they are bit for bit the erf difference over the shared edges
    everywhere.  Where one column's centre + half equals the next one's
    centre - half, as at a pitch of 1.0 or 1.25 um (checked up to 1199
    columns), that is the difference at centre +- half of each column.
    At a pitch like 0.7 um
    the two round apart; the shared edges still tile the axis exactly, and
    the entries move by a few 1e-14 of the largest one.
    """
    z = grid.samples
    centers = col_grid.samples
    half = 0.5 * col_grid.dz
    sigma = psf.sigma_z
    sigma_in = beam.sigma_z
    a = 0.5 / sigma**2 + 1.0 / sigma_in**2
    sq = np.sqrt(a)
    eta_bar = z / (2.0 * sigma**2 * a)
    env = (
        np.exp(-(z**2) / (sigma_in**2 + 2.0 * sigma**2))
        / (sigma * np.sqrt(2.0 * np.pi))
        * 0.5
        * np.sqrt(np.pi / a)
    )
    # column j spans edges[j] to edges[j + 1]
    edges = np.append(centers - half, centers[-1] + half)
    # row i's band is columns first[i] to stop[i] - 1; one window of the
    # widest band's width, kept inside the column grid, holds every band
    reach = _ERF_SATURATION / sq
    first = np.searchsorted(edges[1:], eta_bar - reach)
    stop = np.searchsorted(edges[:-1], eta_bar + reach)
    width = int((stop - first).max())
    first = np.minimum(first, len(centers) - width)
    offsets = np.arange(width + 1)
    values = np.empty((len(z), width))
    block = max(1, BLOCK_BYTES // (3 * offsets.nbytes))
    for s in range(0, len(z), block):
        rows = slice(s, s + block)
        e = erf(sq * (edges[first[rows, None] + offsets] - eta_bar[rows, None]))
        np.subtract(e[:, 1:], e[:, :-1], out=values[rows])
        values[rows] *= env[rows, None]
    values.flags.writeable = first.flags.writeable = False
    return ColumnBand(values=values, first=first, n_columns=len(centers))


def propagate_separable(
    nu: RealField1D,
    beam: BeamProfile,
    psf: PsfModel,
    grid: SpatialGrid1D,
    e_max: float,
    alpha_v: float,
) -> RealField1D:
    """Optical potential from per-column achieved amplitudes.

    ``nu`` holds the normalised transversal field value of each column on
    the column-centre grid; the field is the column product E(z) = e_max *
    sum_j nu_j Z_j(z), taken on the band of Z = :func:`column_response`,
    and the potential is :func:`potential_from_field` of it, alpha_v E^2
    (so ``alpha_v`` must be positive).  The loop does not call it; it is
    the potential form that acceptance criterion 7 checks against
    :func:`propagate_full` and that the benchmark's ground-state workload
    draws its potentials from.
    """
    v = nu.values
    if not np.all((v >= -1e-12) & (v <= 1.0 + 1e-12)):
        raise ValueError("achieved column values must lie in [0, 1]")
    band = column_response(grid, nu.grid, psf, beam)
    e_out = RealField1D(grid=grid, values=e_max * band.field(np.clip(v, 0.0, 1.0)))
    return potential_from_field(e_out, alpha_v)


def potential_from_field(
    e_out: RealField1D,
    alpha_v: float,
    disturbance: TransmissionDisturbance | None = None,
) -> RealField1D:
    """V_opt(z) = alpha_v |tau(z) E(0, z)|^2, non-negative by construction."""
    if alpha_v <= 0:
        raise ValueError("potential conversion factor must be positive")
    vals = e_out.values**2
    if disturbance is not None:
        vals = vals * disturbance.tau(e_out.grid.samples) ** 2
    return RealField1D(grid=e_out.grid, values=alpha_v * vals)
