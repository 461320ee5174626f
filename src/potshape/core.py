"""Grids, real field containers, spectral transforms and convolution.

Fields are real, wave functions too (imaginary time keeps a real ground
state real); only spectra are complex.

Every module in the package shares one unit system: lengths in
micrometres (um), times in milliseconds (ms), and energies expressed as
angular frequencies in rad/ms (the reduced Planck constant is 1).  A
potential of 2*pi*1 rad/ms therefore corresponds to h * 1 kHz.

Spatial spectra follow the convention

    F(k) = int f(z) exp(-i k z) dz
    f(z) = (1 / (2 pi)) int F(k) exp(+i k z) dk

so the discrete transform is an FFT scaled by the sample spacing, with a
phase factor accounting for the position of the leftmost sample.
Convolutions are zero padded (not periodic) and carry the same dz
scaling, which makes them discrete approximations of the continuous
integral (f * g)(z) = int f(xi) g(z - xi) dxi.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np
import scipy.fft

__all__ = [
    "SpatialGrid1D",
    "RealField1D",
    "Spectrum1D",
    "same_grid",
    "spectrum",
    "convolve",
]


@dataclass(frozen=True)
class SpatialGrid1D:
    """Uniform grid of n_points samples spanning [-length/2, +length/2].

    Both endpoints are included, so the spacing is length/(n_points - 1)
    and the samples are symmetric about z = 0 (for even n_points the
    origin itself falls between two samples).  ``n_points`` is a count
    (:func:`as_index`, so 30.0 and True are a TypeError) of at least 2,
    and ``length`` a finite number > 0, stored as a float (:func:`as_real`).
    """

    length: float
    n_points: int
    samples: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "length", as_real(self.length, "grid length", above=0))
        object.__setattr__(self, "n_points", as_index(self.n_points, "grid n_points", low=2))
        z = np.linspace(-0.5 * self.length, 0.5 * self.length, self.n_points)
        z.flags.writeable = False
        object.__setattr__(self, "samples", z)

    @property
    def dz(self) -> float:
        return self.length / (self.n_points - 1)

    @property
    def wavenumbers(self) -> np.ndarray:
        """Angular wavenumbers of the discrete transform, FFT ordering."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.dz)

    @classmethod
    def from_samples(cls, samples) -> "SpatialGrid1D":
        """Build a grid from an explicit sample array, validating uniformity."""
        z = np.asarray(samples, dtype=float)
        if z.ndim != 1 or z.size < 2:
            raise ValueError("need a 1d array of at least two samples")
        steps = np.diff(z)
        dz = steps.mean()
        if dz <= 0 or np.any(np.abs(steps - dz) > 1e-12 * abs(dz) * len(z)):
            raise ValueError("samples are not uniformly spaced")
        length = z[-1] - z[0]
        if abs(z[0] + z[-1]) > 1e-9 * length:
            raise ValueError("samples must be symmetric about z = 0")
        return cls(length=length, n_points=len(z))


def same_grid(a: SpatialGrid1D, b: SpatialGrid1D) -> bool:
    """True when two grids have identical sampling (within float tolerance)."""
    return a.n_points == b.n_points and abs(a.length - b.length) <= 1e-12 * max(
        a.length, b.length
    )


def require_same_grid(*fields):
    """Raise unless all fields are sampled on the same grid."""
    first = fields[0].grid
    for f in fields[1:]:
        if not same_grid(first, f.grid):
            raise ValueError(
                f"fields live on different grids: {first.n_points} points over "
                f"{first.length:g} um vs {f.grid.n_points} over {f.grid.length:g} um"
            )


def _validated(values, n, dtype) -> np.ndarray:
    v = np.asarray(values, dtype=dtype)
    if v.shape != (n,):
        raise ValueError(f"expected shape ({n},), got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("field values must be finite")
    v = v.copy()
    v.flags.writeable = False
    return v


@dataclass(frozen=True)
class RealField1D:
    """Real-valued samples on a SpatialGrid1D, copied and read-only."""

    grid: SpatialGrid1D
    values: np.ndarray

    def __post_init__(self):
        if np.iscomplexobj(self.values):
            raise ValueError("a real field takes real values")
        object.__setattr__(
            self, "values", _validated(self.values, self.grid.n_points, float)
        )


@dataclass(frozen=True)
class Spectrum1D:
    """Samples of a spatial spectrum F(k) on the wavenumber grid of ``grid``,
    in FFT ordering (0, positive, negative)."""

    grid: SpatialGrid1D
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "values", _validated(self.values, self.grid.n_points, complex)
        )

    @property
    def wavenumbers(self) -> np.ndarray:
        """The grid's wavenumbers (:attr:`SpatialGrid1D.wavenumbers`)."""
        return self.grid.wavenumbers


def as_index(value, name: str, low=None) -> int:
    """``value`` as a Python int, at least ``low`` if that is given: a
    TypeError naming ``name`` if it is not an integer (numpy integers are,
    booleans are not), a ValueError if it is below ``low``."""
    try:
        if isinstance(value, bool):
            raise TypeError
        index = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if low is not None and index < low:
        raise ValueError(f"{name} must be >= {low}, got {index}")
    return index


def as_real(value, name: str, low=None, above=None) -> float:
    """``value`` as a Python float if it is a finite real number, at least
    ``low`` and above ``above`` where those are given: a TypeError naming
    ``name`` if it is no number (a boolean is none), else a ValueError.
    Any real type converts (numpy scalars and fractions too), so ``4``,
    ``4.0`` and ``np.float32(4)`` give one float; a number beyond the
    float range is not finite."""
    # an exact float or int skips the ABC check, which costs ten times more
    if type(value) not in (float, int) and (
        isinstance(value, bool) or not isinstance(value, numbers.Real)
    ):
        raise TypeError(f"{name} must be a number, got {value!r}")
    try:
        real = float(value)
    except OverflowError:  # an integer or a fraction beyond the float range
        real = math.inf
    if not math.isfinite(real):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if low is not None and real < low:
        raise ValueError(f"{name} must be >= {low}, got {value!r}")
    if above is not None and real <= above:
        raise ValueError(f"{name} must be > {above}, got {value!r}")
    return real


def check_index(obj, *names, low=None):
    """Store the attributes ``names`` of a frozen dataclass as Python ints
    (:func:`as_index`)."""
    for name in names:
        object.__setattr__(obj, name, as_index(getattr(obj, name), name, low))


def check_real(obj, *names, low=None, above=None):
    """Store the attributes ``names`` of a frozen dataclass as Python
    floats (:func:`as_real`)."""
    for name in names:
        object.__setattr__(obj, name, as_real(getattr(obj, name), name, low, above))


def spectrum(f: RealField1D) -> Spectrum1D:
    """Forward transform F(k) = int f(z) exp(-i k z) dz on the FFT k grid."""
    g = f.grid
    k = g.wavenumbers
    vals = g.dz * np.exp(-1j * k * g.samples[0]) * scipy.fft.fft(f.values)
    return Spectrum1D(grid=g, values=vals)


def convolve(f: RealField1D, kernel: RealField1D) -> RealField1D:
    """Continuous-convention convolution (f * kernel)(z) on the grid of f.

    The kernel lives on a compact grid with f's spacing, an odd length
    and a centre sample at z = 0 (the shape :func:`ilc.design_kernel`
    returns), longer than f's grid or not; f's own grid qualifies when
    its length is odd.  The result equals the direct quadrature

        out_i = dz * sum_j kernel(z_i - z_j) f_j

    with the field zero outside its grid, up to rounding.  It is one real
    FFT product padded to at least n + m // 2 samples, so the circular
    wrap falls only on discarded samples; a sample whose kernel window
    holds no non-zero field value is exactly 0, as in the direct sum.
    """
    g = f.grid
    kg = kernel.grid
    kv = kernel.values
    if abs(kg.dz - g.dz) > 1e-12 * g.dz:
        raise ValueError("kernel grid spacing differs from field spacing")
    m = kg.n_points
    mid = m // 2
    if m % 2 == 0 or abs(kg.samples[mid]) > 1e-9 * g.dz:
        raise ValueError("compact kernel must have odd length and a sample at z = 0")
    n = g.n_points
    n_pad = scipy.fft.next_fast_len(max(n + mid, m), real=True)
    prod = scipy.fft.rfft(f.values, n_pad) * scipy.fft.rfft(kv, n_pad)
    out = g.dz * scipy.fft.irfft(prod, n_pad)[mid : mid + n]
    nonzero = f.values != 0
    if not nonzero.all():
        # running count of non-zero field samples, led by mid + 1 zeros and
        # trailed by mid copies of the total: the two ends of sample i's
        # window +-mid are elements i + 2 mid + 1 and i
        count = np.cumsum(nonzero)
        count = np.concatenate((np.zeros(mid + 1, int), count, np.full(mid, count[-1])))
        out[count[2 * mid + 1 :] == count[:n]] = 0.0
    return RealField1D(grid=g, values=out)
