"""The private entry points that the ground-state solver calls, against
the public functions they stand for, bit for bit.

``condensate._rfft`` and ``_irfft`` call pocketfft's ``r2c`` and ``c2r``
(``scipy.fft._pocketfft.pypocketfft``) with the arguments that
``scipy.fft.rfft`` and ``irfft`` pass them, and ``condensate._solve1`` is
the LAPACK gufunc ``numpy.linalg._umath_linalg.solve1`` beneath
``np.linalg.solve``.  Neither module is public, so a numpy or scipy
release may move or change them; every failure here names the entry
point and the installed numpy and scipy versions.
"""

import importlib

import numpy as np
import pytest
import scipy
import scipy.fft

FFT = "scipy.fft._pocketfft.pypocketfft r2c / c2r"
SOLVE = "numpy.linalg._umath_linalg.solve1"
SIZES = [2, 4, 8, 512, 675, 2048, 2700, 2701]


def _moved(entry: str) -> str:
    return (
        f"the private entry point {entry} moved or changed under numpy "
        f"{np.__version__} and scipy {scipy.__version__}"
    )


def _call(entry: str, f, *args):
    """f(*args), or a failure that names the entry point."""
    try:
        return f(*args)
    except Exception as exc:  # a signature that changed raises anything
        pytest.fail(f"{_moved(entry)}: {exc!r}")


def _check_bits(entry: str, got, want):
    assert (
        got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
    ), f"{_moved(entry)}: its result differs from the public function's"


@pytest.fixture(scope="module")
def condensate():
    try:
        return importlib.import_module("potshape.condensate")
    except ImportError as exc:
        pytest.fail(f"{_moved(f'{FFT} or {SOLVE}')}: {exc!r}")


@pytest.mark.parametrize("n", SIZES)
def test_the_real_transforms_are_scipys_bit_for_bit(condensate, n):
    # contiguous and every fourth sample, as the coarse stage takes them,
    # with and without an output buffer
    phi = np.random.default_rng(n).standard_normal(4 * n)
    for x in (phi[:n], phi[::4]):
        want = scipy.fft.rfft(x)
        _check_bits(FFT, _call(FFT, condensate._rfft, x), want)
        out = np.empty_like(want)
        got = _call(FFT, condensate._rfft, x, out)
        assert got is out, _moved(FFT)
        _check_bits(FFT, out, want)
        back = scipy.fft.irfft(want, n)
        _check_bits(FFT, _call(FFT, condensate._irfft, want, n), back)
        out = np.empty(n)
        got = _call(FFT, condensate._irfft, want, n, out)
        assert got is out, _moved(FFT)
        _check_bits(FFT, out, back)


@pytest.mark.parametrize("m", range(1, 7))
def test_the_least_squares_solve_is_numpys_bit_for_bit(condensate, m):
    # the m x m corner of a 6 x 6 Gram matrix, a strided view as the
    # solver passes it
    d = np.random.default_rng(m).standard_normal((6, 40))
    gram = d @ d.T
    b = d[:m] @ np.random.default_rng(m + 10).standard_normal(40)
    want = np.linalg.solve(gram[:m, :m], b)
    _check_bits(SOLVE, _call(SOLVE, condensate._solve1, gram[:m, :m], b), want)


def test_a_singular_solve_gives_nan_under_the_solvers_errstate(condensate):
    # np.linalg.solve raises LinAlgError; the gufunc returns NaN and, with
    # invalid values ignored as the solver ignores them, warns of nothing
    a, b = np.ones((2, 2)), np.ones(2)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(a, b)
    with np.errstate(over="ignore", invalid="ignore"):
        gamma = _call(SOLVE, condensate._solve1, a, b)
    assert np.isnan(gamma).all(), _moved(SOLVE)
