"""The coefficient kernels of `whhankel.poly` against ``numpy.polynomial``:
the sums and products must agree bit for bit, signs of zeros included."""

import numpy as np
import numpy.polynomial.polynomial as npp

from whhankel import poly


def _same_bits(x, y):
    return (
        x.dtype == y.dtype
        and np.array_equal(x, y)
        and np.array_equal(np.signbit(x.real), np.signbit(y.real))
        and np.array_equal(np.signbit(x.imag), np.signbit(y.imag))
    )


def _coeffs(rng):
    """Complex coefficients over many magnitudes, with exact zeros, -0.0
    parts and trailing exact zeros of either sign."""
    k = int(rng.integers(1, 7))
    c = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) * 10.0 ** rng.integers(-16, 8, k)
    for j in np.nonzero(rng.random(k) < 0.2)[0]:
        c[j] = complex(-0.0, c[j].imag)
    for j in np.nonzero(rng.random(k) < 0.2)[0]:
        c[j] = complex(c[j].real, -0.0)
    if rng.random() < 0.1:
        c[:] = 0.0
    tail = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
    return np.concatenate((c, rng.choice(tail, int(rng.integers(0, 3)))))


def _roots(rng):
    """Roots from a small pool, so some repeat; some with -0.0 parts."""
    pool = [1j, -1j, 2 - 1j, complex(-0.0, 2.0), complex(0.5, -0.0), -3.0, 1.5 + 2.5j]
    pool += list(rng.standard_normal(3) + 1j * rng.standard_normal(3))
    return [pool[i] for i in rng.integers(0, len(pool), int(rng.integers(1, 9)))]


def test_padd_pmul_equal_numpy_polynomial_bitwise():
    rng = np.random.default_rng(20261019)
    for _ in range(400):
        a, b = _coeffs(rng), _coeffs(rng)
        assert _same_bits(poly.padd(a, b), poly.trim(npp.polyadd(a, b))), (a, b)
        assert _same_bits(poly.pmul(a, b), poly.trim(npp.polymul(a, b))), (a, b)


def test_pfromroots_equals_numpy_polynomial_bitwise():
    rng = np.random.default_rng(20261020)
    for _ in range(300):
        roots = _roots(rng)
        lead = complex(*rng.standard_normal(2))
        want = poly.trim(npp.polyfromroots(poly.sort_roots(roots)) * lead)
        assert _same_bits(poly.pfromroots(roots, lead), want), roots


def test_kernels_leave_their_arguments_alone():
    a = np.array([1.0, -2.0 + 1e-20j, 0.0], dtype=complex)
    keep = a.copy()
    assert poly.as_poly(a) is a
    poly.trim(a)
    poly.padd(a, a[:1])
    poly.pmul(a, a)
    assert _same_bits(a, keep)
