"""Polynomial and rational-function helpers over the complex numbers.

Coefficient arrays are ascending-degree tuples/arrays, the convention of
``numpy.polynomial.polynomial``.  A rational function is a numerator over
canonically ordered (pole, multiplicity) pairs, the denominator being
prod (t - p)^m.  Zeros are carried the same way wherever they are known: a
product concatenates the lists, and a zero and a pole that agree to
rounding level (`_near`) cancel (`merge_factors`).  Sums fold over their
union of poles (`rational_sum`), `cancel` removes a pole the summed
numerator shares, and a sum below COEFF_PRUNE of its terms is zero
(`vanishes`).  Roots are sought (``proots``, through the companion
matrix) only for polynomials whose roots are unknown, the numerators of
sums; `root_clusters` fuses the scatter of multiple roots and polishes
simple ones.

`padd`, `pmul` and `pfromroots` strip trailing exact zeros and add or
``np.convolve`` in ``numpy.polynomial``'s order, so each result is bit for bit
that of ``npp.polyadd``, ``npp.polymul`` or ``npp.polyfromroots``.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as npp

#: coefficients with modulus below this (relative to the largest one) are noise
COEFF_PRUNE = 1e-14

#: a pole cancels when the numerator there is this small relative to its terms
CANCEL_TOL = 1e-10

#: clustering tolerance: companion-matrix roots of an m-fold root scatter like
#: eps^(1/m), so clusters up to multiplicity ~3 must be re-fused
CLUSTER_TOL = 2e-4


def as_poly(c) -> np.ndarray:
    if type(c) is np.ndarray and c.ndim == 1 and c.dtype == complex:
        return c
    return np.atleast_1d(np.asarray(c, dtype=complex))


def trim(c) -> np.ndarray:
    """Zero the coefficients that are negligible relative to the largest and
    drop the trailing ones.  An array with none is returned as it is (no
    caller writes into the result)."""
    a = as_poly(c)
    # the common case, nothing to prune, decided on a list: numpy's
    # reductions cost more than the arithmetic on arrays this short
    mags = np.abs(a).tolist()
    cut = COEFF_PRUNE * max(1.0, max(mags, default=0.0))
    if mags and min(mags) > cut:
        return a
    small = np.abs(a) <= cut
    keep = (~small).nonzero()[0]
    if keep.size == 0:
        return np.zeros(1, dtype=complex)
    return np.where(small, 0, a)[: keep[-1] + 1]


def degree(c) -> int:
    """Degree of an already trimmed array (see `trim`), read as it is; -1 for
    the zero polynomial."""
    return len(c) - 1 if c[-1] != 0 else -1


def is_zero(c) -> bool:
    """Whether an already trimmed array is the zero polynomial."""
    return degree(c) < 0


def _strip(a):
    """a without its trailing exact zeros, keeping one coefficient."""
    n = len(a)
    while n > 1 and a[n - 1] == 0:
        n -= 1
    return a[:n]


def _mul(a, b):
    """``npp.polymul`` of two complex arrays."""
    return _strip(np.convolve(_strip(a), _strip(b)))


def _fromroots(roots):
    """``npp.polyfromroots``: the sorted linear factors, multiplied in pairs."""
    p = [np.array([-z, 1]) for z in np.sort(np.array(roots, dtype=complex))]
    while len(p) > 1:
        m, odd = divmod(len(p), 2)
        tmp = [np.convolve(p[i], p[i + m]) for i in range(m)]
        if odd:
            tmp[0] = np.convolve(tmp[0], p[-1])
        p = tmp
    return p[0]


def padd(a, b):
    short, long = sorted((_strip(as_poly(a)), _strip(as_poly(b))), key=len)
    out = long.copy()
    out[: len(short)] += short
    return trim(out)


def pmul(a, b):
    return trim(_mul(as_poly(a), as_poly(b)))


def pscale(a, s):
    return trim(as_poly(a) * complex(s))


def pdivmod(a, b):
    q, r = npp.polydiv(as_poly(a), as_poly(b))
    return trim(q), trim(r)


def pval(c, t):
    return npp.polyval(np.asarray(t), as_poly(c))


def proots(a) -> np.ndarray:
    """Companion-matrix roots of an already trimmed array (see `trim`), read
    as it is: its callers pass N of `padd` and `trim(c)`.  Real coefficients
    give exact conjugate pairs."""
    if len(a) <= 1:
        return np.zeros(0, dtype=complex)
    return np.asarray(npp.polyroots(a if np.any(a.imag) else a.real), dtype=complex)


def pfromroots(roots, lead=1.0) -> np.ndarray:
    roots = sorted(np.asarray(roots, dtype=complex), key=lambda z: (z.real, z.imag))
    if not len(roots):
        return np.array([complex(lead)])
    return trim(_fromroots(roots) * complex(lead))


def sort_roots(roots) -> list[complex]:
    return sorted((complex(z) for z in roots), key=lambda z: (z.real, z.imag))


# --- poles with multiplicities ------------------------------------------------

def pole_key(pole):
    """Sort key of a (pole, multiplicity) pair: real, then imaginary part."""
    return (pole[0].real, pole[0].imag)


def _near(p, q):
    """p and q are one pole: they agree to rounding level (CANCEL_TOL)."""
    return abs(p - q) <= CANCEL_TOL * max(1.0, abs(q))


def _union(pole_lists, combine):
    """Canonical (pole, multiplicity) pairs over pole_lists: poles that agree
    to rounding level take the first one's value, their multiplicities
    joined by combine."""
    reps = []  # [pole, multiplicity, its `_near` radius]
    for poles in pole_lists:
        for p, m in poles:
            for rep in reps:
                if abs(p - rep[0]) <= rep[2]:
                    rep[1] = combine(rep[1], int(m))
                    break
            else:
                p = complex(p)
                reps.append([p, int(m), CANCEL_TOL * max(1.0, abs(p))])
    return tuple(sorted(((p, m) for p, m, _ in reps if m), key=pole_key))


def merge_poles(*pole_lists):
    """Poles (or zeros) of a product: multiplicities add; ordered by real,
    then imaginary part."""
    return _union(pole_lists, lambda m1, m2: m1 + m2)


def merge_factors(zero_lists, pole_lists):
    """Canonical (zeros, poles) of a product of factors with these zeros and
    poles: multiplicities add, and a zero and a pole that agree to rounding
    level cancel as often as both occur."""
    net = _union(
        [*zero_lists, *([(p, -m) for p, m in poles] for poles in pole_lists)],
        lambda m1, m2: m1 + m2,
    )
    return tuple((z, m) for z, m in net if m > 0), tuple((p, -m) for p, m in net if m < 0)


def from_poles(poles, lead=1.0) -> np.ndarray:
    """Coefficients of lead * prod (t - p)^m."""
    return pfromroots([p for p, m in poles for _ in range(m)], lead)


def root_clusters(c):
    """Roots of c as canonical (root, multiplicity) pairs.

    The companion-matrix roots (`proots`) are fused greedily into clusters:
    the centroid of an m-fold cluster recovers the true root to near machine
    precision even though the individual roots scatter like eps^(1/m).  Each
    simple root is polished by Newton steps on c, which recovers exactly
    representable roots such as -2i of t^2 + i t + 2.
    """
    a = trim(c)
    clusters: list[list] = []  # [sum, count]
    for z in sort_roots(proots(a)):
        for cl in clusters:
            centroid = cl[0] / cl[1]
            if abs(z - centroid) < CLUSTER_TOL * max(1.0, abs(centroid)):
                cl[0] += z
                cl[1] += 1
                break
        else:
            clusters.append([z, 1])
    d = npp.polyder(a)
    return merge_poles(
        (_polish(a, d, s) if m == 1 else s / m, m) for s, m in clusters
    )


def _polish(a, d, z):
    """Up to three Newton steps on a from z, kept while they shrink |a(z)|."""
    f = npp.polyval(z, a)
    for _ in range(3):
        if f == 0:
            break
        z1 = z - f / npp.polyval(z, d)
        f1 = npp.polyval(z1, a)
        if not abs(f1) < abs(f):
            break
        z, f = z1, f1
    return complex(z)


def _deflate(c, p):
    """Synthetic division by (t - p) along the last axis: c = (t - p) q + r."""
    q = np.empty(c.shape[:-1] + (c.shape[-1] - 1,), dtype=complex)
    acc = np.zeros(c.shape[:-1], dtype=complex)
    for k in range(c.shape[-1] - 1, 0, -1):
        acc = acc * p + c[..., k]
        q[..., k - 1] = acc
    return q, acc * p + c[..., 0]


def cancel(terms, poles):
    """(num, poles) of sum(terms) / prod (t - p)^m with common factors removed.

    The one cancellation rule: a pole p cancels while the numerator there is
    within CANCEL_TOL of the terms that formed it, sum_k sum_j |T_kj| |p|^j, and
    every term is then deflated by (t - p).  Measuring against the terms, not
    their sum, is what cancels exact identities such as a a^(-1) completely
    although their summed numerator is rounding noise.  A sum below
    COEFF_PRUNE of the terms is zero, returned as ([0], ()).
    """
    width = max(len(t) for t in terms)
    T = np.zeros((len(terms), width), dtype=complex)
    for k, t in enumerate(terms):
        T[k, : len(t)] = t
    zero = (np.zeros(1, dtype=complex), ())
    if vanishes(T.sum(axis=0), T):
        return zero
    kept = []
    # the summed numerator and its terms' size per degree, until T deflates
    total, size = T.sum(axis=0), np.abs(T).sum(axis=0)
    for p, m in poles:
        while m and T.shape[1]:
            scale = size @ (abs(p) ** np.arange(T.shape[1]))
            if abs(npp.polyval(p, total)) > CANCEL_TOL * scale:
                break
            T = _deflate(T, p)[0]
            total, size = T.sum(axis=0), np.abs(T).sum(axis=0)
            m -= 1
        if m:
            kept.append((p, m))
    num = trim(total)
    if is_zero(num):
        return zero
    return num, tuple(kept)


def vanishes(total, terms):
    """The rule for a zero sum: ``total``, the sum of ``terms`` (coefficient
    arrays), is below COEFF_PRUNE of their largest coefficient."""
    return np.max(np.abs(total)) <= COEFF_PRUNE * np.max(np.abs(terms))


def rational_sum(parts):
    """`cancel` of sum num_k / prod (t - p)^m over poles_k, for parts
    (num_k, poles_k), taken over the union of the poles (the largest
    multiplicity of each)."""
    union = _union([poles for _, poles in parts], max)
    terms = []
    for num, poles in parts:
        missing = [
            u for u, mu in union
            for _ in range(mu - sum(m for p, m in poles if _near(p, u)))
        ]
        num = as_poly(num)
        terms.append(_mul(num, _fromroots(missing)) if missing else num)
    return cancel(terms, union)


def partial_fractions(num, poles):
    """Decompose num / prod (t - p)^m (deg num < sum m) into c/(t - p)^j terms.

    Returns a list of (pole, [c_1, ..., c_m]) where c_j belongs to
    1/(t - p)^j.  With h = num / prod_(q != p) (t - q)^(m_q), c_j is the
    Taylor coefficient of order m - j of h at p, obtained by power-series
    division of the Taylor coefficients of num by those of the other factors.
    """
    num = trim(num)
    if is_zero(num):
        return []
    if degree(num) >= sum(m for _, m in poles):
        raise ValueError("partial_fractions expects a strictly proper rational")
    out = []
    for i, (p, m) in enumerate(poles):
        top = []
        c = np.concatenate((num, np.zeros(m, dtype=complex)))
        for _ in range(m):
            c, r = _deflate(c, p)
            top.append(r)
        rest = np.zeros(m, dtype=complex)
        rest[0] = 1.0
        for j, (q, mq) in enumerate(poles):
            if j != i:
                for _ in range(mq):  # times (s + p - q), s = t - p
                    rest = (p - q) * rest + np.concatenate(([0j], rest[:-1]))
        h = []
        for k in range(m):
            h.append((top[k] - sum(rest[j] * h[k - j] for j in range(1, k + 1))) / rest[0])
        out.append((complex(p), [complex(h[m - j]) for j in range(1, m + 1)]))
    return out


def format_complex(z) -> str:
    """Round-trippable compact form: 2, -3.5, 2i, (1+2i), (1-2i)."""
    re, im = float(np.real(z)), float(np.imag(z))

    def fnum(x):
        if x == int(x) and abs(x) < 1e15:
            return str(int(x))
        return repr(x)

    if im == 0.0:
        return fnum(re)
    if re == 0.0:
        return f"{fnum(im)}i"
    sign = "+" if im > 0 else "-"
    return f"({fnum(re)}{sign}{fnum(abs(im))}i)"


def format_poly(c) -> str:
    """Descending-power display, e.g. ``t^2 + (1+2i)*t - 3``."""
    a = trim(c)
    if is_zero(a):
        return "0"
    parts = []
    for k in range(len(a) - 1, -1, -1):
        z = a[k]
        if z == 0:
            continue
        coeff = format_complex(z)
        if k == 0:
            parts.append(coeff)
        else:
            tk = "t" if k == 1 else f"t^{k}"
            parts.append(tk if coeff == "1" else f"{coeff}*{tk}")
    return " + ".join(parts).replace(" + -", " - ")
