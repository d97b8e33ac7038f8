"""Exact arithmetic for a computable sub-algebra of half-line convolution symbols.

A symbol is a finite almost-periodic sum plus shifted strictly-proper rational
parts,

    a(t) = sum_j  a_j e^(i d_j t)  +  sum_m  e^(i s_m t) R_m(t),

where each R_m = num / prod (t - p)^k keeps its poles p with their
multiplicities k from construction, has deg num < sum k and no real pole;
ring operations combine pole lists and find no roots.  This is the
smallest class closed under products, reflection t -> -t, conjugation and
(where representable) inversion that still supports exact Wiener-Hopf
factorization.  Pointwise it is the Fourier transform of a summable
discrete-plus-L1 time kernel, which `time_kernel` recovers explicitly.

A symbol is immutable, so its exact data is computed once and kept on the
object, as ``cached_property`` keeps `RationalPart.den`: the form e^(i delta t)
N/den (`_exp_rational_form`) with the zeros of N and the mirror products
N(t)N(-t) and den(t)den(-t), and `winding_n`.

The zeros of a single exponential's N are carried like its poles, as
canonical (zero, multiplicity) pairs kept on the symbol (not part of its
value), wherever construction knows them: the DSL's factor lists, `chi`, a
product of two symbols that carry them (`GSymbol.__mul__`: the lists merge
and equal zero/pole pairs cancel, with no sum), `inverse` (zeros and poles
swap), `tilde`, `conj` and negation, which map them, and the Wiener-Hopf
factors of `factorization.factorize`.  A sum drops them; the zeros of its N
are then found once, on demand, by `poly.root_clusters`.  Either way they
are one list of pairs, `_ExpRational.zeros`, which every decision reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from . import poly
from .poly import COEFF_PRUNE
from .errors import (
    ImproperRational,
    Inconclusive,
    MeanMotionUnresolved,
    NotInvertible,
    NotMatching,
    NotRepresentable,
    RealPoleError,
    WindingUnresolved,
    XiNotUnimodular,
)

FREQ_TOL = 1e-12          # almost-periodic frequencies closer than this merge
REAL_AXIS_TOL = 1e-9      # |Im root| below this counts as a real root
NEAR_AXIS_TOL = 1e-2      # relative |Im root| below this may be a scattered multiple real root


@dataclass(frozen=True)
class APTerm:
    """One almost-periodic exponential a_j * e^(i freq t)."""

    freq: float
    coeff: complex


@dataclass(frozen=True)
class RationalPart:
    """num / prod (t - p)^m: ascending numerator coefficients and
    canonically ordered (pole, multiplicity) pairs.  The monic denominator is
    derived from the poles.  The class checks nothing: make_symbol makes a
    symbol's parts strictly proper with no pole on the real line."""

    num: tuple
    poles: tuple

    @cached_property
    def den(self):
        return tuple(poly.from_poles(self.poles))

    def eval(self, t):
        return poly.pval(self.num, t) / poly.pval(self.den, t)


@dataclass(frozen=True)
class L0Term:
    """e^(i shift t) * R(t): the transform of a translated L1 kernel piece."""

    shift: float
    rational: RationalPart


@dataclass(frozen=True)
class GSymbol:
    ap: tuple
    l0: tuple

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        return make_symbol(
            [(u.freq, u.coeff) for u in self.ap + other.ap],
            [(v.shift, v.rational.num, v.rational.poles) for v in self.l0 + other.l0],
        )

    __radd__ = __add__

    def __neg__(self):
        # u.coeff * -1 keeps the bits of make_symbol's product with -1
        return _mapped(
            [(u.freq, u.coeff * -1) for u in self.ap],
            [(w.shift, -np.asarray(w.rational.num), w.rational.poles) for w in self.l0],
            _carried(self), lambda z: z,
        )

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __mul__(self, other):
        other = _coerce(other)
        zx, zy = _carried(self), _carried(other)
        known = zx is not None and zy is not None
        if known and self.l0 and other.l0:
            amp = self.ap[0].coeff * other.ap[0].coeff
            if abs(amp) > COEFF_PRUNE:  # the lists merge, shared pairs cancel
                zeros, poles = poly.merge_factors(
                    (zx, zy), (self.l0[0].rational.poles, other.l0[0].rational.poles)
                )
                return _from_factors(self.ap[0].freq + other.ap[0].freq, amp, zeros, poles)
        ap_terms = []
        l0_terms = []
        for u in self.ap:
            for v in other.ap:
                ap_terms.append((u.freq + v.freq, u.coeff * v.coeff))
        for u in self.ap:
            for w in other.l0:
                l0_terms.append(
                    (u.freq + w.shift, poly.pscale(w.rational.num, u.coeff), w.rational.poles)
                )
        for w in self.l0:
            for u in other.ap:
                l0_terms.append(
                    (w.shift + u.freq, poly.pscale(w.rational.num, u.coeff), w.rational.poles)
                )
        for w1 in self.l0:
            for w2 in other.l0:
                l0_terms.append(
                    (
                        w1.shift + w2.shift,
                        poly.pmul(w1.rational.num, w2.rational.num),
                        poly.merge_poles(w1.rational.poles, w2.rational.poles),
                    )
                )
        out = make_symbol(ap_terms, l0_terms)
        # a product with a constant or an exponential keeps make_symbol's bits
        # and, while its rational part stays, the other factor's zeros
        if known and len(out.l0) == len(self.l0) + len(other.l0):
            _carrying(out, poly.merge_poles(zx, zy))
        return out

    __rmul__ = __mul__

    def __reduce__(self):
        # what is kept on the symbol is not part of its value
        return GSymbol, (self.ap, self.l0)

    @cached_property
    def _exp_form(self):
        return _exp_rational_form(self)

    @cached_property
    def _winding(self):
        return _winding_n(self)

    # -- structure -------------------------------------------------------

    def is_zero(self):
        return not self.ap and not self.l0

    def eval(self, t):
        """Pointwise value; t may be a scalar or an ndarray."""
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape, dtype=complex)
        for u in self.ap:
            out += u.coeff * np.exp(1j * u.freq * t)
        for w in self.l0:
            out += np.exp(1j * w.shift * t) * w.rational.eval(t)
        return out if out.shape else complex(out)

    def isclose(self, other, tol=1e-10):
        """Comparison of canonical forms, tolerant to rounding in coefficients.

        Two single-exponential symbols e^(i delta t) N/D are equal when their
        shifts agree and N_a D_b = N_b D_a coefficientwise (relative ``tol``);
        other symbols compare their difference, sampled around every pole.
        """
        other = _coerce(other)
        fa, fb = self._exp_form, other._exp_form
        if fa is not None and fb is not None:
            if abs(fa.delta - fb.delta) > FREQ_TOL:
                return False
            return _poly_identity(
                poly.pmul(fa.N, fb.den), poly.pmul(fb.N, fa.den), tol
            )
        diff = self - other
        if diff.is_zero():
            return True
        scale = max(1.0, _sup_scale(self), _sup_scale(other))
        if any(abs(u.coeff) > tol * scale for u in diff.ap):
            return False
        if not diff.l0:
            return True
        # rational residue: sample around every pole region
        reach = 50.0
        for w in diff.l0:
            for p, _ in w.rational.poles:
                reach = max(reach, abs(p.real) + 10.0)
        t = np.linspace(-reach, reach, 4001)
        resid = np.zeros(t.shape, dtype=complex)
        for w in diff.l0:
            resid += np.exp(1j * w.shift * t) * w.rational.eval(t)
        return bool(np.max(np.abs(resid)) <= tol * scale)

    def norm_estimate(self):
        """Diagnostic upper-ish bound sum|a_j| + int|k|; not a certified norm."""
        total = sum(abs(u.coeff) for u in self.ap)
        for piece in time_kernel(self).pieces:
            total += piece.abs_mass()
        return total

    # -- serialization -----------------------------------------------------

    def to_dict(self):
        return {
            "ap": [
                {"freq": u.freq, "re": u.coeff.real, "im": u.coeff.imag}
                for u in self.ap
            ],
            "l0": [
                {
                    "shift": w.shift,
                    "num": [[c.real, c.imag] for c in w.rational.num],
                    "den": [[c.real, c.imag] for c in w.rational.den],
                }
                for w in self.l0
            ],
        }


def _coerce(x):
    if isinstance(x, GSymbol):
        return x
    if isinstance(x, (int, float, complex)):
        return constant(x)
    raise TypeError(f"cannot interpret {x!r} as a symbol")


def _carried(g):
    """The zeros of a single exponential's N where construction knows them:
    canonical (zero, multiplicity) pairs, () with no rational part, None
    otherwise."""
    if len(g.ap) != 1:
        return None
    return g.__dict__.get("_zeros", None if g.l0 else ())


def _carrying(g, zeros):
    """g with zeros (the pairs of its N, or None) kept on it, outside its
    value, as ``cached_property`` keeps what is computed."""
    if zeros is not None:
        g.__dict__["_zeros"] = zeros
    return g


def _from_factors(delta, amp, zeros, poles):
    """The canonical symbol e^(i delta t) amp prod (t - z)^k / prod (t - p)^m
    of equal degrees, carrying its zeros: num = amp (prod (t - z)^k - den),
    so nothing is summed or cancelled."""
    for p, _ in poles:
        if abs(p.imag) <= REAL_AXIS_TOL:
            raise RealPoleError(p)
    delta = float(delta) if abs(delta) > FREQ_TOL else 0.0
    den = poly.from_poles(poles)
    num = poly.pscale(poly.padd(poly.from_poles(zeros), -den), amp)
    l0 = ()
    if not poly.is_zero(num):
        rat = RationalPart(tuple(num), poles)
        rat.__dict__["den"] = tuple(den)
        l0 = (L0Term(delta, rat),)
    return _carrying(GSymbol((APTerm(delta, complex(amp)),), l0), zeros)


def _sup_scale(a):
    s = sum(abs(u.coeff) for u in a.ap)
    for w in a.l0:
        num = np.asarray(w.rational.num)
        den = np.asarray(w.rational.den)
        s += np.max(np.abs(num)) / max(np.max(np.abs(den)), 1e-30)
    return s


def _canon_rational(parts):
    """RationalPart of the sum of (num, poles) parts, or None when it vanishes."""
    num, poles = poly.rational_sum(parts)
    deg, deg_den = poly.degree(num), sum(m for _, m in poles)
    if deg < 0:
        return None
    if deg >= deg_den:
        raise ImproperRational(deg, deg_den)
    for p, _ in poles:
        if abs(p.imag) <= REAL_AXIS_TOL:
            raise RealPoleError(p)
    return RationalPart(tuple(num), poles)


def make_symbol(ap_terms, l0_terms):
    """Canonicalizing factory: merge like frequencies/shifts, prune noise.

    ``l0_terms`` are (shift, num, poles) with num already trimmed (see
    `poly.trim`; every caller passes a numerator that poly arithmetic or a
    canonical symbol made) and poles given as (pole, multiplicity) pairs;
    terms of equal shift are summed over their poles."""
    # almost-periodic part
    ap_sorted = sorted(ap_terms, key=lambda fc: fc[0])
    merged_ap = []
    for freq, coeff in ap_sorted:
        if merged_ap and abs(freq - merged_ap[-1][0]) < FREQ_TOL:
            merged_ap[-1][1] += complex(coeff)
        else:
            merged_ap.append([float(freq), complex(coeff)])
    scale = max([1.0] + [abs(c) for _, c in merged_ap])
    ap = tuple(
        APTerm(f if abs(f) > FREQ_TOL else 0.0, c)
        for f, c in merged_ap
        if abs(c) > COEFF_PRUNE * scale
    )

    # rational part: group terms of equal shift
    groups = {}
    for shift, num, poles in sorted(l0_terms, key=lambda t: t[0]):
        key = next((k for k in groups if abs(k - shift) < FREQ_TOL), float(shift))
        groups.setdefault(key, []).append((num, poly.merge_poles(poles)))
    l0 = []
    for k, parts in groups.items():
        rat = _canon_rational(parts)
        if rat is not None:
            l0.append(L0Term(k if abs(k) > FREQ_TOL else 0.0, rat))
    return GSymbol(ap=ap, l0=tuple(l0))


# --- constructors ---------------------------------------------------------

def zero():
    return GSymbol(ap=(), l0=())


def constant(c):
    if abs(c) <= COEFF_PRUNE:
        return zero()
    return GSymbol(ap=(APTerm(0.0, complex(c)),), l0=())


def one():
    return constant(1.0)


def exp_symbol(delta, coeff=1.0):
    """coeff * e^(i delta t)."""
    return make_symbol([(float(delta), complex(coeff))], [])


def pole_symbol(num, poles):
    """num / prod (t - p)^m with deg num <= sum m; splits off the value at
    infinity as an almost-periodic term so the remainder is strictly
    proper."""
    num = poly.trim(num)
    poles = poly.merge_poles(poles)
    deg, deg_den = poly.degree(num), sum(m for _, m in poles)
    if deg > deg_den:
        raise ImproperRational(deg, deg_den)
    q, r = poly.pdivmod(num, poly.from_poles(poles))
    return make_symbol(
        [] if poly.is_zero(q) else [(0.0, complex(q[0]))],
        [] if poly.is_zero(r) else [(0.0, r, poles)],
    )


def chi(n=1):
    """((t - i)/(t + i))^n, the half-line analogue of the circle monomial."""
    n = int(n)
    if n == 0:
        return one()
    k = abs(n)
    zero_at = 1j if n > 0 else -1j
    return _from_factors(0.0, 1.0, ((zero_at, k),), ((-zero_at, k),))


# --- involutions ------------------------------------------------------------

def _reflect(p):
    """Coefficients of p(-t)."""
    q = poly.as_poly(p).copy()
    q[1::2] *= -1
    return q


def _mapped(ap_terms, l0_terms, zeros, zmap):
    """The symbol of a canonical symbol's terms under an exact map: ``ap_terms``
    are its (freq, coeff) pairs and ``l0_terms`` its (shift, num, poles)
    triples, each mapped on its own; its carried ``zeros`` (or None) map
    by ``zmap``, as its poles do.

    A canonical symbol has nothing to merge, cancel or prune, so ordering the
    terms and poles gives make_symbol's result, bit for bit: a zero frequency
    or shift is +0.0, and each numerator gets the + 0.0 of make_symbol's sum,
    which turns its -0.0 parts into +0.0."""
    return _carrying(GSymbol(
        ap=tuple(
            APTerm(freq or 0.0, coeff)
            for freq, coeff in sorted(ap_terms, key=lambda fc: fc[0])
        ),
        l0=tuple(
            L0Term(shift or 0.0, RationalPart(
                tuple(num + 0.0), tuple(sorted(poles, key=poly.pole_key))
            ))
            for shift, num, poles in sorted(l0_terms, key=lambda t: t[0])
        ),
    ), None if zeros is None else tuple(sorted(
        ((zmap(z), k) for z, k in zeros), key=poly.pole_key
    )))


def tilde(a: GSymbol) -> GSymbol:
    """Reflection a(t) -> a(-t): each pole and zero z maps to -z."""
    ap = [(-u.freq, u.coeff) for u in a.ap]
    l0 = []
    for w in a.l0:
        poles = w.rational.poles
        sign = (-1.0) ** sum(m for _, m in poles)
        l0.append((-w.shift, _reflect(w.rational.num) * sign, [(-p, m) for p, m in poles]))
    return _mapped(ap, l0, _carried(a), lambda z: -z)


def conj(a: GSymbol) -> GSymbol:
    """Complex conjugate on the real line: conj(a)(t) = conj(a(t)); each
    pole and zero z maps to conj(z)."""
    ap = [(-u.freq, u.coeff.conjugate()) for u in a.ap]
    l0 = [
        (
            -w.shift,
            np.conj(np.asarray(w.rational.num, dtype=complex)),
            [(p.conjugate(), m) for p, m in w.rational.poles],
        )
        for w in a.l0
    ]
    return _mapped(ap, l0, _carried(a), complex.conjugate)


# --- time-domain kernel ------------------------------------------------------

@dataclass(frozen=True)
class KernelPiece:
    """p(u) e^(lam u) on one side of u = 0, translated by ``offset``.

    The piece contributes k(s) = p(s - offset) e^(lam (s - offset)) for
    side*(s - offset) > 0 and nothing elsewhere.  Integrability forces
    Re lam < 0 on the positive side and Re lam > 0 on the negative side.
    """

    side: int               # +1: support right of offset, -1: left
    offset: float
    exponent: complex
    coeffs: tuple

    def value(self, s):
        s = np.asarray(s, dtype=float)
        u = s - self.offset
        active = u > 0 if self.side > 0 else u < 0
        out = np.zeros(s.shape, dtype=complex)
        if np.any(active):
            ua = u[active]
            out[active] = poly.pval(self.coeffs, ua) * np.exp(self.exponent * ua)
        return out

    def abs_mass(self):
        lam = abs(self.exponent.real)
        out = 0.0
        for k, c in enumerate(self.coeffs):
            out += abs(c) * math.factorial(k) / lam ** (k + 1)
        return out


@dataclass(frozen=True)
class TimeKernel:
    pieces: tuple

    def value(self, s):
        s = np.asarray(s, dtype=float)
        out = np.zeros(s.shape, dtype=complex)
        for p in self.pieces:
            out += p.value(s)
        return out

    def support_in_right_half(self, tol=1e-12):
        return all(p.side > 0 and p.offset >= -tol for p in self.pieces)

    def support_in_left_half(self, tol=1e-12):
        return all(p.side < 0 and p.offset <= tol for p in self.pieces)


def time_kernel(a: GSymbol) -> TimeKernel:
    """Convolution kernel of the rational part, via residues.

    Convention a(t) = int k(s) e^(its) ds: a pole rho of R in the lower
    half-plane contributes on s > 0 with exponent -i*rho, an upper pole on
    s < 0; a shift e^(i delta t) translates the support by delta.
    """
    pieces = []
    for w in a.l0:
        for pole, coeffs in poly.partial_fractions(w.rational.num, w.rational.poles):
            lam = -1j * pole
            lower = pole.imag < 0
            side = 1 if lower else -1
            for j, c in enumerate(coeffs, start=1):
                if c == 0:
                    continue
                # 1/(t-rho)^j  <->  (-+i) (-i u)^(j-1)/(j-1)! e^(-i rho u)
                base = (-1j) ** j if lower else 1j * (-1j) ** (j - 1)
                pc = np.zeros(j, dtype=complex)
                pc[j - 1] = c * base / math.factorial(j - 1)
                pieces.append(KernelPiece(side, w.shift, lam, tuple(pc)))
    return TimeKernel(tuple(pieces))


# --- half-line functions ------------------------------------------------------
#
# An exponential polynomial f on s > 0 is held as its image
# f^(t) = int_0^inf f(s) e^(its) ds: a strictly proper rational symbol of
# shift 0 whose poles lie in Im < 0 (e^(-s) <-> i/(t + i)), from which
# time_kernel recovers f.  On images, W0(g) is the product g f^, P keeps the
# lower-pole terms of its partial fractions and Q the upper ones, and J is
# tilde; so no grid is needed.

def _half_line_part(h: GSymbol, lower: bool) -> GSymbol:
    """The partial-fraction terms of the shift-free, strictly proper h whose
    poles lie below the real line (lower) or above it."""
    if h.ap or any(w.shift for w in h.l0):
        raise NotRepresentable("a half-line image is strictly proper with shift 0")
    terms = []
    for w in h.l0:
        for p, coeffs in poly.partial_fractions(w.rational.num, w.rational.poles):
            if (p.imag < 0) == lower:
                num = np.zeros(1, dtype=complex)
                for c in coeffs:  # sum_j c_j (t - p)^(m - j), by Horner
                    num = poly.padd(poly.pmul(num, (-p, 1.0)), (c,))
                terms.append((0.0, num, ((p, len(coeffs)),)))
    return make_symbol([], terms)


def half_line_apply(g: GSymbol, f: GSymbol) -> GSymbol:
    """W(g) f = P W0(g) P f for the half-line image f."""
    return _half_line_part(g * f, lower=True)


def half_line_flip(g: GSymbol, f: GSymbol) -> GSymbol:
    """J Q W0(g) P f for the half-line image f: the reflection of what
    W0(g) sends to s < 0."""
    return tilde(_half_line_part(g * f, lower=False))


def half_line_norm(f: GSymbol) -> float:
    """The L2 norm of the half-line function of image f, from its time-kernel
    pieces p(u) e^(lam u): int_0^inf u^(k+l) e^(-mu u) du = (k+l)!/mu^(k+l+1)."""
    pieces = time_kernel(f).pieces
    total = 0j
    for a in pieces:
        for b in pieces:
            mu = -(a.exponent + b.exponent.conjugate())
            for k, ca in enumerate(a.coeffs):
                for l, cb in enumerate(b.coeffs):
                    if ca and cb:
                        total += ca * cb.conjugate() * math.factorial(k + l) / mu ** (k + l + 1)
    return math.sqrt(max(total.real, 0.0))


def is_plus(a: GSymbol) -> bool:
    """Holomorphic extension to the upper half-plane: nonnegative frequencies
    and a time kernel supported on the right half-line."""
    if any(u.freq < -FREQ_TOL for u in a.ap):
        return False
    return time_kernel(a).support_in_right_half()


def is_minus(a: GSymbol) -> bool:
    if any(u.freq > FREQ_TOL for u in a.ap):
        return False
    return time_kernel(a).support_in_left_half()


# --- invertibility and inverse ------------------------------------------------

def _ap_deriv_bound(a):
    return sum(abs(u.coeff * u.freq) for u in a.ap)


def is_invertible(a: GSymbol):
    """inf |a| > 0 on the real line.

    A single exponential e^(i delta t) N/D is invertible iff N has no real
    root (D has none by construction), decided from the roots of N by
    `_real_zero`.  Other symbols get `_sampled_invertible`."""
    if a.is_zero():
        return False
    form = a._exp_form
    if form is not None:
        return not _real_zero(a, form)
    return _sampled_invertible(a)


def _sampled_invertible(a):
    """Sampled lower bound of |a| on [-200, 200] at step 0.01 plus an
    asymptotic almost-periodic bound.  Conservative: raises Inconclusive
    inside the uncertainty band instead of guessing."""
    window, step = 200.0, 0.01
    t = np.arange(-window, window + step, step)
    vals = np.abs(a.eval(t))
    m = float(np.min(vals))
    tmin = float(t[int(np.argmin(vals))])
    # two-scale local refinement around the argmin: a sampled minimum that
    # keeps shrinking with the sampling step is an exact zero, one that
    # saturates is a genuine positive minimum
    fine1 = np.arange(tmin - step, tmin + step, 1e-6)
    v1 = np.abs(a.eval(fine1))
    m1 = float(np.min(v1))
    t1 = float(fine1[int(np.argmin(v1))])
    fine2 = np.arange(t1 - 2e-6, t1 + 2e-6, 1e-8)
    v2 = np.abs(a.eval(fine2))
    m2 = float(np.min(v2))
    m_ref = min(m, m1, m2)
    if m2 < 1e-9 or m2 < m1 / 8.0:
        return False
    deriv = _ap_deriv_bound(a) + float(np.max(np.abs(np.diff(vals)))) / step * 1.5
    uncert = 0.5 * deriv * step
    # beyond the window the rational part has decayed; the AP part controls
    ap_only = GSymbol(a.ap, ())
    ap_min = float(np.min(np.abs(ap_only.eval(t)))) if a.ap else 0.0
    far = np.linspace(window, 8 * window, 4001)
    l0_tail = 0.0
    if a.l0:
        l0_tail = float(
            max(np.max(np.abs(a.eval(far) - ap_only.eval(far))),
                np.max(np.abs(a.eval(-far) - ap_only.eval(-far))))
        )
    tail_low = ap_min - l0_tail - 0.5 * _ap_deriv_bound(a) * step
    low = min(m_ref - uncert, tail_low)
    if low > 0:
        return True
    raise Inconclusive(
        f"sampled minimum {m_ref:.3e} inside uncertainty band "
        f"(certified lower bound {low:.3e})"
    )


@dataclass(frozen=True)
class _ExpRational:
    """a = e^(i delta t) (amp + num/den) = e^(i delta t) N/den, with the
    one list of the zeros of N that every decision reads."""

    delta: float
    amp: complex
    poles: tuple   # (pole, multiplicity) pairs of den
    den: np.ndarray
    N: np.ndarray  # amp*den + num; deg N = deg den, den monic with no real root
    carried: tuple | None  # the zeros of N where construction knows them, else None

    @cached_property
    def zeros(self):
        """Canonical (zero, multiplicity) pairs of N: the carried ones, which
        are exact, else `poly.root_clusters(N)`, found once and not exact."""
        return poly.root_clusters(self.N) if self.carried is None else self.carried

    @cached_property
    def mirror_N(self):
        return poly.pmul(self.N, _reflect(self.N))

    @cached_property
    def mirror_den(self):
        return poly.pmul(self.den, _reflect(self.den))


def _exp_rational_form(a):
    """The single-exponential form of ``a``: one AP term of nonzero amplitude
    and at most one rational part sharing its shift; None otherwise."""
    if len(a.ap) != 1 or abs(a.ap[0].coeff) <= COEFF_PRUNE:
        return None
    delta = a.ap[0].freq
    amp = a.ap[0].coeff
    if any(abs(w.shift - delta) > FREQ_TOL for w in a.l0):
        return None
    if len(a.l0) > 1:
        return None  # canonical form merges equal shifts, so this is defensive
    if a.l0:
        rat = a.l0[0].rational
        num, poles, den = np.asarray(rat.num), rat.poles, np.asarray(rat.den)
    else:
        num, poles, den = np.zeros(1, dtype=complex), (), np.ones(1, dtype=complex)
    return _ExpRational(
        delta, amp, poles, den, poly.padd(poly.pscale(den, amp), num), _carried(a)
    )


def _real_zero(a, form):
    """Whether the single exponential ``a`` (of form ``form``) vanishes on
    the real line.

    It reads ``form.zeros``.  A real zero lies within REAL_AXIS_TOL of the
    axis, and a carried zero is exact.  No found zero near the axis means no
    zero either.  But the companion-matrix roots of an m-fold real root
    scatter off the axis like eps^(1/m), past any fixed tolerance and past
    the fusing of `poly.root_clusters` once m is large, so found zeros that
    may be such a scatter (`_scattered`) are settled by
    `_sampled_invertible`, which may raise Inconclusive."""
    if form.carried is None and _scattered(form.zeros):
        return not _sampled_invertible(a)
    return any(abs(z.imag) <= REAL_AXIS_TOL for z, _ in form.zeros)


def _scattered(zeros):
    """Whether found (zero, multiplicity) pairs may be the scatter of a
    multiple real root: none lies within REAL_AXIS_TOL of the axis, and one
    lies in the band |Im z| <= NEAR_AXIS_TOL max(1, |z|)."""
    return not any(abs(z.imag) <= REAL_AXIS_TOL for z, _ in zeros) and any(
        abs(z.imag) <= NEAR_AXIS_TOL * max(1.0, abs(z)) for z, _ in zeros
    )


def _require_no_real_zero(a, form):
    """NotInvertible when `_real_zero` finds a zero; an Inconclusive sampled
    bound lets the caller go on, as `inverse` does for other symbols."""
    try:
        zero = _real_zero(a, form)
    except Inconclusive:
        return
    if zero:
        raise NotInvertible("symbol has a zero on the real axis")


def _poly_identity(p, q, tol):
    """p = q coefficientwise, within ``tol`` of the largest coefficient."""
    if len(p) < len(q):
        p, q = q, p
    diff = p.copy()
    diff[: len(q)] -= q
    scale = max(np.abs(p).max(), np.abs(q).max())
    return bool(np.abs(diff).max() <= tol * scale)


def _same_mirror_product(a, b):
    """a(t)a(-t) = b(t)b(-t), the one matching decision.

    For two single exponentials it is the polynomial identity
    N_a(t)N_a(-t) D_b(t)D_b(-t) = N_b(t)N_b(-t) D_a(t)D_a(-t) (the
    exponentials cancel), within 1e-10 of the largest coefficient.  Other
    symbols compare the two products, by `GSymbol.isclose` within 1e-12 and
    then on 2001 samples of [-50, 50], within 1e-10."""
    fa, fb = a._exp_form, b._exp_form
    if fa is not None and fb is not None:
        return _poly_identity(
            poly.pmul(fa.mirror_N, fb.mirror_den),
            poly.pmul(fb.mirror_N, fa.mirror_den),
            1e-10,
        )
    lhs = a * tilde(a)
    rhs = b * tilde(b)
    if lhs.isclose(rhs, 1e-12):
        return True
    t = np.linspace(-50.0, 50.0, 2001)
    return bool(np.max(np.abs(lhs.eval(t) - rhs.eval(t))) <= 1e-10)


def inverse(a: GSymbol) -> GSymbol:
    """Symbolic inverse where it stays in the representation.

    In-scope inputs look like c e^(i delta t) (a0 + R(t)); everything else
    raises NotInvertible (when inf|a| = 0) or NotRepresentable.
    """
    if a.is_zero():
        raise NotInvertible("zero symbol")
    if not a.ap:
        raise NotInvertible("symbol vanishes at infinity (no almost-periodic part)")
    form = a._exp_form
    if form is None:
        try:
            ok = is_invertible(a)
        except Inconclusive:
            ok = True
        if not ok:
            raise NotInvertible("symbol has a real zero")
        raise NotRepresentable(
            "inverse leaves the finite representation (nonconstant almost-periodic part)"
        )
    _require_no_real_zero(a, form)
    # the zeros and poles swap
    return _from_factors(-form.delta, 1.0 / form.amp, form.poles, form.zeros)


# --- indices -------------------------------------------------------------------

def nu(a: GSymbol):
    """Mean motion of the almost-periodic part.

    Exact when one coefficient dominates the rest; otherwise the mean slope of
    the unwrapped argument over two long windows, which must agree.
    """
    if not a.ap:
        raise NotInvertible("mean motion undefined: almost-periodic part vanishes")
    if len(a.ap) == 1:
        return a.ap[0].freq
    mags = [abs(u.coeff) for u in a.ap]
    j0 = int(np.argmax(mags))
    if mags[j0] > sum(m for j, m in enumerate(mags) if j != j0):
        return a.ap[j0].freq
    ap_only = GSymbol(a.ap, ())
    maxfreq = max(abs(u.freq) for u in a.ap)
    step = min(0.05, 0.5 / (1.0 + maxfreq))
    slopes = []
    for L in (1e3, 1e4):
        t = np.arange(-L, L + step, step)
        ph = np.unwrap(np.angle(ap_only.eval(t)))
        slopes.append((ph[-1] - ph[0]) / (t[-1] - t[0]))
    if abs(slopes[0] - slopes[1]) > 1e-3:
        raise MeanMotionUnresolved(
            f"window slopes {slopes[0]:.6f} and {slopes[1]:.6f} disagree"
        )
    return float(slopes[1])


def winding_n(a: GSymbol):
    """Winding of 1 + b^(-1) k across the compactified line (b = AP part).

    Exact zero/pole counting when b is a single exponential sharing its shift
    with the rational part; numerical unwrapping with endpoint asymptotics
    otherwise.  Always an integer, kept on the symbol (an error is not).
    """
    return a._winding


def _winding_n(a):
    if not a.ap:
        raise NotInvertible("winding undefined: almost-periodic part vanishes")
    form = a._exp_form
    if form is not None:
        _require_no_real_zero(a, form)
        upper_zeros = sum(k for z, k in form.zeros if z.imag > REAL_AXIS_TOL)
        return upper_zeros - sum(m for p, m in form.poles if p.imag > 0)
    # numerical route: w(t) = a(t)/b(t) - 1 = b^(-1) k
    ap_only = GSymbol(a.ap, ())

    def wfun(t):
        return a.eval(t) / ap_only.eval(t) - 1.0

    maxfreq = max(abs(u.freq) for u in a.ap) + max(
        [abs(w.shift) for w in a.l0], default=0.0
    )
    step = min(0.01, 0.2 / (1.0 + maxfreq))
    L = 200.0
    for _ in range(8):
        if abs(wfun(L)) < 0.5 and abs(wfun(-L)) < 0.5:
            break
        L *= 2
    else:
        raise WindingUnresolved("rational tail does not settle below 1/2")
    t = np.arange(-L, L + step, step)
    if np.min(np.abs(ap_only.eval(t))) < 1e-9:
        raise NotInvertible("almost-periodic part not bounded away from zero")
    vals = 1.0 + wfun(t)
    if np.min(np.abs(vals)) < 1e-9:
        raise NotInvertible("1 + b^(-1)k vanishes on the sample grid")
    ph = np.unwrap(np.angle(vals))
    total = ph[-1] - ph[0]
    # |w| < 1 beyond +-L, so the tails cannot wind: close the curve through 1
    total += -np.angle(vals[-1]) + np.angle(vals[0])
    n = total / (2 * np.pi)
    if abs(n - round(n)) > 1e-3:
        raise WindingUnresolved(f"total phase {n:.6f} (in turns) is not an integer")
    return int(round(n))


def is_matching(g: GSymbol) -> bool:
    """g(t) g(-t) = 1, decided by `_same_mirror_product` with b = 1."""
    form = g._exp_form
    if form is not None:
        return _poly_identity(form.mirror_N, form.mirror_den, 1e-10)
    return _same_mirror_product(g, one())


def xi(g: GSymbol) -> int:
    """Sign invariant (-1)^n g(0) of a matching function with zero mean motion."""
    if not is_matching(g):
        raise NotMatching("xi is defined for matching symbols only")
    if abs(nu(g)) > FREQ_TOL:
        raise NotMatching("xi requires zero mean motion")
    n = winding_n(g)
    val = complex(g.eval(0.0)) * (-1) ** (n % 2)
    if abs(val - 1.0) < 1e-8:
        return 1
    if abs(val + 1.0) < 1e-8:
        return -1
    raise XiNotUnimodular(f"(-1)^n g(0) = {val} is not near +-1")
