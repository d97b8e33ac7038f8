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

A single exponential whose zeros construction knows is valued by its factor
list `_Factors`, e^(i delta t) amp prod (t - z)^k / prod (t - p)^m with
canonical (zero, multiplicity) and (pole, multiplicity) pairs of equal
degree.  Such symbols come from the DSL's factor lists, `chi`, a product of
two of them (`GSymbol.__mul__`: the lists merge and equal zero/pole pairs
cancel, with no sum), a product with c e^(i delta t), `inverse` (zeros and
poles swap), `tilde`, `conj` and negation, which map the lists, and the
Wiener-Hopf factors of `factorization.factorize`.  Products, inverses, the
involutions, matching (`_same_mirror_product`, `is_matching`), `isclose`,
`winding_n`, `xi` and invertibility read the lists.  Their coefficients
``ap`` and ``l0`` are derived once, on first read, by the symbol's recipe
(`_expansion` for a list, or the exact map of the operand it came from),
and every derivation is checked against the list at _CHECK_T
(`_check_values`): NotRepresentable where the coefficients lose the value,
as those of ``chi(60)`` do.  Whatever reads numbers derives: ``eval``,
``==``, ``hash``, ``repr``, ``to_dict``, pickling, the half-line and
time-kernel functions and the oracle's generators.

Every other symbol is its coefficients, and decisions on it read them: a
sum, whose zeros are found once, on demand, by `poly.root_clusters`, and a
symbol built from coefficients.  Found zeros are not exact, and a text
round trip that refinds them passes the coefficient identities more often
than list matching (README, "Numerical notes").  Either way every decision
on a single exponential reads one factor list, `GSymbol._exp_form`.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass, replace
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

#: real points where derived coefficients are checked against their factors
_CHECK_T = np.array([0.3, 1.0, 5.0])


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
class _Factors:
    """e^(i delta t) amp prod (t - z)^k / prod (t - p)^m: canonical (zero,
    multiplicity) and (pole, multiplicity) pairs of equal degree: the value
    of a single exponential that carries its zeros, and the form of any
    single exponential that decisions read (`GSymbol._exp_form`)."""

    delta: float
    amp: complex
    zeros: tuple
    poles: tuple


class GSymbol:
    """A symbol by its terms: ``ap``, a tuple of APTerm, and ``l0``, a tuple
    of L0Term.  One valued by its factor list derives both on first read
    (`_derive`).  Immutable; equality and hashing compare the terms."""

    def __init__(self, ap, l0):
        self.__dict__.update(ap=ap, l0=l0)

    def __setattr__(self, name, _value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @cached_property
    def ap(self):
        return _derive(self)[0]

    @cached_property
    def l0(self):
        return _derive(self)[1]

    def __eq__(self, other):
        if other.__class__ is not GSymbol:
            return NotImplemented
        return (self.ap, self.l0) == (other.ap, other.l0)

    def __hash__(self):
        return hash((self.ap, self.l0))

    def __repr__(self):
        return f"GSymbol(ap={self.ap!r}, l0={self.l0!r})"

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        return make_symbol(
            [(u.freq, u.coeff) for u in self.ap + other.ap],
            [(v.shift, v.rational.num, v.rational.poles) for v in self.l0 + other.l0],
        )

    __radd__ = __add__

    def __neg__(self):
        f = _factors(self)
        # u.coeff * -1 keeps the bits of make_symbol's product with -1
        return _symbol(f and replace(f, amp=f.amp * -1), lambda: _canonical(
            [(u.freq, u.coeff * -1) for u in self.ap],
            [(w.shift, -np.asarray(w.rational.num), w.rational.poles) for w in self.l0],
        ))

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __mul__(self, other):
        other = _coerce(other)
        fx, fy = _factors(self), _factors(other)
        for g, k in ((self, fy), (other, fx)):
            if k is not None and not k.poles:  # g times c e^(i delta t)
                scaled = _scaled(g, k.amp, k.delta)
                if scaled is not None:
                    return scaled
        if fx is not None and fy is not None:
            amp = fx.amp * fy.amp
            if fx.poles and fy.poles and abs(amp) > COEFF_PRUNE:
                # the lists merge, shared pairs cancel
                zeros, poles = poly.merge_factors((fx.zeros, fy.zeros), (fx.poles, fy.poles))
                return _from_factors(fx.delta + fy.delta, amp, zeros, poles)
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
        return make_symbol(ap_terms, l0_terms)

    __rmul__ = __mul__

    def __reduce__(self):
        # the terms are the pickled value; a factor list is rebuilt by none
        return GSymbol, (self.ap, self.l0)

    @cached_property
    def _exp_form(self):
        return _exp_rational_form(self)

    @cached_property
    def _winding(self):
        return _winding_n(self)

    # -- structure -------------------------------------------------------

    def is_zero(self):
        return "_factors" not in self.__dict__ and not self.ap and not self.l0

    def eval(self, t):
        """Pointwise value; t may be a scalar or an ndarray."""
        out = _eval_terms(self.ap, self.l0, t)
        return out if out.shape else complex(out)

    def isclose(self, other, tol=1e-10):
        """Comparison of canonical forms, tolerant to rounding in coefficients.

        Two symbols valued by factor lists are equal when their shifts agree
        within FREQ_TOL, their amplitudes within relative ``tol``, and their
        lists cancel (`poly.merge_factors`).  Other single-exponential
        symbols e^(i delta t) N/D are equal when their shifts agree and
        N_a D_b = N_b D_a coefficientwise (relative ``tol``); other symbols
        compare their difference, sampled around every pole.
        """
        other = _coerce(other)
        la, lb = _factors(self), _factors(other)
        if la is not None and lb is not None:
            return (
                abs(la.delta - lb.delta) <= FREQ_TOL
                and _close(la.amp, lb.amp, tol)
                and _cancels((la.zeros, lb.poles), (la.poles, lb.zeros))
            )
        fa, fb = self._exp_form, other._exp_form
        if fa is not None and fb is not None:
            if abs(fa.delta - fb.delta) > FREQ_TOL:
                return False
            (na, da), (nb, db) = _n_den(self, fa), _n_den(other, fb)
            return _poly_identity(poly.pmul(na, db), poly.pmul(nb, da), tol)
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


def _eval_terms(ap, l0, t):
    """The value of the terms ap and l0 at the points t (an ndarray)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape, dtype=complex)
    for u in ap:
        out += u.coeff * np.exp(1j * u.freq * t)
    for w in l0:
        out += np.exp(1j * w.shift * t) * w.rational.eval(t)
    return out


# --- factor lists -------------------------------------------------------------

def _factors(g):
    """The factor list of g where g carries its zeros: its own value, or the
    empty lists of one almost-periodic term c e^(i delta t); None otherwise."""
    f = g.__dict__.get("_factors")
    if f is None and len(g.ap) == 1 and not g.l0:
        f = _Factors(g.ap[0].freq, g.ap[0].coeff, (), ())
    return f


def _symbol(factors, terms):
    """The symbol valued by ``factors``, whose terms ``terms()`` derives on
    first read; with no factors, the symbol of ``terms()`` now."""
    if factors is None:
        return GSymbol(*terms())
    g = GSymbol.__new__(GSymbol)
    g.__dict__.update(_factors=factors, _recipe=terms)
    return g


def _derive(g):
    """(ap, l0) of a symbol valued by its factor list: its recipe's terms,
    checked against the list (`_check_values`) and then kept on it.  A
    failed check keeps the recipe, so every read raises again."""
    d = g.__dict__
    ap, l0 = d["_recipe"]()
    f = d["_factors"]
    _check_values(
        _eval_terms(ap, l0, _CHECK_T),
        f.amp * np.exp(1j * f.delta * _CHECK_T) * _list_values(f.zeros, f.poles),
        sum(m for _, m in f.poles),
    )
    del d["_recipe"]
    d["ap"], d["l0"] = ap, l0
    return ap, l0


def _list_values(zeros, poles):
    """prod (t - z)^k / prod (t - p)^m at _CHECK_T."""
    with np.errstate(all="ignore"):
        out = np.ones(_CHECK_T.shape, dtype=complex)
        for z, k in zeros:
            out = out * (_CHECK_T - z) ** k
        for p, m in poles:
            out = out / (_CHECK_T - p) ** m
    return out


def _check_values(got, want, degree):
    """NotRepresentable unless the coefficients' values ``got`` give the
    factors' values ``want`` at _CHECK_T, within 1e-8 of the largest value,
    or of 1 if that is smaller: coefficients are pruned (poly.trim), and
    those of a high power lose accuracy."""
    with np.errstate(all="ignore"):
        err = np.max(np.abs(got - want))
        scale = max(np.max(np.abs(want)), 1.0)
    if not (err <= 1e-8 * scale and np.isfinite(scale)):
        raise NotRepresentable(
            f"a rational function of degree {degree}: its expanded coefficients "
            f"are off by {err:.3g} at t in {_CHECK_T.tolist()}"
        )


def _from_factors(delta, amp, zeros, poles):
    """The single exponential valued e^(i delta t) amp prod (t - z)^k /
    prod (t - p)^m, of equal degrees; its coefficients are expanded on first
    read (`_expansion`)."""
    for p, _ in poles:
        if abs(p.imag) <= REAL_AXIS_TOL:
            raise RealPoleError(p)
    f = _Factors(_freq(delta), complex(amp), zeros, poles)
    return _symbol(f, lambda: _expansion(f))


def _expansion(f):
    """The terms of the factor list f: num = amp (prod (t - z)^k - den), so
    nothing is summed or cancelled."""
    den = poly.from_poles(f.poles)
    num = poly.pscale(poly.padd(poly.from_poles(f.zeros), -den), f.amp)
    l0 = ()
    if not poly.is_zero(num):
        rat = RationalPart(tuple(num), f.poles)
        rat.__dict__["den"] = tuple(den)
        l0 = (L0Term(f.delta, rat),)
    return (APTerm(f.delta, f.amp),), l0


def _scaled(g, c, delta=0.0):
    """c e^(i delta t) g, term by term: no sum, so every pole and carried
    zero of g stays, where make_symbol's cancel could drop a pole at which
    the numerator is small (the bits are make_symbol's otherwise).  None
    when make_symbol would prune a term, and for delta != 0 when g carries
    no zeros.  A symbol valued by its factor list keeps it, and its terms
    are not read, where no term can fall below the prune: for |c| >= 1, and
    where the scaled amplitude and the numerator's t^(deg - 1) coefficient
    amp (sum m p - sum k z) both exceed 2 COEFF_PRUNE."""
    f = _factors(g)
    if delta and f is None:
        return None
    f = f and _Factors(_freq(f.delta + delta), f.amp * c, f.zeros, f.poles)

    def terms():
        return (
            [(u.freq + delta, u.coeff * c) for u in g.ap],
            [(w.shift + delta, poly.pscale(w.rational.num, c), w.rational.poles)
             for w in g.l0],
        )

    if f is not None:
        lead = f.amp * (sum(m * p for p, m in f.poles) - sum(k * z for z, k in f.zeros))
        if abs(c) >= 1.0 or min(abs(f.amp), abs(lead)) > 2 * COEFF_PRUNE:
            return _symbol(f, lambda: _canonical(*terms()))
    ap, l0 = terms()
    cut = COEFF_PRUNE * max([1.0] + [abs(x) for _, x in ap])
    if any(abs(x) <= cut for _, x in ap) or any(poly.is_zero(num) for _, num, _ in l0):
        return None
    return _symbol(f, lambda: _canonical(ap, l0))


def _freq(x):
    """A frequency or shift as make_symbol keeps it: +0.0 within FREQ_TOL."""
    return float(x) if abs(x) > FREQ_TOL else 0.0


def _mapped_pairs(pairs, zmap):
    """Canonical (zero, multiplicity) pairs of ``pairs`` under the map zmap."""
    return tuple(sorted(((zmap(z), k) for z, k in pairs), key=poly.pole_key))


def _close(x, y, tol):
    """|x - y| within ``tol`` of the larger modulus."""
    return abs(x - y) <= tol * max(abs(x), abs(y))


def _cancels(zero_lists, pole_lists):
    """Whether the zeros cancel against the poles (`poly.merge_factors`)."""
    zeros, poles = poly.merge_factors(zero_lists, pole_lists)
    return not zeros and not poles


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


def _canonical(ap_terms, l0_terms):
    """(ap, l0) of a canonical symbol's terms under an exact map: ``ap_terms``
    are its (freq, coeff) pairs and ``l0_terms`` its (shift, num, poles)
    triples, each mapped on its own.

    A canonical symbol has nothing to merge, cancel or prune, so ordering the
    terms and poles gives make_symbol's result, bit for bit: a frequency or
    shift within FREQ_TOL of 0 is +0.0, and each numerator gets the + 0.0 of
    make_symbol's sum, which turns its -0.0 parts into +0.0."""
    return (
        tuple(
            APTerm(_freq(freq), coeff)
            for freq, coeff in sorted(ap_terms, key=lambda fc: fc[0])
        ),
        tuple(
            L0Term(_freq(shift), RationalPart(
                tuple(num + 0.0), tuple(sorted(poles, key=poly.pole_key))
            ))
            for shift, num, poles in sorted(l0_terms, key=lambda t: t[0])
        ),
    )


def tilde(a: GSymbol) -> GSymbol:
    """Reflection a(t) -> a(-t): each pole and zero z maps to -z."""
    f = _factors(a)

    def terms():
        l0 = []
        for w in a.l0:
            poles = w.rational.poles
            sign = (-1.0) ** sum(m for _, m in poles)
            l0.append((-w.shift, _reflect(w.rational.num) * sign, [(-p, m) for p, m in poles]))
        return _canonical([(-u.freq, u.coeff) for u in a.ap], l0)

    return _symbol(f and _Factors(
        _freq(-f.delta), f.amp, _mapped_pairs(f.zeros, lambda z: -z),
        _mapped_pairs(f.poles, lambda z: -z),
    ), terms)


def conj(a: GSymbol) -> GSymbol:
    """Complex conjugate on the real line: conj(a)(t) = conj(a(t)); each
    pole and zero z maps to conj(z)."""
    f = _factors(a)
    return _symbol(f and _Factors(
        _freq(-f.delta), f.amp.conjugate(), _mapped_pairs(f.zeros, complex.conjugate),
        _mapped_pairs(f.poles, complex.conjugate),
    ), lambda: _canonical(
        [(-u.freq, u.coeff.conjugate()) for u in a.ap],
        [
            (
                -w.shift,
                np.conj(np.asarray(w.rational.num, dtype=complex)),
                [(p.conjugate(), m) for p, m in w.rational.poles],
            )
            for w in a.l0
        ],
    ))


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


def _exp_rational_form(a):
    """The factor list of the single exponential ``a``: one AP term of
    nonzero amplitude and at most one rational part sharing its shift; None
    otherwise.  A symbol that carries its zeros gives its own list; any other
    gives the zeros of N = amp*den + num, found once by `poly.root_clusters`
    and not exact."""
    f = _factors(a)
    if f is not None:
        return None if abs(f.amp) <= COEFF_PRUNE else f
    if len(a.ap) != 1 or abs(a.ap[0].coeff) <= COEFF_PRUNE:
        return None
    delta = a.ap[0].freq
    if any(abs(w.shift - delta) > FREQ_TOL for w in a.l0):
        return None
    if len(a.l0) > 1:
        return None  # canonical form merges equal shifts, so this is defensive
    f = _Factors(delta, a.ap[0].coeff, (), a.l0[0].rational.poles)
    return replace(f, zeros=poly.root_clusters(_n_den(a, f)[0]))


def _n_den(a, f):
    """(N, den) of the single exponential a = e^(i delta t) N/den with factor
    list f: N = amp prod (t - z)^k where a carries its zeros, else
    amp*den + num."""
    den = poly.from_poles(f.poles)
    if _factors(a) is not None:
        return poly.from_poles(f.zeros, f.amp), den
    return poly.padd(poly.pscale(den, f.amp), np.asarray(a.l0[0].rational.num)), den


def _real_zero(a, form):
    """Whether the single exponential ``a`` (of form ``form``) vanishes on
    the real line.

    It reads ``form.zeros``.  A real zero lies within REAL_AXIS_TOL of the
    axis, and a carried zero (`_factors`) is exact.  No found zero near the
    axis means no zero either.  But the companion-matrix roots of an m-fold
    real root scatter off the axis like eps^(1/m), past any fixed tolerance
    and past the fusing of `poly.root_clusters` once m is large, so found
    zeros that may be such a scatter (`_scattered`) are settled by
    `_sampled_invertible`, which may raise Inconclusive."""
    if _factors(a) is None and _scattered(form.zeros):
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

    For two symbols that carry their zeros (`_factors`) the exponentials
    cancel and g(t)g(-t) = amp^2 prod (t - z)(t + z) / prod (t - p)(t + p):
    amp_a^2 = amp_b^2 within a relative 1e-10, and the lists of a a~ cancel
    against those of b b~ (`_mirrors_cancel`).  For other single
    exponentials it is the polynomial identity
    N_a(t)N_a(-t) D_b(t)D_b(-t) = N_b(t)N_b(-t) D_a(t)D_a(-t), within 1e-10
    of the largest coefficient.  Other symbols compare the two products, by
    `GSymbol.isclose` within 1e-12 and then on 2001 samples of [-50, 50],
    within 1e-10."""
    la, lb = _factors(a), _factors(b)
    if la is not None and lb is not None:
        return _mirrors_cancel(la, lb)
    fa, fb = a._exp_form, b._exp_form
    if fa is not None and fb is not None:
        def mirrored(g, f):  # N(t)N(-t) and den(t)den(-t)
            return [poly.pmul(p, _reflect(p)) for p in _n_den(g, f)]

        (na, da), (nb, db) = mirrored(a, fa), mirrored(b, fb)
        return _poly_identity(poly.pmul(na, db), poly.pmul(nb, da), 1e-10)
    lhs = a * tilde(a)
    rhs = b * tilde(b)
    if lhs.isclose(rhs, 1e-12):
        return True
    t = np.linspace(-50.0, 50.0, 2001)
    return bool(np.max(np.abs(lhs.eval(t) - rhs.eval(t))) <= 1e-10)


def _mirrors_cancel(fa, fb):
    """a(t)a(-t) = b(t)b(-t) for the factor lists fa and fb of a and b."""
    def mirrored(pairs):
        return pairs, [(-z, k) for z, k in pairs]

    return _close(fa.amp * fa.amp, fb.amp * fb.amp, 1e-10) and _cancels(
        (*mirrored(fa.zeros), *mirrored(fb.poles)),
        (*mirrored(fa.poles), *mirrored(fb.zeros)),
    )


def inverse(a: GSymbol) -> GSymbol:
    """Symbolic inverse where it stays in the representation.

    In-scope inputs look like c e^(i delta t) (a0 + R(t)); everything else
    raises NotInvertible (when inf|a| = 0) or NotRepresentable.
    """
    if a.is_zero():
        raise NotInvertible("zero symbol")
    form = a._exp_form
    if form is None:
        if not a.ap:
            raise NotInvertible("symbol vanishes at infinity (no almost-periodic part)")
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
    f = _factors(a)
    if f is not None:
        return f.delta
    if not a.ap:
        raise NotInvertible("mean motion undefined: almost-periodic part vanishes")
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
    form = a._exp_form
    if form is not None:
        _require_no_real_zero(a, form)
        upper_zeros = sum(k for z, k in form.zeros if z.imag > REAL_AXIS_TOL)
        return upper_zeros - sum(m for p, m in form.poles if p.imag > 0)
    if not a.ap:
        raise NotInvertible("winding undefined: almost-periodic part vanishes")
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
    """g(t) g(-t) = 1: `_same_mirror_product` with b = 1."""
    return _same_mirror_product(g, one())


def _value_at_zero(g):
    """g(0): amp prod (-z)^k / prod (-p)^m for a symbol that carries its
    zeros, else from its coefficients."""
    f = _factors(g)
    if f is None:
        return complex(g.eval(0.0))
    val = f.amp
    for z, k in f.zeros:
        val *= (-z) ** k
    for p, m in f.poles:
        val /= (-p) ** m
    return val


def xi(g: GSymbol) -> int:
    """Sign invariant (-1)^n g(0) of a matching function with zero mean motion."""
    if not is_matching(g):
        raise NotMatching("xi is defined for matching symbols only")
    if abs(nu(g)) > FREQ_TOL:
        raise NotMatching("xi requires zero mean motion")
    n = winding_n(g)
    val = _value_at_zero(g) * (-1) ** (n % 2)
    if abs(val - 1.0) < 1e-8:
        return 1
    if abs(val + 1.0) < 1e-8:
        return -1
    raise XiNotUnimodular(f"(-1)^n g(0) = {val} is not near +-1")
