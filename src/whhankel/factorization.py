"""Wiener-Hopf factorization of invertible symbols.

An invertible symbol in the factorizable scope (a single exponential times a
rational function with no real zeros or poles) splits as

    g(t) = g_-(t) e^(i nu t) ((t-i)/(t+i))^n g_+(t),

where g_- and its inverse extend to the lower half-plane, g_+ to the upper,
and the winding index n rides exclusively on the middle factor.  With the
normalization g_-(0) = 1 the factors are unique, which makes repeated runs
bit-identical.  For matching symbols (g(t)g(-t) = 1) the minus factor
collapses onto the plus factor: g_- = xi * tilde(g_+)^(-1) with xi = +-1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import poly, symbols
from .errors import (
    NotFactorizable,
    NotInvertible,
    NotMatching,
    StructureViolation,
    WrongSide,
)
from .symbols import GSymbol


@dataclass(frozen=True)
class WHFactorization:
    symbol: GSymbol
    g_minus: GSymbol
    nu: float
    n: int
    g_plus: GSymbol

    def residual(self):
        """Max pointwise deviation of g_- e^(i nu t) chi^n g_+ from the input,
        on 200 points of [-40, 40]."""
        t = np.linspace(-40.0, 40.0, 200)
        lhs = self.symbol.eval(t)
        rhs = (
            self.g_minus.eval(t)
            * np.exp(1j * self.nu * t)
            * symbols.chi(self.n).eval(t)
            * self.g_plus.eval(t)
        )
        return float(np.max(np.abs(lhs - rhs)))

    def to_dict(self):
        return {
            "symbol": self.symbol.to_dict(),
            "g_minus": self.g_minus.to_dict(),
            "nu": self.nu,
            "n": self.n,
            "g_plus": self.g_plus.to_dict(),
        }


@dataclass(frozen=True)
class OperatorRecipe:
    """Ordered symbols denoting the operator composition W(f1) W(f2) ... W(fk)."""

    factors: tuple


def factorize(g: GSymbol) -> WHFactorization:
    """Split zeros and poles by half-plane; degree-balance with (t -+ i) factors.

    nu is the exponential frequency; n counts upper-half-plane zeros minus
    upper-half-plane poles.  The poles are the symbol's own, the zeros are
    the (zero, multiplicity) pairs of N = amp*den + num that every decision
    reads (`symbols._ExpRational.zeros`: carried, or found once), and a zero
    on the real axis (decided by `symbols._real_zero`, which may raise
    Inconclusive) aborts: the half-plane assignment is the entire
    correctness burden here.  Both factors carry their zeros.
    """
    if g.is_zero():
        raise NotInvertible("zero symbol")
    if not g.ap:
        raise NotInvertible("symbol vanishes at infinity")
    form = g._exp_form
    if form is None:
        raise NotFactorizable(
            "not a single exponential sharing its shift with the rational "
            "part; no algorithm for genuinely almost-periodic symbols"
        )
    if symbols._real_zero(g, form):
        raise NotInvertible("symbol vanishes on the real axis")
    z_up = [(z, k) for z, k in form.zeros if z.imag > 0]
    z_dn = [(z, k) for z, k in form.zeros if z.imag < 0]
    p_up = [(p, m) for p, m in form.poles if p.imag > 0]
    p_dn = [(p, m) for p, m in form.poles if p.imag < 0]
    n = sum(k for _, k in z_up) - sum(m for _, m in p_up)

    # g_-: upper zeros/poles, balanced by (t-i); g_+: lower ones, by (t+i)
    g_minus = symbols._from_factors(0.0, 1.0, *poly.merge_factors(
        (z_up, [(1j, max(0, -n))]), (p_up, [(1j, max(0, n))])
    ))
    g_plus = symbols._from_factors(0.0, form.amp, *poly.merge_factors(
        (z_dn, [(-1j, max(0, n))]), (p_dn, [(-1j, max(0, -n))])
    ))

    w = complex(g_minus.eval(0.0))
    if abs(w) < 1e-14:
        raise StructureViolation("minus factor vanishes at 0")
    g_minus = g_minus * (1.0 / w)
    g_plus = g_plus * w
    return WHFactorization(symbol=g, g_minus=g_minus, nu=form.delta, n=n, g_plus=g_plus)


def matching_factorization(g: GSymbol):
    """(g_plus, n, xi) with the verified identity g_- = xi * tilde(g_+)^(-1)."""
    if not symbols.is_matching(g):
        raise NotMatching("matching factorization requires g(t) g(-t) = 1")
    f = factorize(g)
    if abs(f.nu) > symbols.FREQ_TOL:
        raise NotFactorizable("matching factorization requires zero mean motion")
    sign = symbols.xi(g)
    predicted_minus = symbols.inverse(symbols.tilde(f.g_plus)) * sign
    t = np.linspace(-40.0, 40.0, 200)
    dev = float(np.max(np.abs(f.g_minus.eval(t) - predicted_minus.eval(t))))
    if dev > 1e-10:
        raise StructureViolation(
            f"minus factor deviates from xi * tilde(g_+)^(-1) by {dev:.2e}"
        )
    return f.g_plus, f.n, sign


def one_sided_inverse_recipe(f: WHFactorization, side: str) -> OperatorRecipe:
    """[g_+^(-1), chi^(-n), g_-^(-1)]: a one-sided inverse of W(g) by half-line
    operator calculus.  Right inverses need n <= 0, left inverses n >= 0."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    if abs(f.nu) > symbols.FREQ_TOL:
        raise WrongSide("one-sided inverse recipes require zero mean motion")
    if side == "right" and f.n > 0:
        raise WrongSide(f"n = {f.n} > 0 admits no right inverse recipe")
    if side == "left" and f.n < 0:
        raise WrongSide(f"n = {f.n} < 0 admits no left inverse recipe")
    factors = [
        symbols.inverse(f.g_plus),
        symbols.chi(-f.n),
        symbols.inverse(f.g_minus),
    ]
    kept = tuple(x for x in factors if not x.isclose(symbols.one(), 1e-13))
    return OperatorRecipe(factors=kept)
