"""Text language for entering symbols.

Grammar (precedence low to high; binary operators left-associative):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' ['-'] INT)?
    atom   := NUMBER | 't' | 'chi' | 'e' '(' ['-'] NUMBER ')' | '(' expr ')'

Numbers may carry an ``i`` suffix for imaginary literals (``2i``, ``3.5i``,
bare ``i``); scientific notation is accepted.  ``e(d)`` denotes e^(i d t),
``chi`` is (t-i)/(t+i), ``^`` takes integer exponents only.

Lowering keeps what it knows in factored form: literals, ``t``, ``chi`` and
linear sums become factor lists `Factors` (a lead with zero and pole
lists), products merge the lists and cancel equal zero/pole pairs,
quotients swap them and powers multiply their multiplicities.  A list is
expanded once, when it becomes a symbol, which then carries its zeros.  A
sum that is not linear is kept by coefficients (`poly.rational_sum`), and
dividing by it or raising it to a power finds the roots of its numerator.
Every sum, linear or not, is zero by the one rule `poly.vanishes`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

import numpy as np

from . import poly, symbols
from .errors import ImproperRational, NotInvertible, NotRepresentable, SymbolSyntaxError
from .symbols import RationalPart

# --- tokens -----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?i?|i(?![A-Za-z_0-9]))
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^()])
    """,
    re.VERBOSE,
)

_KEYWORDS = {"t", "chi", "e"}


@dataclass(frozen=True)
class Token:
    kind: str  # number | name | op | eof
    text: str
    pos: int


def tokenize(text):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise SymbolSyntaxError(
                f"unrecognized character {text[pos]!r}", pos,
                expected={"number", "name", "operator"},
            )
        if m.lastgroup != "ws":
            out.append(Token(m.lastgroup, m.group(), pos))
        pos = m.end()
    out.append(Token("eof", "", len(text)))
    return out


# --- AST ---------------------------------------------------------------------

@dataclass(frozen=True)
class Lit:
    value: complex
    pos: int = 0


@dataclass(frozen=True)
class Var:
    pos: int = 0


@dataclass(frozen=True)
class Chi:
    pos: int = 0


@dataclass(frozen=True)
class EFunc:
    delta: float
    pos: int = 0


@dataclass(frozen=True)
class Neg:
    operand: object
    pos: int = 0


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object
    pos: int = 0


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int
    pos: int = 0


class _Parser:
    def __init__(self, text):
        self.text = text
        self.toks = tokenize(text)
        self.k = 0

    def peek(self):
        return self.toks[self.k]

    def advance(self):
        tok = self.toks[self.k]
        self.k += 1
        return tok

    def fail(self, message, expected):
        tok = self.peek()
        raise SymbolSyntaxError(
            f"{message}, found {tok.text!r}" if tok.text else f"{message}, found end of input",
            tok.pos,
            expected=expected,
        )

    def expect_op(self, op):
        tok = self.peek()
        if tok.kind == "op" and tok.text == op:
            return self.advance()
        self.fail(f"expected {op!r}", expected={op})

    # grammar ----------------------------------------------------------------

    def parse(self):
        node = self.expr()
        if self.peek().kind != "eof":
            self.fail("trailing input", expected={"+", "-", "*", "/", "end of input"})
        return node

    def expr(self):
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance()
            node = BinOp(op.text, node, self.term(), op.pos)
        return node

    def term(self):
        node = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance()
            node = BinOp(op.text, node, self.factor(), op.pos)
        return node

    def factor(self):
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Neg(self.factor(), tok.pos)
        return self.power()

    def power(self):
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            exp = self.signed_int()
            return Pow(base, exp, tok.pos)
        return base

    def signed_int(self):
        sign = 1
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            sign = -1
        tok = self.peek()
        if tok.kind != "number" or not tok.text.isdecimal():
            self.fail("expected integer exponent", expected={"integer"})
        self.advance()
        return sign * int(tok.text)

    def signed_real(self):
        sign = 1.0
        tok = self.peek()
        if tok.kind == "op" and tok.text in "+-":
            self.advance()
            if tok.text == "-":
                sign = -1.0
        tok = self.peek()
        if tok.kind != "number" or tok.text.endswith("i"):
            self.fail("expected real number", expected={"number"})
        self.advance()
        return sign * float(tok.text)

    def atom(self):
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            if tok.text == "i":
                return Lit(1j, tok.pos)
            if tok.text.endswith("i"):
                return Lit(1j * float(tok.text[:-1]), tok.pos)
            return Lit(complex(float(tok.text)), tok.pos)
        if tok.kind == "name":
            if tok.text == "t":
                self.advance()
                return Var(tok.pos)
            if tok.text == "chi":
                self.advance()
                return Chi(tok.pos)
            if tok.text == "e":
                self.advance()
                self.expect_op("(")
                delta = self.signed_real()
                self.expect_op(")")
                return EFunc(delta, tok.pos)
            self.fail(f"unknown name {tok.text!r}", expected=sorted(_KEYWORDS))
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.expr()
            self.expect_op(")")
            return node
        self.fail("expected a value", expected={"number", "t", "chi", "e", "("})


def parse(text):
    """Parse DSL text into an AST; raises SymbolSyntaxError with position."""
    return _Parser(text).parse()


# --- lowering ------------------------------------------------------------------

@dataclass(frozen=True)
class Factors:
    """lead * prod (t - z)^k / prod (t - p)^m with canonical (zero,
    multiplicity) and (pole, multiplicity) pairs, which may be improper
    mid-expression: what literals, t, chi, linear sums and their products,
    quotients and integer powers lower to.  `_expanded` makes the symbol."""

    lead: complex
    zeros: tuple = ()
    poles: tuple = ()


#: the largest degree a factor list is expanded to: no power above degree 256
#: passed the value check for roots of modulus 1e-6 to 2 (the expanded
#: denominator overflows at a check point), so this only spares the expansion
MAX_DEGREE = 1024

#: real points where an expanded factor list is checked against its factors
_CHECK_T = np.array([0.3, 1.0, 5.0])


def _fac_inverse(x):
    if x.lead == 0:
        raise NotInvertible("division by the zero symbol")
    return Factors(1.0 / x.lead, x.poles, x.zeros)


def _factored(x):
    """x as a factor list.  For a rational part, a sum that is not linear,
    the roots of its numerator are found: the one root search of the DSL."""
    if isinstance(x, Factors):
        return x
    num = poly.trim(x.num)
    return Factors(complex(num[-1]), poly.root_clusters(num), x.poles)


def _coeffs(x):
    """A factor list or a rational part as a rational part (coefficients)."""
    if isinstance(x, Factors):
        return RationalPart(tuple(poly.from_poles(x.zeros, x.lead)), x.poles)
    return x


def _line(x):
    """(c0, c1) of x, a factor list of degree at most 1 without poles, or None."""
    if not isinstance(x, Factors) or x.poles or sum(k for _, k in x.zeros) > 1:
        return None
    return (-x.zeros[0][0] * x.lead, x.lead) if x.zeros else (x.lead, 0j)


def _sum(x, y, sign):
    """x + sign * y, by coefficients; a linear result is a factor list.  Two
    linear lists have no pole to cancel, so they skip `poly.rational_sum`
    but keep its rule for a zero sum (`poly.vanishes`)."""
    lx, ly = _line(x), _line(y)
    if lx and ly:
        terms = np.array([lx, (ly[0] * sign, ly[1] * sign)])
        num = terms.sum(axis=0)
        num = np.zeros(1, dtype=complex) if poly.vanishes(num, terms) else poly.trim(num)
    else:
        x, y = _coeffs(x), _coeffs(y)
        num, poles = poly.rational_sum([(x.num, x.poles), (poly.pscale(y.num, sign), y.poles)])
        if poles or len(num) > 2:
            return RationalPart(tuple(num), poles)
    if len(num) == 1:
        return Factors(complex(num[0]))
    c = num if np.any(num.imag) else num.real  # the root proots would give
    return Factors(complex(num[1]), ((complex(-c[0] / c[1]), 1),))


def _rat_mul(x, y):
    return RationalPart(*poly.cancel(
        [poly.pmul(x.num, y.num)], poly.merge_poles(x.poles, y.poles)
    ))


def _promote(val):
    if isinstance(val, symbols.GSymbol):
        return val
    if isinstance(val, RationalPart):
        return symbols.pole_symbol(val.num, val.poles)
    return _expanded(val)


def _expanded(f):
    """The symbol of a factor list, its products expanded once.

    Raises NotRepresentable unless the expanded coefficients give the
    factors' values at _CHECK_T, within 1e-8 of the largest value, or of 1
    if that is smaller: coefficients are pruned (poly.trim), and those of a
    high power lose accuracy."""
    if f.lead == 0:
        return symbols.zero()
    deg, deg_den = sum(k for _, k in f.zeros), sum(m for _, m in f.poles)
    if deg > deg_den:
        raise ImproperRational(deg, deg_den)
    if deg_den > MAX_DEGREE:
        raise NotRepresentable(f"a rational function of degree {deg_den} > {MAX_DEGREE}")
    with np.errstate(all="ignore"):
        if deg < deg_den or abs(f.lead) <= poly.COEFF_PRUNE:
            sym = symbols.pole_symbol(poly.from_poles(f.zeros, f.lead), f.poles)
        else:
            sym = symbols._from_factors(0.0, f.lead, f.zeros, f.poles)
        want = np.full(_CHECK_T.shape, f.lead)
        for z, k in f.zeros:
            want = want * (_CHECK_T - z) ** k
        for p, m in f.poles:
            want = want / (_CHECK_T - p) ** m
        err = np.max(np.abs(sym.eval(_CHECK_T) - want))
        scale = max(np.max(np.abs(want)), 1.0)
    if not (err <= 1e-8 * scale and np.isfinite(scale)):
        raise NotRepresentable(
            f"a rational function of degree {deg_den}: its expanded coefficients "
            f"are off by {err:.3g} at t in {_CHECK_T.tolist()}"
        )
    return sym


def _lower(node):
    if isinstance(node, Lit):
        return Factors(node.value)
    if isinstance(node, Var):
        return Factors(1.0, ((0j, 1),))
    if isinstance(node, Chi):
        return Factors(1.0, ((1j, 1),), ((-1j, 1),))
    if isinstance(node, EFunc):
        return symbols.exp_symbol(node.delta)
    if isinstance(node, Neg):
        val = _lower(node.operand)
        if isinstance(val, Factors):
            return replace(val, lead=val.lead * -1)
        if isinstance(val, RationalPart):
            return RationalPart(tuple(poly.pscale(val.num, -1.0)), val.poles)
        return -val
    if isinstance(node, Pow):
        base, k = _lower(node.base), node.exponent
        if k == 0:
            return Factors(1.0)
        if not isinstance(base, symbols.GSymbol):  # the multiplicities multiply
            base = _factored(base)
            base, k = (_fac_inverse(base), -k) if k < 0 else (base, k)
            with np.errstate(all="ignore"):
                lead = complex(np.complex128(base.lead) ** k)
            zeros, poles = (tuple((r, m * k) for r, m in rs) for rs in (base.zeros, base.poles))
            return Factors(lead, zeros, poles)
        if k < 0:
            base, k = symbols.inverse(base), -k
        # left-to-right repeated squaring: k = 2 and 3 multiply as
        # base * base and (base * base) * base
        out = base
        for bit in bin(k)[3:]:
            out = out * out
            if bit == "1":
                out = out * base
        return out
    if isinstance(node, BinOp):
        left, right, op = _lower(node.left), _lower(node.right), node.op
        if op == "/":
            # invert first: the divisor may be improper although its
            # reciprocal is a perfectly good symbol
            if isinstance(right, symbols.GSymbol):
                right = symbols.inverse(right)
            else:
                right = _fac_inverse(_factored(right))
            op = "*"
        if isinstance(left, symbols.GSymbol) or isinstance(right, symbols.GSymbol):
            left, right = _promote(left), _promote(right)
            return left * right if op == "*" else left + right if op == "+" else left - right
        if op != "*":
            return _sum(left, right, 1.0 if op == "+" else -1.0)
        if isinstance(left, Factors) and isinstance(right, Factors):
            return Factors(left.lead * right.lead, *poly.merge_factors(
                (left.zeros, right.zeros), (left.poles, right.poles)
            ))
        return _rat_mul(_coeffs(left), _coeffs(right))
    raise TypeError(f"unhandled AST node {node!r}")


def parse_symbol(text):
    """Parse DSL text and lower it to a canonical GSymbol.

    Raises RealPoleError / ImproperRational / NotRepresentable / NotInvertible
    when the expression leaves the representable class.
    """
    return _promote(_lower(parse(text)))


# --- formatting -----------------------------------------------------------------

def format_symbol(a):
    """Canonical text form; parse_symbol(format_symbol(a)) == a."""
    parts = []
    for u in a.ap:
        c = poly.format_complex(u.coeff)
        if u.freq == 0.0:
            parts.append(c)
        elif c == "1":
            parts.append(f"e({_fmt_float(u.freq)})")
        else:
            parts.append(f"{c}*e({_fmt_float(u.freq)})")
    for w in a.l0:
        num = poly.format_poly(w.rational.num)
        den = poly.format_poly(w.rational.den)
        frac = f"({num})/({den})"
        if w.shift == 0.0:
            parts.append(frac)
        else:
            parts.append(f"e({_fmt_float(w.shift)})*{frac}")
    if not parts:
        return "0"
    return " + ".join(parts).replace(" + -", " - ")


def _fmt_float(x):
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(float(x))
