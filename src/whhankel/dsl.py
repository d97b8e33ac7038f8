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
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass

import numpy as np

from . import poly, symbols
from .errors import NotInvertible, NotRepresentable, SymbolSyntaxError
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

def _rat(num, poles=()):
    """A rational function of t, which may be improper mid-expression;
    make_symbol makes a symbol's parts strictly proper."""
    return RationalPart(tuple(num), poles)


def _promote(val):
    if isinstance(val, symbols.GSymbol):
        return val
    return symbols.pole_symbol(val.num, val.poles)


def _rat_mul(x, y):
    return _rat(*poly.cancel(
        [poly.pmul(x.num, y.num)], poly.merge_poles(x.poles, y.poles)
    ))


def _rat_add(x, y, sign=1.0):
    return _rat(*poly.rational_sum(
        [(x.num, x.poles), (poly.pscale(y.num, sign), y.poles)]
    ))


def _rat_inverse(x):
    """1/x: division by a polynomial, the one place where the DSL seeks roots."""
    num = poly.trim(x.num)
    if poly.is_zero(num):
        raise NotInvertible("division by the zero symbol")
    return _rat(*poly.cancel(
        [poly.as_poly(x.den) / num[-1]], poly.root_clusters(num)
    ))


#: real points where a power of a rational function is checked
_POWER_CHECK_T = np.array([0.3, 1.0, 5.0])


def _check_power(power, want, at, k):
    """Raise NotRepresentable unless power, a lowered rational power, agrees
    with want, the base's values raised to the same power, at the points at
    (those where the base is finite): within 1e-8 of the largest value, or
    of 1 if that is smaller, as coefficients are pruned (poly.trim)."""
    with np.errstate(all="ignore"):
        err = np.max(np.abs(power.eval(_POWER_CHECK_T) - want)[at], initial=0.0)
        scale = np.max(np.abs(want[at]), initial=1.0)
        if not (err <= 1e-8 * scale and np.isfinite(scale)):
            raise NotRepresentable(
                f"power {k} of a rational function: its expanded coefficients "
                f"are off by {err:.3g} at t in {_POWER_CHECK_T.tolist()}"
            )


def _lower(node):
    if isinstance(node, Lit):
        return _rat((node.value,))
    if isinstance(node, Var):
        return _rat((0.0, 1.0))
    if isinstance(node, Chi):
        return _rat((-1j, 1.0), ((-1j, 1),))
    if isinstance(node, EFunc):
        return symbols.exp_symbol(node.delta)
    if isinstance(node, Neg):
        val = _lower(node.operand)
        if isinstance(val, RationalPart):
            return _rat(poly.pscale(val.num, -1.0), val.poles)
        return -val
    if isinstance(node, Pow):
        base = _lower(node.base)
        k = node.exponent
        if k == 0:
            return _rat((1.0,))
        if k < 0:
            base = (
                _rat_inverse(base)
                if isinstance(base, RationalPart)
                else symbols.inverse(base)
            )
            k = -k
        # left-to-right repeated squaring: k = 2 and 3 multiply as
        # base * base and (base * base) * base.  The expanded coefficients
        # of a rational power lose accuracy as k grows, so each power is
        # checked against the base's values raised to it
        rational = isinstance(base, RationalPart)
        mul = _rat_mul if rational else operator.mul
        out = base
        with np.errstate(all="ignore"):
            want = value = base.eval(_POWER_CHECK_T) if rational else None
        for bit in bin(k)[3:]:
            out = mul(out, out)
            if bit == "1":
                out = mul(out, base)
            if rational:
                with np.errstate(all="ignore"):
                    want = want * want * (value if bit == "1" else 1.0)
                _check_power(out, want, np.isfinite(value), k)
        return out
    if isinstance(node, BinOp):
        left = _lower(node.left)
        right = _lower(node.right)
        both_rational = isinstance(left, RationalPart) and isinstance(right, RationalPart)
        if node.op == "+":
            return _rat_add(left, right) if both_rational else _promote(left) + _promote(right)
        if node.op == "-":
            return (
                _rat_add(left, right, -1.0)
                if both_rational
                else _promote(left) - _promote(right)
            )
        if node.op == "*":
            return _rat_mul(left, right) if both_rational else _promote(left) * _promote(right)
        if node.op == "/":
            if both_rational:
                return _rat_mul(left, _rat_inverse(right))
            if isinstance(right, RationalPart):
                # invert rationally first: the divisor may be improper even
                # though its reciprocal is a perfectly good symbol
                return _promote(left) * _promote(_rat_inverse(right))
            return _promote(left) * symbols.inverse(_promote(right))
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
