import random
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from whhankel import GSymbol, chi, constant, exp_symbol, make_symbol, one, parse, parse_symbol
from whhankel.classify import scalar_wh_classify
from whhankel.oracle import Grid, verify_scalar
from whhankel.symbols import winding_n
from whhankel import dsl
from whhankel.dsl import BinOp, Chi, EFunc, Lit, Neg, Pow, Var, format_symbol
from whhankel.errors import (
    ImproperRational,
    NotInvertible,
    NotRepresentable,
    RealPoleError,
    SymbolSyntaxError,
)


# --- parsing ---------------------------------------------------------------

def test_parse_power_with_negative_exponent():
    node = parse("chi^-1")
    assert isinstance(node, Pow)
    assert isinstance(node.base, Chi)
    assert node.exponent == -1


def test_parse_rational_quotient():
    node = parse("(t-2i)/(t+3i)")
    assert isinstance(node, BinOp) and node.op == "/"
    assert isinstance(node.left, BinOp) and node.left.op == "-"
    assert isinstance(node.left.left, Var)


def test_parse_precedence():
    node = parse("e(1.5)*chi + 2")
    assert isinstance(node, BinOp) and node.op == "+"
    assert isinstance(node.left, BinOp) and node.left.op == "*"
    assert isinstance(node.left.left, EFunc) and node.left.left.delta == 1.5
    assert isinstance(node.right, Lit) and node.right.value == 2


def test_parse_left_associativity():
    node = parse("1 - 2 - 3")
    assert isinstance(node, BinOp) and node.op == "-"
    assert isinstance(node.left, BinOp) and node.left.op == "-"


def test_parse_unary_minus_binds_below_power():
    node = parse("-chi^2")
    assert isinstance(node, Neg)
    assert isinstance(node.operand, Pow)


def test_imaginary_literals():
    assert parse_symbol("i") == constant(1j)
    assert parse_symbol("2i") == constant(2j)
    assert parse_symbol("1+2i") == constant(1 + 2j)
    assert parse_symbol("3.5i") == constant(3.5j)


def test_syntax_error_carries_position_and_expectations():
    with pytest.raises(SymbolSyntaxError) as err:
        parse("2 + * 3")
    assert err.value.position == 4
    assert "number" in err.value.expected


def test_unbalanced_parenthesis():
    with pytest.raises(SymbolSyntaxError):
        parse("(t+1i")


def test_non_integer_exponent_rejected():
    with pytest.raises(SymbolSyntaxError):
        parse("chi^1.5")


# --- lowering -----------------------------------------------------------------

def test_lower_chi_canonical_form():
    s = parse_symbol("chi")
    assert s == chi()
    assert len(s.ap) == 1 and s.ap[0].coeff == 1.0
    assert np.allclose(s.l0[0].rational.num, [-2j])
    assert np.allclose(s.l0[0].rational.den, [1j, 1.0])


def test_lower_real_pole_reports_location():
    with pytest.raises(RealPoleError) as err:
        parse_symbol("(t-1)/(t+1)")
    assert abs(err.value.root - (-1.0)) < 1e-9


def test_lower_exponential_reciprocal():
    assert parse_symbol("1/e(2)").isclose(exp_symbol(-2.0))


def test_lower_improper_rational():
    with pytest.raises(ImproperRational):
        parse_symbol("t+1")
    with pytest.raises(ImproperRational, match=r"^improper rational: deg num = 2 > deg den = 1$"):
        parse_symbol("(t*t)/(t+1i)")


def test_improper_rational_states_the_failed_test():
    # a symbol's rational part must be strictly proper, so equal degrees fail
    with pytest.raises(ImproperRational, match=r"^improper rational: deg num = 1 >= deg den = 1$"):
        make_symbol([], [(0.0, np.array([1.0, 1.0], dtype=complex), ((-1j, 1),))])


def test_lower_division_by_zero_symbol():
    with pytest.raises(NotInvertible):
        parse_symbol("1/(chi - chi)")


def test_lower_balanced_rational_keeps_constant():
    s = parse_symbol("(t-2i)/(t+3i)")
    assert s.ap[0].coeff == 1.0
    assert len(s.l0) == 1


def test_scientific_notation_literal():
    assert parse_symbol("2e-3") == constant(0.002)


def test_large_exponent_parses_fast():
    # repeated squaring: about 2 log2(k) products instead of k - 1
    t0 = time.perf_counter()
    assert parse_symbol("1^99999999") == one()
    assert parse_symbol("e(0.5)^-99999999").isclose(exp_symbol(-0.5 * 99999999))
    assert time.perf_counter() - t0 < 1.0


def test_power_equals_repeated_product():
    base = "((t-2i)/(t+1i))"
    # k = 2 and 3 keep the left-to-right product order bit for bit
    for k in (2, 3):
        assert parse_symbol(f"{base}^{k}") == parse_symbol("*".join([base] * k))
    for k in (4, 5, 7):
        assert parse_symbol(f"{base}^{k}").isclose(parse_symbol("*".join([base] * k)))
        assert parse_symbol(f"{base}^-{k}").isclose(parse_symbol(f"((t+1i)/(t-2i))^{k}"))


def test_power_checked_against_the_base_value():
    t = np.array([-7.0, -1.0, -0.2, 0.3, 1.0, 2.5, 5.0, 40.0])
    a = parse_symbol("chi^40")
    assert np.max(np.abs(a.eval(t) - ((t - 1j) / (t + 1j)) ** 40)) < 1e-10
    # chi^60 is its factor list: its winding reads from the list, but its
    # expanded coefficients lose the symbol (O(1) errors), so every reader
    # of numbers raises
    for text, n in (("chi^60", 60), ("chi^-60", -60)):
        g = parse_symbol(text)
        assert winding_n(g) == n
        readers = (lambda: g.l0, lambda: g.eval(1.0), lambda: format_symbol(g),
                   lambda: verify_scalar(scalar_wh_classify(g), g, Grid(T=2.0, h=0.5)))
        for read in readers:
            with pytest.raises(NotRepresentable):
                read()
    # a list past MAX_DEGREE and a non-finite amplitude are refused at parse
    for text in ("chi^2000", "2^2000"):
        with pytest.raises(NotRepresentable):
            parse_symbol(text)
    # a pole of the base at a check point is skipped, not misread
    with pytest.raises(RealPoleError):
        parse_symbol("(1/(t-1))^2")


def test_power_of_a_linear_factor_keeps_one_pole():
    # the divisor's 4-fold root is carried, not found as four scattered roots
    s = parse_symbol("1/((t+1i)^4)")
    assert s.l0[0].rational.poles == ((-1j, 4),)
    t = np.array([-3.0, 0.0, 2.0])
    assert np.allclose(s.eval(t), 1.0 / (t + 1j) ** 4, rtol=1e-14, atol=0.0)


def test_linear_and_rational_sums_share_the_zero_rule():
    # a sum below COEFF_PRUNE of its terms is zero, whether its terms are
    # linear or not; a noise constant of -1e-9 would survive trimming alone
    for expr in ("(1e6*t + 1e6) - (1e6*t + 1e6 + 1e-9)",
                 "(1e6*t^2 + 1e6) - (1e6*t^2 + 1e6 + 1e-9)"):
        assert parse_symbol(f"({expr})/((t+1i)*(t+2i))").is_zero()


@pytest.mark.parametrize("expr, direct", [
    ("((t^2+1)*(t-3i))/((t+2i)^3)", lambda t: (t**2 + 1) * (t - 3j) / (t + 2j) ** 3),
    ("(t-3i)*(t^2+1)/((t+2i)^3)", lambda t: (t - 3j) * (t**2 + 1) / (t + 2j) ** 3),
    ("-(t^2+1)/((t+2i)^2)", lambda t: -(t**2 + 1) / (t + 2j) ** 2),
    ("-(e(1)*chi)", lambda t: -np.exp(1j * t) * (t - 1j) / (t + 1j)),
    ("(1 + 1/(t+1i))*(t^2+2)/((t+3i)^2)",
     lambda t: (1 + 1 / (t + 1j)) * (t**2 + 2) / (t + 3j) ** 2),
    ("1/((t^2+2)*(t+3i))", lambda t: 1 / ((t**2 + 2) * (t + 3j))),
    ("((t^2+1)/(t+2i))^2/((t+3i)^2)",
     lambda t: ((t**2 + 1) / (t + 2j)) ** 2 / (t + 3j) ** 2),
])
def test_lowering_routes_match_direct_evaluation(expr, direct):
    # products with a sum that is not linear (a core, or a factor list once
    # its roots are found), negation of a core and of a symbol, division by
    # a core and the power of a core with poles
    t = np.array([-4.0, -0.7, 0.0, 0.5, 2.0, 9.0])
    assert np.max(np.abs(parse_symbol(expr).eval(t) - direct(t))) <= 1e-12


def _random_expr(rng, depth):
    """A grammar expression: literals, t, chi, e(d) and linear factors whose
    roots are off the real axis, under + - * / and integer powers.  Half the
    roots are +-i or +-2i, so that poles recur, cancel and leave numerators
    of every degree."""
    if depth == 0 or rng.random() < 0.25:
        r = rng.random()
        if r < 0.3:
            re, im = round(rng.uniform(-1.5, 1.5), 2), round(rng.uniform(0.3, 3.0), 2)
            if rng.random() < 0.5:
                re, im = 0, rng.choice([1, 2])
            return f"(t{-re:+g}{-im * rng.choice([-1, 1]):+g}i)"
        if r < 0.55:
            return rng.choice(["t", "chi", "chi", f"e({rng.choice([-1, 0.5, 2])})"])
        return rng.choice(["1", "1", str(rng.randint(2, 5)), f"{rng.randint(1, 40) / 10:g}",
                           f"{rng.randint(1, 5)}i"])
    op = rng.choice("+-*/^*/")
    if op == "^":
        return f"({_random_expr(rng, depth - 1)})^{rng.choice([-3, -2, -1, 2, 3])}"
    if rng.random() < 0.1:
        return f"-({_random_expr(rng, depth - 1)})"
    return f"({_random_expr(rng, depth - 1)}) {op} ({_random_expr(rng, depth - 1)})"


def _direct(node, t):
    """The value of an AST at real points t, by numpy."""
    if isinstance(node, Lit):
        return np.full(t.shape, node.value)
    if isinstance(node, Var):
        return t.astype(complex)
    if isinstance(node, Chi):
        return (t - 1j) / (t + 1j)
    if isinstance(node, EFunc):
        return np.exp(1j * node.delta * t)
    if isinstance(node, Neg):
        return -_direct(node.operand, t)
    if isinstance(node, Pow):
        return _direct(node.base, t) ** float(node.exponent)
    x, y = _direct(node.left, t), _direct(node.right, t)
    return {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}[node.op](x, y)


def test_every_lowering_route_matches_direct_evaluation():
    # every route a written rational function can take: the value lowers to
    # a factor list or a symbol, and the symbol is the expression's value
    rng = random.Random(31)
    t = np.array([-2.0, -0.4, 0.7, 3.0])
    made = 0
    for _ in range(1500):
        text = _random_expr(rng, 3)
        node = parse(text)
        try:
            value = dsl._lower(node)
            assert isinstance(value, (dsl.Factors, GSymbol)), text
            sym = dsl._expanded(value)
        except (ImproperRational, RealPoleError, NotInvertible, NotRepresentable):
            continue
        want = _direct(node, t)
        assert np.all(np.abs(sym.eval(t) - want) <= 1e-9 * np.maximum(1.0, np.abs(want))), text
        made += 1
    assert made > 500


# --- formatting ------------------------------------------------------------------

def test_format_examples(a_n0):
    assert format_symbol(parse_symbol("0")) == "0"
    assert format_symbol(exp_symbol(3.0, 2.0)) == "2*e(3)"
    assert format_symbol(chi()) == "1 + (-2i)/(t + 1i)"


@pytest.mark.parametrize(
    "expr",
    [
        "chi",
        "chi^-2",
        "0",
        "2*e(3)",
        "(t-2i)*(t+1i)/((t+2i)*(t-1i))",
        "1 + (0.5+2i)*e(1.5)",
        "e(-1)*chi + chi^2",
    ],
)
def test_format_round_trip(expr):
    sym = parse_symbol(expr)
    again = parse_symbol(format_symbol(sym))
    assert again == sym or again.isclose(sym, 1e-12)


def test_parse_format_lower_idempotent(a_n0):
    txt = format_symbol(a_n0)
    sym2 = parse_symbol(txt)
    assert format_symbol(sym2) == txt


# --- fuzzing ----------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="0123456789.+-*/^()ite chi", max_size=30))
@example("0^0e0")
@example("t^2e0")
@example("9^999")
def test_fuzzed_input_never_crashes(text):
    try:
        parse_symbol(text)
    except SymbolSyntaxError as err:
        assert 0 <= err.position <= len(text)
    except (ImproperRational, RealPoleError, NotInvertible, NotRepresentable,
            OverflowError, ZeroDivisionError):
        pass
