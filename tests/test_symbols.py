import json
import pickle
from pathlib import Path

import numpy as np
import numpy.polynomial.polynomial as npp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whhankel import (
    GSymbol,
    chi,
    conj,
    constant,
    exp_symbol,
    inverse,
    is_invertible,
    is_matching,
    is_minus,
    is_plus,
    make_symbol,
    nu,
    one,
    parse_symbol,
    rational_symbol,
    tilde,
    time_kernel,
    winding_n,
    xi,
    zero,
)
from whhankel.classify import MatchingPair, subordinated
from whhankel.errors import NotInvertible, NotMatching, NotRepresentable
from whhankel.symbols import L0Term, _reflect


# --- arithmetic -------------------------------------------------------------

def test_add_cancels_to_zero():
    assert (chi() + (-chi())).is_zero()


def test_add_merges_like_exponentials():
    s = exp_symbol(1.0) + exp_symbol(1.0)
    assert s == exp_symbol(1.0, 2.0)


def test_chi_plus_one_splits_constant_and_rational():
    s = chi() + one()
    assert len(s.ap) == 1 and s.ap[0].freq == 0.0 and s.ap[0].coeff == 2.0
    assert len(s.l0) == 1
    # rational part is still -2i/(t+i)
    assert np.isclose(s.l0[0].rational.eval(0.0), -2.0)


def test_mul_chi_by_its_inverse_is_one():
    assert (chi() * chi(-1)) == one()


def test_mul_exponentials_adds_frequencies():
    assert (exp_symbol(1.0) * exp_symbol(2.0)) == exp_symbol(3.0)


def test_chi_squared_has_double_pole():
    s = chi() * chi()
    den = np.asarray(s.l0[0].rational.den)
    roots = npp.polyroots(den)
    assert len(roots) == 2
    assert np.allclose(roots, [-1j, -1j], atol=1e-6)
    assert s.isclose(chi(2), 1e-9)


def test_ring_operations_find_no_roots(monkeypatch):
    from whhankel import poly

    syms = [
        chi(),
        chi(-2),
        parse_symbol("((t-1+2i)/(t+0.5-1i))^3"),
        exp_symbol(0.5, 2.0) * parse_symbol("((t+2i)/(t-1+1i))^2*chi"),
    ]

    def no_roots(c):
        raise AssertionError("root finding on the ring path")

    monkeypatch.setattr(poly, "proots", no_roots)
    for x in syms:
        for y in syms:
            for z in (x * y, x + y, x - y, tilde(x) * conj(y), tilde(x * y) + conj(x)):
                assert isinstance(z, GSymbol)
    t = np.linspace(-5.0, 5.0, 7)
    x, y = syms[2], syms[3]
    assert np.allclose((x * y).eval(t), x.eval(t) * y.eval(t))
    assert np.allclose(tilde(x).eval(t), x.eval(-t))
    assert np.allclose(conj(y).eval(t), np.conj(y.eval(t)))


def test_close_distinct_poles_stay_apart():
    # poles 1e-4 apart are two poles, in either operand order
    t = np.linspace(-20.0, 20.0, 401)
    x, y = parse_symbol("1/(t-1i)"), parse_symbol("1/(t-1.0001i)")
    prod = 1.0 / ((t - 1j) * (t - 1.0001j))
    diff = -1e-4j * prod  # 1/(t-i) - 1/(t-1.0001i), without cancellation
    cases = [
        (parse_symbol("1/(t-1i) - 1/(t-1.0001i)"), diff),
        (parse_symbol("1/(t-1i) * (1/(t-1.0001i))"), prod),
        (x - y, diff),
        (-(y - x), diff),
        (x * y, prod),
        (y * x, prod),
    ]
    for s, ref in cases:
        assert [m for _, m in s.l0[0].rational.poles] == [1, 1]
        assert np.max(np.abs(s.eval(t) - ref)) <= 1e-9 * np.max(np.abs(ref))


def test_eval_examples():
    assert np.isclose(chi().eval(0.0), -1.0)
    assert np.isclose(one().eval(17.3), 1.0)
    assert np.isclose(chi(-1).eval(0.0), -1.0)


def test_tilde_examples():
    assert tilde(chi()).isclose(chi(-1))
    assert tilde(exp_symbol(0.7)) == exp_symbol(-0.7)
    assert tilde(constant(3 + 1j)) == constant(3 + 1j)


def test_tilde_is_involution_bitwise(a_n0):
    assert tilde(tilde(a_n0)) == a_n0


def test_conj_examples(a_n0):
    assert conj(chi()).isclose(chi(-1))
    assert conj(exp_symbol(1.0, 1j)) == exp_symbol(-1.0, -1j)
    real_rat = rational_symbol([1.0], [2.0, 0.0, 1.0])  # 1/(t^2+2)
    assert conj(real_rat) == real_rat
    assert conj(conj(a_n0)) == a_n0


# --- inverse ------------------------------------------------------------------

def test_inverse_chi():
    assert inverse(chi()) == chi(-1)


def test_inverse_scaled_exponential():
    assert inverse(exp_symbol(3.0, 2.0)).isclose(exp_symbol(-3.0, 0.5))


def test_inverse_of_cosine_like_sum_not_invertible():
    with pytest.raises(NotInvertible):
        inverse(exp_symbol(1.0) + exp_symbol(-1.0))


def test_inverse_nonconstant_ap_not_representable():
    with pytest.raises(NotRepresentable):
        inverse(constant(3.0) + exp_symbol(1.0))


def test_inverse_round_trip(a_n0, a_nm1):
    for s in (a_n0, a_nm1, chi(2), constant(2.0) + chi()):
        assert (s * inverse(s)).isclose(one(), 1e-10)


# --- time kernel ----------------------------------------------------------------

def test_time_kernel_chi_minus_one():
    k = time_kernel(chi() - one())
    u = np.array([0.3, 1.0, 2.5])
    assert np.allclose(k.value(u), -2 * np.exp(-u))
    assert np.allclose(k.value(-u), 0.0)


def test_time_kernel_chi_inv_minus_one():
    k = time_kernel(chi(-1) - one())
    u = np.array([0.3, 1.0, 2.5])
    assert np.allclose(k.value(-u), -2 * np.exp(-u))
    assert np.allclose(k.value(u), 0.0)


def test_time_kernel_pure_almost_periodic_is_empty():
    assert time_kernel(exp_symbol(2.0) + one()).pieces == ()


def test_time_kernel_fourier_round_trip(a_n0):
    import scipy.integrate as si

    k = time_kernel(a_n0)
    ts = np.linspace(-3.0, 3.0, 20)
    ap_value = a_n0.ap[0].coeff
    for t in ts:
        f = si.quad(lambda s: (k.value(np.array([s]))[0] * np.exp(1j * t * s)).real,
                    -60, 60, limit=300)[0] + 1j * si.quad(
            lambda s: (k.value(np.array([s]))[0] * np.exp(1j * t * s)).imag,
            -60, 60, limit=300)[0]
        assert abs(f + ap_value - a_n0.eval(t)) < 1e-6


# --- membership predicates --------------------------------------------------------

def test_half_plane_membership():
    assert is_plus(chi())
    assert is_minus(chi(-1))
    assert not is_plus(exp_symbol(-1.0))
    assert is_plus(exp_symbol(1.0))
    assert not is_plus(chi(-1))


def test_is_invertible_examples():
    assert is_invertible(chi())
    assert not is_invertible(exp_symbol(1.0) + exp_symbol(-1.0))
    assert is_invertible(constant(0.1) + chi())


# --- indices -------------------------------------------------------------------

def test_mean_motion():
    assert nu(exp_symbol(2.0)) == 2.0
    assert nu(exp_symbol(1.0, 3.0) + exp_symbol(-1.0)) == 1.0
    assert nu(chi()) == 0.0


def test_winding_numbers(a_n0, a_nm1, a_n1):
    assert winding_n(chi()) == 1
    assert winding_n(chi(-1)) == -1
    assert winding_n(one()) == 0
    assert winding_n(a_n0) == 0
    assert winding_n(a_nm1) == -1
    assert winding_n(a_n1) == 1


def test_winding_numeric_fallback_on_shifted_kernel():
    # exponential carrier with a different shift on the rational part forces
    # the unwrapping route; small amplitude keeps the winding at zero
    s = constant(2.0) + exp_symbol(0.5) * rational_symbol([0.3], [1j, 1.0])
    assert winding_n(s) == 0


def test_xi_values(a_n0):
    assert xi(chi(-1)) == 1
    assert xi(chi()) == 1
    assert xi(constant(-1.0)) == -1
    assert xi(a_n0) == 1


def test_is_matching():
    assert is_matching(chi())
    assert is_matching(exp_symbol(0.8))
    assert not is_matching(constant(2.0) * chi())


def test_is_matching_exact_on_high_multiplicity():
    # a a~^(-1) matches by construction; sampling its canonical product
    # drifted past 1e-10, the polynomial identity does not
    a = parse_symbol("((t+0.69-1.87i)/(t-1.37+0.51i))^3")
    assert is_matching(a * inverse(tilde(a)))


def test_is_invertible_exact_on_single_exponential():
    # -a a~^(-1) has no real zero; the sampled bound could not certify it
    a = parse_symbol("((t+1.45+0.54i)/(t-0.77-1.12i))^2")
    assert is_invertible(-(a * inverse(tilde(a))))
    assert not is_invertible(parse_symbol("(t-1)/(t+1i)"))
    assert not is_invertible(parse_symbol("((t-1)/(t+1i))^2"))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_multiple_real_zero_under_complex_scale(m):
    # the inexact coefficients of N scatter the computed roots of an m-fold
    # real zero off the axis by about eps^(1/m), past REAL_AXIS_TOL
    a = constant(np.exp(1j * np.pi / 5)) * parse_symbol(f"((t-0.3)/(t+0.7i))^{m}")
    assert not is_invertible(a)
    with pytest.raises(NotInvertible):
        inverse(a)
    with pytest.raises(NotInvertible):
        winding_n(a)


def test_exact_equality_and_matching_reject_non_matching_pair():
    assert chi().isclose(parse_symbol("chi"))
    assert not chi().isclose(constant(2.0) * chi())
    assert not exp_symbol(1.0).isclose(exp_symbol(1.5))
    MatchingPair(chi(), constant(-1.0) * chi())
    with pytest.raises(NotMatching):
        MatchingPair(chi(), constant(2.0) * chi())


def test_matching_outside_single_exponentials():
    # two exponential terms: the products are compared, not N and D
    a = constant(2.0) + exp_symbol(1.0)
    MatchingPair(a, tilde(a))
    with pytest.raises(NotMatching):
        MatchingPair(a, constant(2.0) * a)
    assert not is_matching(a)


def test_matching_windings_cancel(a_n0):
    for g in (chi(), chi(-2), a_n0, constant(-1.0) * chi()):
        assert winding_n(g) + winding_n(tilde(g)) == 0


def test_symbol_decides_once(monkeypatch):
    from whhankel import poly

    expr = "(t-2i)*(t+1i)/((t+2i)*(t-1i))"
    g = parse_symbol(expr)
    calls = []
    proots = poly.proots
    monkeypatch.setattr(poly, "proots", lambda c: calls.append(1) or proots(c))
    # a product carries its zeros: no root is sought, here or in products
    for h in (g, g * chi(), g * inverse(tilde(g)), -conj(g)):
        assert winding_n(h) == winding_n(h)
        assert is_matching(h)
        inverse(h)
    assert len(calls) == 0
    # a sum drops them: the roots of its N are found once
    s = chi() + constant(2.0)
    assert winding_n(s) == winding_n(s) == 0
    assert not is_matching(s)
    inverse(s)
    assert len(calls) == 1
    # what is kept on g is not part of its value
    g2 = parse_symbol(expr)
    assert g == g2 and hash(g) == hash(g2)
    assert repr(g) == repr(g2)
    assert g.to_dict() == g2.to_dict()
    assert pickle.dumps(g) == pickle.dumps(g2)
    assert pickle.loads(pickle.dumps(g)) == g2


def test_product_keeps_zeros_only_with_its_rational_part():
    # the tiny constant prunes the rational part (num -1e-16) but not the
    # constant term: the product is the constant 1e-13, with no zero to carry
    g = parse_symbol("(t-2i-0.001)/(t-2i)") * 1e-13
    assert g == constant(1e-13)
    assert inverse(g).isclose(constant(1e13))


def test_winding_error_is_raised_again():
    g = parse_symbol("(t-1)/(t+1i)")  # N vanishes at t = 1
    for _ in range(2):
        with pytest.raises(NotInvertible):
            winding_n(g)


# --- exact maps ---------------------------------------------------------------------

def _sweep_symbols():
    """a, b and the subordinated c, d, a~^(-1) of the golden sweep pairs."""
    path = Path(__file__).parent / "data" / "sweep_reports.json"
    for row in json.loads(path.read_text(encoding="utf-8")):
        pair = MatchingPair(parse_symbol(row["a"]), parse_symbol(row["b"]))
        sub = subordinated(pair)
        yield from (pair.a, pair.b, sub.c, sub.d, sub.at_inv)


def _bits(g):
    """Every float of the symbol, signed zeros included."""
    return pickle.dumps(
        (g.ap, [(w.shift, w.rational.num, w.rational.poles) for w in g.l0])
    )


def _tilde_by_make_symbol(g):
    l0 = []
    for w in g.l0:
        sign = (-1.0) ** sum(m for _, m in w.rational.poles)
        l0.append((-w.shift, _reflect(w.rational.num) * sign,
                   [(-p, m) for p, m in w.rational.poles]))
    return make_symbol([(-u.freq, u.coeff) for u in g.ap], l0)


def _conj_by_make_symbol(g):
    return make_symbol(
        [(-u.freq, u.coeff.conjugate()) for u in g.ap],
        [(-w.shift, np.conj(np.asarray(w.rational.num)),
          [(p.conjugate(), m) for p, m in w.rational.poles]) for w in g.l0],
    )


def test_exact_maps_equal_the_make_symbol_route():
    # tilde, conj and -g map a canonical symbol term by term and sort; the
    # result is make_symbol's, bit for bit
    symbols = [chi(), chi(-2), exp_symbol(1.5, 2j) + chi(), constant(1j), zero(),
               *_sweep_symbols()]
    for g in symbols:
        assert _bits(tilde(g)) == _bits(_tilde_by_make_symbol(g))
        assert _bits(conj(g)) == _bits(_conj_by_make_symbol(g))
        assert _bits(-g) == _bits(g * (-1))


# --- rational parts from coefficients ---------------------------------------------------

def test_rational_symbol_rejects_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        rational_symbol(1, 0)


def test_norm_estimate_diagnostic():
    # |chi| = 1 pointwise; the coefficient-mass estimate is >= sup norm
    est = chi().norm_estimate()
    assert 1.0 <= est <= 4.0


# --- properties -----------------------------------------------------------------------

_coeffs = st.complex_numbers(
    min_magnitude=0.1, max_magnitude=3.0, allow_nan=False, allow_infinity=False
)


@st.composite
def small_symbols(draw):
    terms = []
    for freq in draw(st.lists(st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0]),
                              min_size=0, max_size=2, unique=True)):
        terms.append((freq, draw(_coeffs)))
    l0 = []
    if draw(st.booleans()):
        pole = draw(st.sampled_from([1j, -1j, 2j, -1.5j, 1 + 1j, -2 + 2j]))
        l0.append((0.0, [draw(_coeffs)], [(pole, 1)]))
    return make_symbol(terms, l0)


@settings(max_examples=50, deadline=None)
@given(small_symbols(), small_symbols(), st.floats(-20, 20))
def test_pointwise_ring_operations(x, y, t):
    scale = 1.0 + abs(x.eval(t)) * abs(y.eval(t))
    assert abs((x * y).eval(t) - x.eval(t) * y.eval(t)) < 1e-10 * scale
    assert abs((x + y).eval(t) - (x.eval(t) + y.eval(t))) < 1e-10 * scale


@settings(max_examples=50, deadline=None)
@given(small_symbols())
def test_tilde_involution_property(x):
    assert tilde(tilde(x)) == x


def test_l0term_type_shape(a_n0):
    assert all(isinstance(w, L0Term) for w in a_n0.l0)


def test_is_invertible_inconclusive_band():
    from whhankel.errors import Inconclusive

    # strictly positive but tiny minimum: inside the uncertainty band
    s = exp_symbol(1.0) + exp_symbol(-1.0) + constant(1e-6j)
    with pytest.raises(Inconclusive):
        is_invertible(s)


def test_mean_motion_numeric_fallback():
    # balanced coefficients (no dominant term) force the unwrapping route
    flat = exp_symbol(0.0, 2j) + exp_symbol(1.0, 1.5) + exp_symbol(-1.0, 1.5)
    assert abs(nu(flat)) < 1e-3
    carried = exp_symbol(1.0) * flat
    assert abs(nu(carried) - 1.0) < 1e-3
