import numpy as np
import pytest

from whhankel import (
    MatchingPair,
    chi,
    constant,
    exp_symbol,
    factorize,
    inverse,
    is_minus,
    is_plus,
    matching_factorization,
    one,
    parse_symbol,
    subordinated,
    tilde,
    winding_n,
    xi,
)
from whhankel.dsl import format_symbol
from whhankel.errors import NotFactorizable, NotInvertible
from whhankel.symbols import _factors


def test_chi_is_its_own_middle_factor():
    f = factorize(chi())
    assert f.g_minus == one() and f.g_plus == one()
    assert f.nu == 0.0 and f.n == 1
    assert f.residual() < 1e-12


def test_chi_inverse_factorization():
    f = factorize(chi(-1))
    assert (f.g_minus, f.nu, f.n, f.g_plus) == (one(), 0.0, -1, one())


def test_factors_carry_their_zeros(monkeypatch):
    # the kappa tester inverts the factors of d; built from zero and pole
    # lists, they need no root search
    from whhankel import poly

    def no_roots(c):
        raise AssertionError("root finding for a factor")

    monkeypatch.setattr(poly, "proots", no_roots)
    g = parse_symbol("((t-2i)/(t+1i))^2*((t+0.5i)/(t-3i))")
    _, n, sign = matching_factorization(g * inverse(tilde(g)))
    assert n == 2 and sign in (1, -1)
    f = factorize(g)
    for h in (f.g_minus, f.g_plus):
        assert winding_n(h) == 0
        inverse(h)
    assert f.residual() < 1e-12


def test_rational_example_factors():
    f = factorize(parse_symbol("(t-2i)/(t+3i)"))
    assert f.n == 1 and f.nu == 0.0
    assert f.g_minus.isclose(parse_symbol("(t-2i)/(2*(t-1i))"), 1e-12)
    assert f.g_plus.isclose(parse_symbol("2*(t+1i)/(t+3i)"), 1e-12)


def test_factor_half_plane_membership(a_n0, a_nm1, a_n1):
    for sym in (a_n0, a_nm1, a_n1, chi(2), constant(2.0) + chi()):
        f = factorize(sym)
        assert is_minus(f.g_minus) and is_minus(inverse(f.g_minus))
        assert is_plus(f.g_plus) and is_plus(inverse(f.g_plus))
        assert abs(f.g_minus.eval(0.0) - 1.0) < 1e-12
        assert f.residual() < 1e-10
        assert f.n == winding_n(sym)


def test_exponential_carrier_sets_nu():
    f = factorize(parse_symbol("e(1.5)*((t-2i)/(t+3i))"))
    assert abs(f.nu - 1.5) < 1e-12
    assert f.residual() < 1e-10


def test_left_associative_improper_intermediate_is_rejected():
    from whhankel.errors import ImproperRational

    with pytest.raises(ImproperRational):
        parse_symbol("e(1.5)*(t-2i)/(t+3i)")


def test_constant_rescaling_keeps_every_pole():
    # d of this classify-sweep pair has n(d) = 11; factorize rescales g_+ by
    # a constant, and where its numerator is 4e-7 against coefficients near
    # 1e4 at the double pole -0.2-0.89i, a cancelling product dropped one
    a = "((t-0.91-2.77i)/(t-1.02+2.37i))^3*((t-0.57-0.95i)/(t+0.2+0.89i))^2"
    d = subordinated(MatchingPair(parse_symbol(a), parse_symbol(f"({a})*chi"))).d
    g_plus, n, sign = matching_factorization(d)
    assert (n, sign) == (11, 1)
    for g in (g_plus, factorize(d).g_minus, g_plus * 3.0, 3.0 * g_plus):
        poles = g.l0[0].rational.poles
        assert sum(k for _, k in _factors(g).zeros) == sum(m for _, m in poles) == 10
    assert ((-0.2 - 0.89j), 2) in g_plus.l0[0].rational.poles


def test_factorization_unique_and_bit_identical():
    m1 = parse_symbol("(t-2i)*(t+1i)/((t+2i)*(t-1i))")
    m2 = parse_symbol("(t+1i)*(t-2i)/((t-1i)*(t+2i))")  # shuffled factor order
    f1, f2 = factorize(m1), factorize(m2)
    assert f1.g_minus == f2.g_minus
    assert f1.g_plus == f2.g_plus
    assert f1.n == f2.n
    assert factorize(m1) == factorize(m1)


def test_factorize_rejects_vanishing_symbol():
    with pytest.raises(NotInvertible):
        factorize(parse_symbol("(t-2i)/(t+3i) - 1"))  # vanishes at infinity-ish
    with pytest.raises(NotInvertible):
        factorize(chi() + one())  # chi(0) = -1 makes the sum vanish at 0


@pytest.mark.parametrize("m", [2, 3, 4])
def test_factorize_rejects_multiple_real_zero(m):
    # the computed roots of the m-fold real zero scatter off the axis, so the
    # zero is decided as in is_invertible, not by a raw |Im z| bound
    a = constant(np.exp(1j * np.pi / 5)) * parse_symbol(f"((t-0.3)/(t+0.7i))^{m}")
    with pytest.raises(NotInvertible):
        factorize(a)


def test_factorize_and_inverse_read_one_zero_list():
    # round-tripped through its text, r carries no zeros: its N is expanded,
    # and the roots of N are found once, as (zero, multiplicity) pairs
    r = parse_symbol(format_symbol(parse_symbol(
        "((t-1-2i)/(t+1i))^2*((t+0.5+1.5i)/(t-2i))^3"
    )))
    assert [k for _, k in inverse(r).l0[0].rational.poles] == [3, 2]
    f = factorize(r)
    minus, plus = _factors(f.g_minus).zeros, _factors(f.g_plus).zeros
    assert [k for _, k in minus] == [1, 2] and [k for _, k in plus] == [3]
    assert abs(minus[0][0] - 1j) == 0.0
    assert abs(minus[1][0] - (1 + 2j)) < 1e-12
    assert abs(plus[0][0] - (-0.5 - 1.5j)) < 1e-12
    assert f.residual() < 1e-10


def test_factorize_rejects_genuine_almost_periodic():
    with pytest.raises(NotFactorizable):
        factorize(constant(3.0) + exp_symbol(1.0))


def test_matching_factorization_examples(a_n0):
    gp, n, sign = matching_factorization(chi(-1))
    assert gp == one() and n == -1 and sign == 1
    gp, n, sign = matching_factorization(constant(-1.0))
    assert n == 0 and sign == -1
    # the minus factor identity pins g_plus = -1 under g_minus(0) = 1
    assert gp.isclose(constant(-1.0))
    gp, n, sign = matching_factorization(a_n0)
    assert n == 0 and sign == 1


@pytest.mark.parametrize("expr", [
    "chi", "chi^-1", "chi^2",
    "(t-2i)*(t+1i)/((t+2i)*(t-1i))",
    "(t+2i)/(t-2i)",
    "-(t-3i)/(t+3i)",
])
def test_matching_minus_factor_identity(expr):
    g = parse_symbol(expr)
    gp, n, sign = matching_factorization(g)
    f = factorize(g)
    predicted = inverse(tilde(gp)) * sign
    t = np.linspace(-40.0, 40.0, 200)
    assert np.max(np.abs(f.g_minus.eval(t) - predicted.eval(t))) < 1e-10
    assert sign in (-1, 1)
    assert sign == xi(g)


def test_matching_factors_keep_every_pole_on_a_draw(general_pairs):
    # g_+ of every c and d with a defined n carries as many zeros as its
    # coefficients have poles: no rescaling drops a pole (sweep pair 41's d
    # above is one such case, with |n| = 11)
    for a_expr, b_expr in general_pairs:
        sub = subordinated(MatchingPair(parse_symbol(a_expr), parse_symbol(b_expr)))
        for g, n in ((sub.c, sub.n_c), (sub.d, sub.n_d)):
            if n is None:
                continue
            g_plus = matching_factorization(g)[0]
            poles = g_plus.l0[0].rational.poles if g_plus.l0 else ()
            assert sum(k for _, k in _factors(g_plus).zeros) == sum(m for _, m in poles), a_expr
