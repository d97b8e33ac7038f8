import json
from pathlib import Path

import numpy as np
import pytest

from whhankel import (
    Grid,
    MatchingPair,
    OracleConfig,
    Workspace,
    chi,
    exp_symbol,
    inverse,
    kernel_basis_scalar,
    make_kappa_tester,
    matching_factorization,
    one,
    parse_symbol,
    psi0_discrete,
    tilde,
    wh_matrix,
)
from whhankel import kernels, oracle, symbols
from whhankel.catalog import parse_catalog, shipped_catalog_path
from whhankel.classify import Dim, _chi_reduced, _split, classify, subordinated
from whhankel.errors import NoRightInverse, NotInKernel, OutOfScope, WrongIndex
from whhankel.kernels import (
    EXP_IMAGE,
    e1_map,
    e2_map,
    kappa_for_pair,
    phi_pm,
    projection_image_dims,
    right_inverse_apply,
)
from whhankel.oracle import block_v_matrix, wh_plus_hankel, kernel_estimate as kest
from whhankel.symbols import half_line_apply, half_line_flip, half_line_norm


def _spanning_image(g):
    """The image of the element spanning ker W(g), for n(g) = -1."""
    return kernels._kernel_image(kernels._plus_inverse(g))


def _wh_hankel_apply(a, b, sign, f):
    """(W(a) +- H(b)) f for the half-line image f, in closed form: J sends the
    image f^ to tilde(f^), so H(b) f = P W0(b) J f is W(b) applied to it."""
    return half_line_apply(a, f) + sign * half_line_apply(b, tilde(f))


def _dense_residuals(a, b, sign, f):
    """|(W(a) +- H(b)) f| / |f| of the dense operators on the image f sampled
    at the half-line nodes, at h = 0.1 and 0.05."""
    out = []
    for h in (0.1, 0.05):
        ws = Workspace(Grid(T=25.0, h=h), OracleConfig(stability=False))
        v = symbols.time_kernel(f).value(ws.grid.half_nodes())
        out.append(np.linalg.norm((ws.wh(a) + sign * ws.hank(b)) @ v) / np.linalg.norm(v))
    return out


def test_discrete_twin_close_to_exponential(coarse_grid):
    tw = psi0_discrete(coarse_grid).normalized()
    ref = np.exp(-coarse_grid.half_nodes())
    ref /= np.sqrt(coarse_grid.h) * np.linalg.norm(ref)
    assert np.linalg.norm(tw.values - ref) * np.sqrt(coarse_grid.h) < 2e-3


def test_w0_flip_sends_twin_to_reflection(ws):
    # whole-line statement: applying the chi^-1 convolution to the zero
    # extension of the kernel generator gives minus its reflection
    from whhankel.oracle import w0_matrix

    full = np.concatenate([np.zeros(ws.grid.n), psi0_discrete(ws.grid).values])
    out = w0_matrix(chi(-1), ws.grid).matrix @ full
    assert np.linalg.norm(out + full[::-1]) < 1e-8 * np.linalg.norm(full)


def test_projection_flip_on_kernel():
    # J Q W0(g) P is an involution on ker W(g) for matching g; on
    # ker W(chi^-1) = span e^(-t) it is -1, so the minus projection is the
    # identity there and the plus projection is zero
    e = EXP_IMAGE
    flipped = half_line_flip(chi(-1), e)
    assert half_line_norm(flipped + e) <= 1e-15
    assert half_line_norm(0.5 * (e - flipped) - e) <= 1e-15
    assert half_line_norm(0.5 * (e + flipped)) <= 1e-15
    g = chi(-1) * parse_symbol("(t+1i)*(t-2i)/((t-1i)*(t+2i))")
    f = _spanning_image(g)
    again = half_line_flip(g, half_line_flip(g, f))
    assert half_line_norm(again - f) <= 1e-12 * half_line_norm(f)


@pytest.mark.parametrize("m", range(1, 8))
def test_split_lemma_on_the_laguerre_basis(m):
    # ker W(chi^-m) has the basis L_k = chi^k e^(-t), k < m, and
    # J Q W0(chi^-m) P sends L_k to -L_(m-1-k): J is minus the reversal,
    # whose eigenvalues +1 and -1 occur floor(m/2) and ceil(m/2) times.  A
    # matching g = xi g~_+^(-1) chi^-m g_+ multiplies J by xi, which swaps them
    basis = [chi(k) * EXP_IMAGE for k in range(m)]
    for k, lk in enumerate(basis):
        assert half_line_apply(chi(-m), lk).is_zero()
        assert half_line_flip(chi(-m), lk).isclose(-basis[m - 1 - k], 1e-12)
    eig = np.linalg.eigvalsh(-np.fliplr(np.eye(m)))
    counts = (int(np.sum(eig > 0)), int(np.sum(eig < 0)))
    assert counts == (m // 2, (m + 1) // 2)
    assert counts == tuple(dim.value for dim in _split(Dim.exact(m), 1))
    assert counts[::-1] == tuple(dim.value for dim in _split(Dim.exact(m), -1))


def test_split_lemma_transports_to_every_matching_symbol(sweep_pairs):
    # g = xi g~_+^(-1) chi^-m g_+ gives ker W(g) = W(g_+^(-1)) ker W(chi^-m)
    # and J_g W(g_+^(-1)) = xi W(g_+^(-1)) J_(chi^-m) there; checked on the c,
    # d and -d of the classify-sweep pairs with m <= 5 (above that the image
    # arithmetic is off by 2e-4 on one symbol with m = 6)
    seen = set()
    for a_expr, b_expr in sweep_pairs:
        sub = subordinated(MatchingPair(parse_symbol(a_expr), parse_symbol(b_expr)))
        for g in (sub.c, sub.d, -sub.d):
            g_plus, n, sign = matching_factorization(g)
            if not -5 <= n < 0:
                continue
            seen.add((-n, sign))
            inv = inverse(g_plus)
            for k in range(-n):
                v = half_line_apply(inv, chi(k) * EXP_IMAGE)
                assert half_line_norm(half_line_apply(g, v)) <= 1e-9 * half_line_norm(v)
                want = -sign * half_line_apply(inv, chi(-n - 1 - k) * EXP_IMAGE)
                got = half_line_flip(g, v)
                assert half_line_norm(got - want) <= 1e-9 * half_line_norm(want)
    assert seen == {(m, s) for m in range(1, 6) for s in (1, -1)}


def test_projection_requires_kernel_membership():
    # for matching g, (J Q W0(g) P)^2 f = f - W(g~) W(g) f: the flip is an
    # involution on ker W(g) and on no other function
    for g in (chi(-1), chi(-1) * parse_symbol("(t+1i)*(t-2i)/((t-1i)*(t+2i))")):
        junk = parse_symbol("1/((t+1i)*(t+2i))")
        again = half_line_flip(g, half_line_flip(g, junk))
        defect = half_line_apply(tilde(g), half_line_apply(g, junk))
        assert half_line_norm(junk - again) > 0.05 * half_line_norm(junk)
        assert half_line_norm(junk - again - defect) <= 1e-12 * half_line_norm(junk)


def test_kernel_basis_scalar(ws):
    basis = kernel_basis_scalar(chi(-1), ws)
    assert len(basis) == 1
    tw = psi0_discrete(ws.grid).normalized()
    assert np.linalg.norm(basis[0].values - tw.values) < 1e-8
    g = chi(-1) * parse_symbol("(t+1i)*(t-2i)/((t-1i)*(t+2i))")
    basis_g = kernel_basis_scalar(g, ws)
    resid = np.linalg.norm(ws.wh(g) @ basis_g[0].values)
    assert resid < 1e-6
    # cross-check with the oracle's SVD basis
    est = kest(wh_matrix(g, ws.grid, ws.cfg), ws.cfg)
    assert est.dim == 1
    overlap = abs(np.vdot(est.basis[0], basis_g[0].values))
    overlap /= np.linalg.norm(basis_g[0].values)
    assert overlap > 1 - 1e-8


def test_kernel_basis_scalar_wrong_index(ws):
    with pytest.raises(WrongIndex):
        kernel_basis_scalar(chi(), ws)


def test_sign_rule_for_projection_images(ws, a_nm1):
    # one-dimensional kernel with positive sign invariant: the minus
    # projection carries the whole kernel, the plus projection nothing
    pair = MatchingPair(a_nm1, a_nm1 * chi())
    sub = subordinated(pair)
    assert (sub.n_d, sub.xi_d) == (-1, 1)
    basis = kernel_basis_scalar(sub.d, ws)
    dplus, dminus = projection_image_dims(sub.d, basis, ws)
    assert (dplus, dminus) == (0, 1)
    cbasis = kernel_basis_scalar(sub.c, ws)
    cplus, cminus = projection_image_dims(sub.c, cbasis, ws)
    assert (cplus, cminus) == (0, 1)


def test_e1_e2_round_trip(ws, a_n0):
    pair = MatchingPair(a_n0, a_n0 * chi())
    block = block_v_matrix(pair, ws.grid, ws.cfg)
    est = kest(block, ws.cfg)
    assert est.dim == 1
    n = ws.grid.n
    phi = ws.gf(est.basis[0][:n])
    psi = ws.gf(est.basis[0][n:])
    big_phi, big_psi = e1_map(pair, phi, psi, ws)
    wp = ws.wh(a_n0) + ws.hank(a_n0 * chi())
    wm = ws.wh(a_n0) - ws.hank(a_n0 * chi())
    assert np.linalg.norm(wp @ big_phi.values) < 1e-6
    assert np.linalg.norm(wm @ big_psi.values) < 1e-6
    back1, back2 = e2_map(pair, big_phi, big_psi, ws)
    rt = np.concatenate([back1.values, back2.values])
    assert np.linalg.norm(rt - est.basis[0]) < 1e-6


def test_e1_e2_other_direction(ws, a_n0):
    pair = MatchingPair(a_n0, a_n0 * chi())
    plus_est = kest(wh_plus_hankel(a_n0, a_n0 * chi(), +1, ws.grid, ws.cfg), ws.cfg)
    big_phi = ws.gf(plus_est.basis[0])
    zero_half = ws.gf(np.zeros(ws.grid.n))
    y1, y2 = e2_map(pair, big_phi, zero_half, ws)
    q1, q2 = e1_map(pair, y1, y2, ws)
    assert np.linalg.norm(q1.values - big_phi.values) < 1e-6
    assert np.linalg.norm(q2.values) < 1e-6


def test_e1_zero_to_zero(ws, a_n0):
    pair = MatchingPair(a_n0, a_n0 * chi())
    z = ws.gf(np.zeros(ws.grid.n))
    p1, p2 = e1_map(pair, z, z, ws)
    assert np.linalg.norm(p1.values) == 0.0 and np.linalg.norm(p2.values) == 0.0


def test_e1_rejects_non_kernel_input(ws, a_n0):
    pair = MatchingPair(a_n0, a_n0 * chi())
    junk = ws.gf(np.ones(ws.grid.n))
    with pytest.raises(NotInKernel):
        e1_map(pair, junk, junk, ws)


def test_phi_pm_spans_kernels_in_double_kernel_case(a_nm1):
    a, b = a_nm1, a_nm1 * chi()
    sub = subordinated(MatchingPair(a, b))
    s = _spanning_image(sub.d)
    js = half_line_flip(sub.d, s)
    for sign, k in (("+", 1), ("-", -1)):
        phi = phi_pm(sub, s, sign)
        assert half_line_norm(phi) > 0.1 * half_line_norm(s)
        # exactly in ker(W(a) +- H(b)) in closed form ...
        assert half_line_norm(_wh_hankel_apply(a, b, k, phi)) <= 1e-12 * half_line_norm(s)
        # ... and the dense operators annihilate it to second order
        coarse, fine = _dense_residuals(a, b, k, phi)
        assert coarse < 5e-3 and 3.5 < coarse / fine < 4.5
        # the transported element hits the sign projection (s +- J Q W0(d) P s)/2
        got = _wh_hankel_apply(tilde(b), tilde(a), k, phi)
        assert half_line_norm(got - 0.5 * (s + k * js)) <= 1e-12 * half_line_norm(s)


def test_phi_pm_zero_input(a_nm1):
    sub = subordinated(MatchingPair(a_nm1, a_nm1 * chi()))
    for sign in ("+", "-"):
        assert phi_pm(sub, symbols.zero(), sign).is_zero()


def test_kappa_guards(a_nm1):
    # outside the conditional branch the reduced d has no n = -1 kernel
    with pytest.raises(OutOfScope):
        kappa_for_pair(subordinated(MatchingPair(a_nm1, a_nm1 * chi(-1))))


def test_kappa_structure(ws, a_n0):
    # kappa_for_pair(a, a chi^-1) is W(chi) z + J Q W0(chi^-1) P W(chi) z -
    # J Q W0(a~^-1) P s with z = W(a~^-1 chi^-1) s; the middle term is zero
    # and the first lies in the range of W(chi), so the third decides
    sub = subordinated(MatchingPair(a_n0, a_n0 * chi(-1)))
    red = _chi_reduced(sub)  # red.at_inv = a~^-1 chi^-1
    s = _spanning_image(red.d)
    first = symbols.half_line_apply(chi(), symbols.half_line_apply(red.at_inv, s))
    assert symbols.half_line_norm(symbols.half_line_flip(chi(-1), first)) < 1e-12
    assert abs(sum(w.rational.eval(1j) for w in first.l0)) < 1e-12
    res = kappa_for_pair(sub)
    assert res.in_image is False
    # verdict agrees with the oracle: the minus operator is invertible
    op = wh_plus_hankel(a_n0, a_n0 * chi(-1), -1, ws.grid, ws.cfg)
    assert kest(op, ws.cfg).dim == 0


def test_kappa_for_identity_symbol():
    # for a = 1, b = chi^-1 the reduced c, d and a~^-1 are all chi^-1, so
    # s = e^(-t), y = W_r^-1(c) W(chi^-1) s = 0 and kappa = -J Q W0(chi^-1) P s
    # = e^(-t), whose residual is 1
    res = kappa_for_pair(subordinated(MatchingPair(one(), chi(-1))))
    assert abs(res.residual - 1.0) < 1e-12
    assert res.in_image is False


def test_kappa_tester_feeds_classifier(coarse_grid, fast_cfg, a_n0):
    tester = make_kappa_tester(coarse_grid, fast_cfg)
    pair = MatchingPair(a_n0, a_n0 * chi(-1))
    report = classify(pair, kappa_tester=tester)
    assert report.minus.ker.describe() == "0"
    assert report.minus.status == "invertible"
    assert "image-membership(in_image=False" in report.minus.certificate


def test_classify_builds_no_pair_and_factors_d_once_per_tester_call(
    coarse_grid, a_n0, monkeypatch
):
    # the tester derives the reduced pair from the subordinated pair, also
    # for (a, -a chi^-1), whose xi(c) = -1, and factors d once
    from whhankel import factorization

    pairs = [MatchingPair(a_n0, a_n0 * chi(-1)), MatchingPair(a_n0, -(a_n0 * chi(-1)))]
    counts = {"pairs": 0, "factorizations": 0, "tester": 0}
    check, factor = MatchingPair.__post_init__, factorization.matching_factorization

    def counted_check(self):
        counts["pairs"] += 1
        check(self)

    def counted_factor(g):
        counts["factorizations"] += 1
        return factor(g)

    tester = make_kappa_tester(coarse_grid, OracleConfig(stability=True))

    def counted_tester(sub):
        counts["tester"] += 1
        return tester(sub)

    monkeypatch.setattr(MatchingPair, "__post_init__", counted_check)
    monkeypatch.setattr(factorization, "matching_factorization", counted_factor)
    minus = classify(pairs[0], kappa_tester=counted_tester).minus
    flipped_plus = classify(pairs[1], kappa_tester=counted_tester).plus
    for side in (minus, flipped_plus):
        assert "image-membership(in_image=False" in side.certificate
    assert counts == {"pairs": 0, "factorizations": 2, "tester": 2}


def test_kappa_general_pair_matches_direct(ws):
    # a pair off the families: the verdict agrees with the dense estimate of
    # W(a) - H(b), invertible here
    a = parse_symbol(MENDED_PAIRS[0][0])
    pair = MatchingPair(a, parse_symbol(MENDED_PAIRS[0][1]))
    res = kappa_for_pair(subordinated(pair))
    assert res.in_image is False
    op = wh_plus_hankel(pair.a, pair.b, -1, ws.grid, ws.cfg)
    assert kest(op, ws.cfg).dim == 0


def test_grid_function_export(ws):
    gf = ws.gf(np.exp(-ws.grid.half_nodes()))
    triples = gf.to_triples()
    assert len(triples) == ws.grid.n
    t0, re0, im0 = triples[0]
    assert abs(t0 - ws.grid.h / 2) < 1e-14 and im0 == 0.0


def test_sign_projection_containments(a_n0, a_nm1):
    # im P-(c) lies in ker(W(a)+H(b)) and im P+(c) in ker(W(a)-H(b)); f spans
    # ker W(c)
    for a in (a_n0, a_nm1):
        b = a * chi()
        sub = subordinated(MatchingPair(a, b))
        f = _spanning_image(sub.c)
        jf = half_line_flip(sub.c, f)
        scale = half_line_norm(f)
        assert half_line_norm(_wh_hankel_apply(a, b, 1, 0.5 * (f - jf))) <= 1e-12 * scale
        assert half_line_norm(_wh_hankel_apply(a, b, -1, 0.5 * (f + jf))) <= 1e-12 * scale


def test_phi_pm_needs_right_invertible_c():
    # W(chi) has n = +1 and no right inverse, whatever the input
    with pytest.raises(NoRightInverse):
        right_inverse_apply(chi(), EXP_IMAGE)


def test_right_inverse_never_drops_a_mean_motion():
    # a mean motion above FREQ_TOL, however small, leaves W(c) without the
    # right inverse of its factors: it is refused, not dropped
    with pytest.raises(NoRightInverse, match="nu = 1e-10"):
        right_inverse_apply(exp_symbol(1e-10) * chi(-1), EXP_IMAGE)


def test_flip_apply_matches_whole_line_composition(ws, a_n0):
    from whhankel.oracle import w0_matrix

    rng = np.random.default_rng(11)
    v = rng.normal(size=ws.grid.n) + 1j * rng.normal(size=ws.grid.n)
    fast = ws.flip_apply(a_n0, v)
    full = np.zeros(2 * ws.grid.n, dtype=complex)
    full[ws.grid.n:] = v                      # embed P v on the mirrored grid
    w0v = w0_matrix(a_n0, ws.grid).matrix @ full
    w0v[ws.grid.n:] = 0.0                     # Q
    slow = w0v[::-1][ws.grid.n:]              # J, then restrict to t > 0
    assert np.linalg.norm(fast - slow) < 1e-12 * max(np.linalg.norm(v), 1.0)


def test_phi_checks_its_input_before_inverting_c(a_n0, monkeypatch):
    # an input off ker W(d) is reported as such, also when W(c) has no
    # right inverse, in phi_pm and in the kappa tester alike
    from whhankel.classify import SubordinatedPair

    sub = SubordinatedPair(c=chi(1), d=chi(-1), at_inv=one(), nu_c=0.0,
                           nu_d=0.0, n_c=1, n_d=-1, xi_c=None, xi_d=None)
    off_image = parse_symbol("1/((t+1i)*(t+2i))")
    with pytest.raises(NotInKernel, match=r"^phi input \(ker W\(d\)\)"):
        phi_pm(sub, off_image, "-")

    def no_right_inverse(c, f):
        raise NoRightInverse("W(c) is not right-invertible")

    monkeypatch.setattr(kernels, "right_inverse_apply", no_right_inverse)
    monkeypatch.setattr(kernels, "_kernel_image", lambda g_plus_inv: off_image)
    with pytest.raises(NotInKernel, match=r"^phi input \(ker W\(d\)\)"):
        kappa_for_pair(subordinated(MatchingPair(a_n0, a_n0 * chi(-1))))


#: the catalog entries whose classification reaches the kappa tester
TESTER_PAIRS = ("pair_chi_inv_shift_n0", "hankel_chi_inverse")


def _catalog_pair(name):
    text = shipped_catalog_path().read_text(encoding="utf-8")
    entry = next(e for e in parse_catalog(text) if e.name == name)
    return MatchingPair(parse_symbol(entry.a_expr), parse_symbol(entry.b_expr))


def test_kappa_tester_reads_no_grid(monkeypatch):
    # classify decides the membership branch of both catalog pairs that
    # reach it in closed form: no generator, no matrix
    def no_grid(*args):
        raise AssertionError("the kappa tester read a grid")

    for name in ("_symbol_gen", "_toeplitz", "_hankel"):
        monkeypatch.setattr(oracle, name, no_grid)
    for name in TESTER_PAIRS:
        report = classify(_catalog_pair(name), kappa_tester=kappa_for_pair)
        certificates = report.plus.certificate + report.minus.certificate
        assert "image-membership(in_image=False" in certificates


def test_kappa_lies_in_the_minus_kernel_of_the_reduced_pair():
    # kappa = phi_-(s) of the reduced pair (a chi^-1, b chi) lies exactly in
    # ker(W(a chi^-1) - H(b chi)); the dense operators annihilate it to
    # second order
    for name in TESTER_PAIRS:
        pair = _catalog_pair(name)
        sub = subordinated(pair)
        red = _chi_reduced(sub)
        kappa = phi_pm(red, _spanning_image(red.d), "-")
        a, b = pair.a * chi(-1), pair.b * chi()
        assert half_line_norm(_wh_hankel_apply(a, b, -1, kappa)) <= 1e-12 * half_line_norm(kappa)
        coarse, fine = _dense_residuals(a, b, -1, kappa)
        assert coarse < 5e-3 and 3.5 < coarse / fine < 4.5
        at_i = sum(w.rational.eval(1j) for w in kappa.l0)
        residual = np.sqrt(2.0) * abs(at_i) / half_line_norm(kappa)
        assert residual == kappa_for_pair(sub).residual


def test_tester_route_where_xi_c_is_minus_one(general_pairs):
    # classify hands the tester 26 draw pairs with xi(c) = -1, for which it
    # transports to phi_+; (a, -b) has xi(c) = 1 and takes phi_-, the same
    # test, since phi_- of (a, -b) is -phi_+ of (a, b)
    routed = []
    for a_expr, b_expr in general_pairs:
        pair = MatchingPair(parse_symbol(a_expr), parse_symbol(b_expr))
        calls = []
        try:
            classify(pair, kappa_tester=calls.append)
        except OutOfScope:
            continue
        if calls and calls[0].xi_c == -1:
            routed.append(pair)
    assert len(routed) == 26
    for pair in routed:
        mine = kappa_for_pair(subordinated(pair))
        flipped = kappa_for_pair(subordinated(MatchingPair(pair.a, -pair.b)))
        assert mine.in_image == flipped.in_image
        assert abs(mine.residual - flipped.residual) <= 1e-12 * flipped.residual


def test_half_line_operations_match_the_grid_to_second_order():
    # W(g) f and J Q W0(g) P f in closed form, sampled at the half-line
    # nodes, against the grid's convolutions applied to the sampled f: the
    # error is O(h^2), falling about 4x when h halves
    f = symbols.half_line_apply(parse_symbol("((t+0.5-3i)/(t+0.3+2i))^2"), EXP_IMAGE)
    for g in (parse_symbol("(t-2i)*(t+1i)/((t+2i)*(t-1i))"),
              parse_symbol("(t+1.23+0.78i)/(t-1.23-0.78i)")):
        errors = []
        for h in (0.1, 0.05):
            grid = Grid(T=25.0, h=h)
            ws = Workspace(grid, OracleConfig(stability=False))
            t = grid.half_nodes()
            fv = symbols.time_kernel(f).value(t)
            pairs = ((oracle._toeplitz_apply(g, grid, fv), symbols.half_line_apply(g, f)),
                     (ws.flip_apply(g, fv), symbols.half_line_flip(g, f)))
            errors.append([np.linalg.norm(on_grid - symbols.time_kernel(exact).value(t))
                           / np.linalg.norm(on_grid) for on_grid, exact in pairs])
        for coarse, fine in zip(*errors):
            assert coarse < 0.05 and 3.5 < coarse / fine < 4.5


MENDED_PAIRS = [
    # pairs whose tester input failed the grid gate ("phi input (ker W(d))",
    # residuals 7.0e-4, 1.2e-5, 8.9e-5 and 5.8e-4 at T=25, h=0.05); both
    # operators are invertible
    ("((t+1.08-1.52i)/(t-0.7+1.71i))^3*((t+1.39+0.35i)/(t-0.6-2.9i))^3",
     "(((t+1.08-1.52i)/(t-0.7+1.71i))^3*((t+1.39+0.35i)/(t-0.6-2.9i))^3)"
     "*((t-0.05+2.27i)/(t+0.05-2.27i))"),
    ("((t+1.17+0.4i)/(t+0.09+2.73i))",
     "-(((t+1.17+0.4i)/(t+0.09+2.73i)))*((t+1.23+0.78i)/(t-1.23-0.78i))"),
    ("((t+0.7-2.98i)/(t+0.2-0.48i))^3",
     "-(((t+0.7-2.98i)/(t+0.2-0.48i))^3)*((t+1.29+2.02i)/(t-1.29-2.02i))"),
    ("((t+0.99+0.31i)/(t+1.37+2.11i))^2",
     "-(((t+0.99+0.31i)/(t+1.37+2.11i))^2)*((t+1.32+0.46i)/(t-1.32-0.46i))"
     "*((t-0.94-2.46i)/(t+0.94+2.46i))*((t+0.25+1.22i)/(t-0.25-1.22i))"),
]


@pytest.mark.parametrize("a_expr, b_expr", MENDED_PAIRS)
def test_pairs_the_grid_gate_refused_classify_and_verify(a_expr, b_expr):
    pair = MatchingPair(parse_symbol(a_expr), parse_symbol(b_expr))
    report = classify(pair, kappa_tester=kappa_for_pair)
    cells = [getattr(getattr(report, side), cell).describe()
             for side in ("plus", "minus") for cell in ("ker", "coker")]
    assert cells == ["0"] * 4
    table = oracle.verify(report, pair, Grid(T=25.0, h=0.1), OracleConfig())
    assert [row.verdict for row in table.rows] == ["pass"] * 5


def test_tester_residuals_are_pinned():
    # every kappa_for_pair call of the sweep (seed 1) and the general draw,
    # with its decision and residual as first recorded
    path = Path(__file__).parent / "data" / "kappa_residuals.json"
    rows = json.loads(path.read_text(encoding="utf-8"))
    assert len(rows) == 58
    for row in rows:
        pair = MatchingPair(parse_symbol(row["a"]), parse_symbol(row["b"]))
        got = kappa_for_pair(subordinated(pair))
        assert got.in_image is row["in_image"]
        assert abs(got.residual - row["residual"]) <= 1e-10 * row["residual"]
