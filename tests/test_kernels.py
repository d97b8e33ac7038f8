import dataclasses
import tracemalloc

import numpy as np
import pytest

from whhankel import (
    Grid,
    MatchingPair,
    OracleConfig,
    Workspace,
    chi,
    constant,
    inverse,
    kappa_element,
    kernel_basis_scalar,
    kernel_estimate,
    make_kappa_tester,
    one,
    parse_symbol,
    psi0,
    psi0_discrete,
    tilde,
    wh_matrix,
)
from whhankel.catalog import parse_catalog, shipped_catalog_path
from whhankel.classify import classify, subordinated
from whhankel.errors import NotInKernel, WrongCase, WrongIndex
from whhankel.kernels import (
    e1_map,
    e2_map,
    kappa_for_pair,
    p_minus,
    p_plus,
    phi_pm,
    projection_P,
    projection_image_dims,
)
from whhankel.oracle import block_v_matrix, wh_plus_hankel, kernel_estimate as kest


def test_psi0_values(coarse_grid):
    p = psi0(coarse_grid)
    assert abs(p.values[0] - np.exp(-coarse_grid.h / 2)) < 1e-14


def test_discrete_twin_close_to_exponential(coarse_grid):
    tw = psi0_discrete(coarse_grid).normalized()
    ref = psi0(coarse_grid).normalized()
    assert np.linalg.norm(tw.values - ref.values) * np.sqrt(coarse_grid.h) < 2e-3


def test_w0_flip_sends_twin_to_reflection(ws):
    # whole-line statement: applying the chi^-1 convolution to the zero
    # extension of the kernel generator gives minus its reflection
    from whhankel.oracle import w0_matrix

    full = np.concatenate([np.zeros(ws.grid.n), psi0_discrete(ws.grid).values])
    out = w0_matrix(chi(-1), ws.grid).matrix @ full
    assert np.linalg.norm(out + full[::-1]) < 1e-8 * np.linalg.norm(full)


def test_projection_flip_on_kernel(ws):
    p = psi0_discrete(ws.grid)
    flipped = projection_P(chi(-1), p, ws)
    assert np.linalg.norm(flipped.values + p.values) < 1e-10 * np.linalg.norm(p.values)
    # involution: applying the flip twice returns the input
    again = projection_P(chi(-1), flipped, ws)
    assert np.linalg.norm(again.values - p.values) < 1e-10 * np.linalg.norm(p.values)
    # hence the minus projection is the identity on this kernel
    assert np.linalg.norm(p_minus(chi(-1), p, ws).values - p.values) < 1e-10
    assert np.linalg.norm(p_plus(chi(-1), p, ws).values) < 1e-10


def test_projection_requires_kernel_membership(ws):
    junk = ws.gf(np.ones(ws.grid.n))
    with pytest.raises(NotInKernel):
        projection_P(chi(-1), junk, ws)


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


def test_phi_pm_spans_kernels_in_double_kernel_case(ws, a_nm1):
    pair = MatchingPair(a_nm1, a_nm1 * chi())
    sub = subordinated(pair)
    s = kernel_basis_scalar(sub.d, ws)[0]
    phip = phi_pm(sub, s, "+", ws)
    phim = phi_pm(sub, s, "-", ws)
    wp = ws.wh(a_nm1) + ws.hank(a_nm1 * chi())
    wm = ws.wh(a_nm1) - ws.hank(a_nm1 * chi())
    assert np.linalg.norm(wp @ phip.values) < 1e-5 * np.linalg.norm(s.values)
    assert np.linalg.norm(wm @ phim.values) < 1e-5 * np.linalg.norm(s.values)
    # the transported elements hit the sign projections of s
    bt, at = tilde(a_nm1 * chi()), tilde(a_nm1)
    got_plus = (ws.wh(bt) + ws.hank(at)) @ phip.values
    got_minus = (ws.wh(bt) - ws.hank(at)) @ phim.values
    assert np.linalg.norm(got_plus - p_plus(sub.d, s, ws).values) < 1e-5
    assert np.linalg.norm(got_minus - p_minus(sub.d, s, ws).values) < 1e-5


def test_phi_pm_zero_input(ws, a_nm1):
    sub = subordinated(MatchingPair(a_nm1, a_nm1 * chi()))
    z = ws.gf(np.zeros(ws.grid.n))
    assert np.linalg.norm(phi_pm(sub, z, "+", ws).values) == 0.0


def test_kappa_guards(ws, a_nm1):
    with pytest.raises(WrongCase):
        kappa_element(a_nm1, ws)  # n(a) = -1, not the conditional case


def test_kappa_structure(ws, a_n0):
    res = kappa_element(a_n0, ws)
    assert res.diagnostics["middle_term_norm"] < 1e-8
    assert res.diagnostics["first_term_membership"] < 1e-6
    assert res.stable
    assert res.in_image is False
    # verdict agrees with the oracle: the minus operator is invertible
    op = wh_plus_hankel(a_n0, a_n0 * chi(-1), -1, ws.grid, ws.cfg)
    assert kest(op, ws.cfg).dim == 0


def test_kappa_for_identity_symbol(ws):
    res = kappa_element(one(), ws)
    tw = psi0_discrete(ws.grid)
    direction = res.kappa.values / np.linalg.norm(res.kappa.values)
    ref = tw.values / np.linalg.norm(tw.values)
    assert np.linalg.norm(direction - ref) < 1e-10
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
    # the sign flip (b = -a chi^-1) and the tester derive their pairs from the
    # subordinated pair, and the tester factors d once for both grids
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


def test_kappa_general_pair_matches_direct(ws, a_n0):
    direct = kappa_element(a_n0, ws)
    general = kappa_for_pair(subordinated(MatchingPair(a_n0, a_n0 * chi(-1))), ws)
    assert direct.in_image == general.in_image


def test_grid_function_export(ws):
    gf = psi0(ws.grid)
    triples = gf.to_triples()
    assert len(triples) == ws.grid.n
    t0, re0, im0 = triples[0]
    assert abs(t0 - ws.grid.h / 2) < 1e-14 and im0 == 0.0


def test_sign_projection_containments(ws, a_n0, a_nm1):
    # vectors in im P-(c) annihilate W(a)+H(b); im P+(c) annihilates W(a)-H(b)
    for a in (a_n0, a_nm1):
        pair = MatchingPair(a, a * chi())
        sub = subordinated(pair)
        cbasis = kernel_basis_scalar(sub.c, ws)
        wp = ws.wh(a) + ws.hank(a * chi())
        wm = ws.wh(a) - ws.hank(a * chi())
        for f in cbasis:
            minus_part = p_minus(sub.c, f, ws).values
            plus_part = p_plus(sub.c, f, ws).values
            scale = np.linalg.norm(f.values)
            assert np.linalg.norm(wp @ minus_part) <= 1e-5 * scale
            assert np.linalg.norm(wm @ plus_part) <= 1e-5 * scale


def test_phi_pm_needs_right_invertible_c(ws, a_n0):
    from whhankel.errors import NoRightInverse

    pair = MatchingPair(a_n0, a_n0 * chi(-1))  # c = chi has n = +1
    s = ws.gf(np.zeros(ws.grid.n))
    s.values[0] = 0.0
    with pytest.raises(NoRightInverse):
        # vector content is irrelevant; the recipe guard fires first for 0 input
        from whhankel.kernels import right_inverse_apply
        right_inverse_apply(chi(), s.values, ws)


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


def test_kappa_error_names_grid_and_stage(ws, a_n0, monkeypatch):
    from whhankel import kernels

    real = kernels._kernel_vector
    # the session ws has stability off, which runs no longer grid
    stable_ws = Workspace(ws.grid, dataclasses.replace(ws.cfg, stability=True))

    def off_kernel_on_longer_grid(g_plus_inv, w):
        if w.grid == ws.grid:
            return real(g_plus_inv, w)
        return w.gf(np.ones(w.grid.n))

    monkeypatch.setattr(kernels, "_kernel_vector", off_kernel_on_longer_grid)
    sub = subordinated(MatchingPair(a_n0, a_n0 * chi(-1)))
    with pytest.raises(
        NotInKernel,
        match=r"^longer grid T=31\.3 h=0\.1, kappa tester: phi input",
    ):
        kappa_for_pair(sub, stable_ws)


def test_phi_checks_its_input_before_inverting_c(ws, a_n0, monkeypatch):
    # an input off ker W(d) is reported as such, also when W(c) has no
    # right inverse, in phi_pm and in the kappa tester alike
    from whhankel import kernels
    from whhankel.classify import SubordinatedPair
    from whhankel.errors import NoRightInverse

    sub = SubordinatedPair(c=chi(1), d=chi(-1), at_inv=one(), nu_c=0.0,
                           nu_d=0.0, n_c=1, n_d=-1, xi_c=None, xi_d=None)
    off = ws.gf(np.ones(ws.grid.n))
    with pytest.raises(NotInKernel, match=r"^phi input"):
        phi_pm(sub, off, "-", ws)

    def no_right_inverse(c):
        raise NoRightInverse("W(c) is not right-invertible")

    monkeypatch.setattr(kernels, "_right_inverse_recipe", no_right_inverse)
    monkeypatch.setattr(kernels, "_kernel_vector", lambda g_plus_inv, w: w.gf(np.ones(w.grid.n)))
    with pytest.raises(NotInKernel, match=r"^shorter grid .*, kappa tester: phi input"):
        kappa_for_pair(subordinated(MatchingPair(a_n0, a_n0 * chi(-1))), ws)


def _catalog_pair(name):
    text = shipped_catalog_path().read_text(encoding="utf-8")
    entry = next(e for e in parse_catalog(text) if e.name == name)
    return MatchingPair(parse_symbol(entry.a_expr), parse_symbol(entry.b_expr))


def test_wh_kernel_gate_measures_the_matrix_residual(ws):
    # the gate on phi's input reads W(d) v and norm_est(W(d)) from the
    # generator; the matrix gives the same residual
    from whhankel.kernels import _require_in_kernel, _require_in_wh_kernel

    rng = np.random.default_rng(3)
    for g in (chi(-1), chi(-1) * parse_symbol("(t+1i)*(t-2i)/((t-1i)*(t+2i))")):
        for v in (kernel_basis_scalar(g, ws)[0].values, rng.normal(size=ws.grid.n)):
            try:
                slow = _require_in_kernel(ws, ws.wh(g), v, "v")
            except NotInKernel as err:
                with pytest.raises(NotInKernel, match=str(err)):
                    _require_in_wh_kernel(ws, g, v, "v")
            else:
                assert abs(_require_in_wh_kernel(ws, g, v, "v") - slow) <= 1e-13


def test_kappa_tester_assembles_no_matrix(monkeypatch):
    from whhankel import oracle

    def no_matrix(*args):
        raise AssertionError("the kappa tester assembled a matrix")

    monkeypatch.setattr(oracle, "_toeplitz", no_matrix)
    monkeypatch.setattr(oracle, "_hankel", no_matrix)
    sub = subordinated(_catalog_pair("pair_chi_inv_shift_n0"))
    res = kappa_for_pair(sub, Workspace(Grid(T=25.0, h=0.1), OracleConfig()))
    assert res.stable and res.in_image is False


def test_kappa_tester_without_stability_runs_one_grid(coarse_grid, monkeypatch):
    sub = subordinated(_catalog_pair("pair_chi_inv_shift_n0"))
    both = make_kappa_tester(coarse_grid, OracleConfig(stability=True))(sub)

    def no_longer_grid(self):
        raise AssertionError("the longer grid was built with stability off")

    monkeypatch.setattr(Grid, "longer", no_longer_grid)
    one_grid = make_kappa_tester(coarse_grid, OracleConfig(stability=False))(sub)
    assert one_grid.stable
    assert (one_grid.in_image, one_grid.residual) == (both.in_image, both.residual)
    assert np.array_equal(one_grid.kappa.values, both.kappa.values)


def test_kappa_run_holds_few_matrices():
    # each matrix is assembled where it is read and dropped after it: one
    # kappa run with the longer re-run stays below three longer-grid matrices
    sub = subordinated(_catalog_pair("pair_chi_inv_shift_n0"))
    grid = Grid(T=25.0, h=0.05)
    ws = Workspace(grid, OracleConfig(stability=True))
    n = grid.longer().n
    tracemalloc.start()
    try:
        res = kappa_for_pair(sub, ws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.stable and res.in_image is False
    assert peak < 3 * n * n * 16, f"peak {peak / 2**20:.1f} MiB"
