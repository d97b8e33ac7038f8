import dataclasses
import warnings

import numpy as np
import pytest

from whhankel import (
    Grid,
    MatchingPair,
    OracleConfig,
    block_v_matrix,
    chi,
    classify,
    coker_estimate,
    constant,
    exp_symbol,
    hankel_matrix,
    kernel_estimate,
    one,
    parse_symbol,
    rational_symbol,
    scalar_wh_classify,
    Workspace,
    tilde,
    verify,
    w0_matrix,
    wh_matrix,
)
from whhankel import oracle
from whhankel.catalog import parse_catalog, run_catalog, shipped_catalog_path
from whhankel.classify import Dim, SignReport, ClassificationReport
from whhankel.errors import ShiftNotCommensurate
from whhankel.kernels import (
    EXP_IMAGE,
    _right_inverse_recipe,
    kernel_basis_scalar,
    right_inverse_apply,
)
from whhankel.oracle import (
    BOUNDARY_FRAC,
    _symbol_gen,
    block_v_product_form,
    norm_est,
    verify_scalar,
    wh_plus_hankel,
)
from whhankel.symbols import half_line_apply, half_line_norm, time_kernel

GRID = Grid(T=25.0, h=0.1)
CFG = OracleConfig(stability=False)


def _bump(grid, center=6.0, width=1.0, freq=1.0):
    t = grid.half_nodes()
    return np.exp(-0.5 * ((t - center) / width) ** 2) * np.exp(1j * freq * t)


def test_identity_symbol_gives_identity_matrix():
    m = wh_matrix(one(), GRID, CFG).matrix
    assert np.allclose(m, np.eye(GRID.n))


def test_constant_hankel_is_zero():
    assert np.abs(hankel_matrix(one(), GRID, CFG).matrix).max() == 0.0


def test_strided_assembly_matches_scipy(a_n0):
    # scipy.linalg is the reference the strided Toeplitz/Hankel copies replace
    import scipy.linalg as sl

    n = GRID.n
    for sym in (a_n0, chi(-1), exp_symbol(0.5) * chi()):
        gen = _symbol_gen(sym, GRID, np.arange(-(n - 1), n))
        ref = sl.toeplitz(gen[n - 1:], gen[:n][::-1])
        assert np.array_equal(wh_matrix(sym, GRID, CFG).matrix, ref)
        gen = _symbol_gen(sym, GRID, np.arange(1, 2 * n))
        ref = sl.hankel(gen[:n], gen[n - 1:])
        assert np.array_equal(hankel_matrix(sym, GRID, CFG).matrix, ref)
        gen = _symbol_gen(sym, GRID, np.arange(-(2 * n - 1), 2 * n))
        ref = sl.toeplitz(gen[2 * n - 1:], gen[: 2 * n][::-1])
        assert np.array_equal(w0_matrix(sym, GRID).matrix, ref)


def test_shift_matrices_are_translations():
    m = wh_matrix(exp_symbol(0.5), GRID, CFG).matrix  # shift by 5 cells
    v = _bump(GRID)
    shifted = m @ v
    assert np.allclose(shifted[5:], v[:-5], atol=1e-12)
    assert np.allclose(shifted[:5], 0.0)


def test_incommensurate_shift_rejected_and_snapping_warns():
    with pytest.raises(ShiftNotCommensurate):
        wh_matrix(exp_symbol(0.1234), GRID, CFG)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        wh_matrix(exp_symbol(0.5 + 0.002), GRID, CFG)
    assert any("snapping" in str(w.message) for w in caught)
    # a rational part's shift snaps through the same rule, and says so
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        wh_matrix(parse_symbol("1 + e(0.502)*(1/(t+1i))"), GRID, CFG)
    assert any("snapping shift 0.502 to 0.5" in str(w.message) for w in caught)


def test_kernel_dims_of_chi_pair():
    est = kernel_estimate(wh_matrix(chi(-1), GRID, CFG), CFG)
    assert est.dim == 1
    sv = np.asarray(est.singular_values)
    assert sv[-1] < 1e-6 * sv[0]
    assert sv[-2] >= 1e-2 * sv[0]
    est2 = kernel_estimate(wh_matrix(chi(), GRID, CFG), CFG)
    assert est2.dim == 0
    cok = coker_estimate(wh_matrix(chi(), GRID, CFG), CFG)
    assert cok.dim == 1


def test_kernel_vector_matches_exponential():
    est = kernel_estimate(wh_matrix(chi(-1), GRID, CFG), CFG)
    t = GRID.half_nodes()
    ref = np.exp(-t)
    ref = ref / np.linalg.norm(ref)
    v = est.basis[0]
    err = np.sqrt(max(0.0, 2.0 - 2.0 * abs(np.vdot(ref, v))))
    assert err < 1e-3


def test_kernel_estimate_residual_invariant():
    op = wh_matrix(chi(-1), GRID, CFG)
    est = kernel_estimate(op, CFG)
    for v, r in zip(est.basis, est.residuals):
        assert r <= 10 * est.tol


def test_two_grid_stability_flag():
    cfg = OracleConfig(stability=True)
    est = kernel_estimate(wh_matrix(chi(-1), GRID, cfg), cfg)
    assert est.stable and est.dim == 1


def test_truncation_insensitivity():
    for grid in (GRID, Grid(T=31.3, h=0.1)):
        assert kernel_estimate(wh_matrix(chi(-1), grid, CFG), CFG).dim == 1
        assert kernel_estimate(wh_matrix(chi(), grid, CFG), CFG).dim == 0


def test_kernel_vector_convergence_is_at_least_first_order():
    errs = []
    for h in (0.2, 0.1):
        grid = Grid(T=25.0, h=h)
        est = kernel_estimate(wh_matrix(chi(-1), grid, CFG), CFG)
        t = grid.half_nodes()
        ref = np.exp(-t)
        ref /= np.linalg.norm(ref)
        errs.append(np.sqrt(max(0.0, 2.0 - 2.0 * abs(np.vdot(ref, est.basis[0])))))
    assert errs[1] <= 0.5 * errs[0]


def test_flip_identities_on_the_full_line(a_n0):
    grid = GRID
    w0 = w0_matrix(a_n0, grid).matrix
    w0t = w0_matrix(tilde(a_n0), grid).matrix
    full = grid.full_nodes()
    v = np.exp(-0.25 * full**2) * np.exp(0.5j * full)
    # J^2 = I and JQ = PJ are exact index manipulations
    assert np.allclose(v[::-1][::-1], v)
    q = v.copy()
    q[grid.n:] = 0.0
    jq = q[::-1]
    pj = v[::-1].copy()
    pj[: grid.n] = 0.0
    assert np.allclose(jq, pj)
    # J W0(a) J = W0(tilde a)
    assert np.linalg.norm((w0 @ v[::-1])[::-1] - w0t @ v) < 1e-10 * np.linalg.norm(v)


def test_product_identities_for_random_symbols():
    rng = np.random.default_rng(7)
    t = GRID.half_nodes()
    v = _bump(GRID)
    import numpy.polynomial.polynomial as npp

    for _ in range(6):
        poles_a = [rng.uniform(-2, 2) + 1j * rng.uniform(1, 3) * rng.choice([-1, 1])]
        poles_b = [rng.uniform(-2, 2) + 1j * rng.uniform(1, 3) * rng.choice([-1, 1])]
        a = constant(rng.normal() + 1) + rational_symbol(
            [rng.normal() + 1j * rng.normal()], npp.polyfromroots(poles_a)
        )
        b = constant(rng.normal() + 1) + rational_symbol(
            [rng.normal() + 1j * rng.normal()], npp.polyfromroots(poles_b)
        )
        ab = a * b
        wa = wh_matrix(a, GRID, CFG).matrix
        wb = wh_matrix(b, GRID, CFG).matrix
        ha = hankel_matrix(a, GRID, CFG).matrix
        hb = hankel_matrix(b, GRID, CFG).matrix
        hbt = hankel_matrix(tilde(b), GRID, CFG).matrix
        wbt = wh_matrix(tilde(b), GRID, CFG).matrix
        scale = np.linalg.norm(v) * (1 + a.norm_estimate() * b.norm_estimate())
        r1 = wh_matrix(ab, GRID, CFG).matrix @ v - wa @ (wb @ v) - ha @ (hbt @ v)
        r2 = hankel_matrix(ab, GRID, CFG).matrix @ v - wa @ (hb @ v) - ha @ (wbt @ v)
        assert np.linalg.norm(r1) < 1e-5 * scale
        assert np.linalg.norm(r2) < 1e-5 * scale


def test_hankel_chi_annihilates_w_chi():
    v = _bump(GRID)
    h = hankel_matrix(chi(), GRID, CFG).matrix
    w = wh_matrix(chi(), GRID, CFG).matrix
    assert np.linalg.norm(h @ (w @ v)) < 1e-6 * np.linalg.norm(v)


def test_block_matrix_and_product_form(a_n0):
    pair = MatchingPair(a_n0, a_n0 * chi())
    direct = block_v_matrix(pair, GRID, CFG).matrix
    product = block_v_product_form(pair, GRID)
    assert np.allclose(direct, product, atol=1e-10)
    est = kernel_estimate(block_v_matrix(pair, GRID, CFG), CFG)
    assert est.dim == 1  # dim ker W(c) + dim ker W(d) = 1 + 0


def test_block_kernel_dim_splits(a_nm1):
    pair = MatchingPair(a_nm1, a_nm1 * chi())
    est = kernel_estimate(block_v_matrix(pair, GRID, CFG), CFG)
    assert est.dim == 2  # 1 from ker W(c), 1 from ker W(d)


def test_constant_pair_block_has_trivial_kernel():
    pair = MatchingPair(one(), constant(-1.0))
    est = kernel_estimate(block_v_matrix(pair, GRID, CFG), CFG)
    assert est.dim == 0


def test_convolution_products_equal_matrix_products():
    # the flip map, the kernel bases and the transport maps apply Toeplitz and
    # Hankel operators as convolutions of the generator, on the grid and the
    # longer one
    entries = parse_catalog(shipped_catalog_path().read_text(encoding="utf-8"))
    exprs = sorted({x for e in entries for x in (e.a_expr, e.b_expr) if x})
    rng = np.random.default_rng(5)
    grid = Grid(T=25.0, h=0.05)
    for g in (grid, grid.longer()):
        ws = Workspace(g, CFG)
        v = rng.normal(size=g.n) + 1j * rng.normal(size=g.n)
        for sym in map(parse_symbol, exprs):
            for fast, mat in ((oracle._toeplitz_apply(sym, g, v), ws.wh(sym)),
                              (oracle._hankel_apply(sym, g, v), ws.hank(sym))):
                slow = mat @ v
                assert np.linalg.norm(fast - slow) <= 1e-13 * np.linalg.norm(slow)


#: the half-line image of a rational multiple of e^(-t)
IMAGE = half_line_apply(parse_symbol("((t+0.5-3i)/(t+0.3+2i))^2"), EXP_IMAGE)


def _check_right_inverse(c):
    # W(c) W_r^(-1)(c) f = f exactly in closed form; the dense W(c) applied to
    # the sampled W_r^(-1)(c) f gives back f to second order
    r = right_inverse_apply(c, IMAGE)
    assert half_line_norm(half_line_apply(c, r) - IMAGE) <= 1e-12 * half_line_norm(IMAGE)
    errors = []
    for h in (0.1, 0.05):
        grid = Grid(T=25.0, h=h)
        t = grid.half_nodes()
        f = time_kernel(IMAGE).value(t)
        back = wh_matrix(c, grid, CFG).matrix @ time_kernel(r).value(t)
        errors.append(np.linalg.norm(back - f) / np.linalg.norm(f))
    assert errors[0] < 1e-2 and 3.5 < errors[0] / errors[1] < 4.5


def test_apply_recipe_right_inverse():
    _check_right_inverse(chi(-1))


def test_apply_recipe_composite_symbol(a_nm1):
    _check_right_inverse(a_nm1)


def test_empty_recipe_is_identity():
    # W(1) has the empty right-inverse recipe, which leaves its input as it is
    assert _right_inverse_recipe(one()).factors == ()
    assert right_inverse_apply(one(), IMAGE).isclose(IMAGE, 1e-15)


def test_verify_pass_and_corrupted_report(a_n0):
    pair = MatchingPair(a_n0, a_n0 * chi())
    report = classify(pair)
    table = verify(report, pair, GRID, CFG)
    assert table.ok
    corrupted = ClassificationReport(
        plus=SignReport(Dim.exact(2), report.plus.coker, "unknown", "corrupted"),
        minus=report.minus,
        index_check=None,
        subordinated=report.subordinated,
    )
    bad = verify(corrupted, pair, GRID, CFG)
    assert not bad.ok
    row = [r for r in bad.rows if r.cell == "plus.ker"][0]
    assert row.verdict == "fail" and row.measured == 1


def test_verify_scalar_rows():
    a = chi(-1)
    report = scalar_wh_classify(a)
    table = verify_scalar(report, a, GRID, CFG)
    assert [(r.cell, r.predicted, r.measured, r.verdict) for r in table.rows] == [
        ("ker", "1", 1, "pass"),
        ("coker", "0", 0, "pass"),
    ]
    corrupted = SignReport(Dim.exact(2), report.coker, "unknown", "corrupted")
    bad = verify_scalar(corrupted, a, GRID, CFG)
    assert not bad.ok
    assert [r.verdict for r in bad.rows] == ["fail", "pass"]


def test_verify_assembles_each_operator_once(monkeypatch, a_n0, a_nm1):
    # each sign's operator is assembled once, on the longer grid, and the
    # grid's matrix is its leading block: the stability re-runs of the ker
    # and coker estimates assemble nothing more
    built, ops, hankel_sizes = [], [], []
    original, hankel = oracle.wh_plus_hankel, oracle._hankel

    def recording(a, b, sign, grid, cfg):
        built.append((sign, grid))
        ops.append(original(a, b, sign, grid, cfg))
        return ops[-1]

    def recording_hankel(sym, grid, n):
        hankel_sizes.append(n)
        return hankel(sym, grid, n)

    monkeypatch.setattr(oracle, "wh_plus_hankel", recording)
    monkeypatch.setattr(oracle, "_hankel", recording_hankel)
    pair = MatchingPair(a_n0, a_n0 * chi())
    stab = OracleConfig(stability=True)
    verify(classify(pair), pair, GRID, stab)
    n, big = GRID.n, GRID.longer().n
    assert built == [(1, GRID), (-1, GRID)]
    assert hankel_sizes == [big, big]
    for op in ops:
        assert op.longer.grid == GRID.longer() and op.longer.longer is None
        assert np.shares_memory(op.matrix, op.longer.matrix)
        assert np.array_equal(op.matrix, op.longer.matrix[:n, :n])
    # the block operator copies each component's leading block
    block_pair = MatchingPair(a_nm1, a_nm1 * chi())
    block = block_v_matrix(block_pair, GRID, stab)
    assert block.longer.grid == GRID.longer()
    assert not np.shares_memory(block.matrix, block.longer.matrix)
    assert np.array_equal(block.matrix.reshape(2, n, 2, n),
                          block.longer.matrix.reshape(2, big, 2, big)[:, :n, :, :n])

    # with stability off only the grid is assembled
    def no_longer_grid(self):
        raise AssertionError("the longer grid was built with stability off")

    monkeypatch.setattr(Grid, "longer", no_longer_grid)
    built.clear()
    ops.clear()
    hankel_sizes.clear()
    verify(classify(pair), pair, GRID, CFG)
    assert built == [(1, GRID), (-1, GRID)] and hankel_sizes == [n, n]
    assert [op.longer for op in ops] == [None, None]
    assert block_v_matrix(block_pair, GRID, CFG).longer is None


def test_stability_rerun_needs_the_longer_operator():
    # an operator assembled with stability off has no longer grid to re-run
    # on; the re-run is never skipped silently
    op = wh_matrix(chi(-1), GRID, CFG)
    for estimate in (kernel_estimate, coker_estimate):
        with pytest.raises(ValueError, match="longer grid"):
            estimate(op, OracleConfig(stability=True))


def test_index_identity_row_with_an_unstable_side(monkeypatch, a_nm1):
    # the row is added whenever the report has an index check; an unstable
    # side makes it unstable, with the measured sum still shown
    pair = MatchingPair(a_nm1, a_nm1 * chi())
    report = classify(pair)
    row = verify(report, pair, GRID, CFG).rows[-1]
    assert (row.cell, row.predicted, row.measured, row.stable, row.verdict) == (
        "index-identity", "2", 2, True, "pass")
    original = oracle.coker_estimate
    signs = []

    def unstable_minus(op, cfg, **kwargs):
        signs.append("plus" if not signs else "minus")
        est = original(op, cfg, **kwargs)
        return dataclasses.replace(est, stable=est.stable and signs[-1] == "plus")

    monkeypatch.setattr(oracle, "coker_estimate", unstable_minus)
    table = verify(report, pair, GRID, CFG)
    assert signs == ["plus", "minus"]
    assert [(r.cell, r.stable, r.verdict) for r in table.rows] == [
        ("plus.ker", True, "pass"),
        ("plus.coker", True, "pass"),
        ("minus.ker", True, "pass"),
        ("minus.coker", False, "unstable"),
        ("index-identity", False, "unstable"),
    ]
    assert table.rows[-1].measured == 2


def test_verify_reports_no_prediction_for_unknowns(a_n0):
    pair = MatchingPair(a_n0, a_n0 * chi(-1))
    report = classify(pair)  # no tester: minus side unknown
    table = verify(report, pair, GRID, CFG)
    cells = {r.cell: r.verdict for r in table.rows}
    assert cells["minus.ker"] == "no-prediction"
    assert cells["plus.ker"] == "pass"


def test_judge_lower_bounds_and_infinite_predictions():
    judge = oracle._judge
    assert judge(Dim.at_least(2), 2, True) == "pass"
    assert judge(Dim.at_least(2), 5, True) == "pass"
    assert judge(Dim.at_least(2), 1, True) == "fail"
    assert judge(Dim.at_least(2), 0, False) == "unstable"
    assert judge(Dim.infinite(), 3, True) == "consistent"
    assert judge(Dim.infinite(), 2, True) == "fail"
    assert judge(Dim.infinite(), 9, False) == "unstable"
    # stability is judged before the kind of prediction
    assert judge(Dim.unknown(), 2, False) == "unstable"
    assert judge(Dim.unknown(), 2, True) == "no-prediction"


@pytest.mark.parametrize("h, n_longer, t_longer", [(0.1, 313, "31.3"), (0.05, 625, "31.25")])
def test_grid_matrices_are_leading_blocks_of_the_longer_grid(h, n_longer, t_longer,
                                                             a_n0, a_nm1):
    # the stability re-run measures the same operator on ceil(1.25 n) nodes
    grid = Grid(T=25.0, h=h)
    longer = grid.longer()
    assert (longer.n, f"{longer.T:g}", longer.h) == (n_longer, t_longer, h)
    n = grid.n
    shifted = parse_symbol("e(0.5)*((t-2i)/(t+1i))")
    for build in (lambda g: wh_plus_hankel(a_n0, a_n0 * chi(), +1, g, CFG),
                  lambda g: wh_plus_hankel(a_n0, a_n0 * chi(), -1, g, CFG),
                  lambda g: hankel_matrix(shifted, g, CFG)):
        assert np.array_equal(build(grid).matrix, build(longer).matrix[:n, :n])
    # the block operator nests component by component
    pair = MatchingPair(a_nm1, a_nm1 * chi())
    blocks = block_v_matrix(pair, grid, CFG).matrix.reshape(2, n, 2, n)
    longer_blocks = block_v_matrix(pair, longer, CFG).matrix.reshape(
        2, n_longer, 2, n_longer)
    assert np.array_equal(blocks, longer_blocks[:, :n, :, :n])


def test_wh_plus_hankel_dims_case_families(a_n0, a_nm1):
    plus = wh_plus_hankel(a_n0, a_n0 * chi(), +1, GRID, CFG)
    minus = wh_plus_hankel(a_n0, a_n0 * chi(), -1, GRID, CFG)
    assert kernel_estimate(plus, CFG).dim == 1
    assert coker_estimate(plus, CFG).dim == 1
    assert kernel_estimate(minus, CFG).dim == 0
    assert coker_estimate(minus, CFG).dim == 0
    plus2 = wh_plus_hankel(a_nm1, a_nm1 * chi(), +1, GRID, CFG)
    assert kernel_estimate(plus2, CFG).dim == 1
    assert coker_estimate(plus2, CFG).dim == 0


def test_full_line_building_blocks(a_n0):
    # the flip J is v[::-1] on the mirrored grid: J W0(a) J = W0(a~)
    full = GRID.full_nodes()
    w = np.exp(-0.25 * full**2)
    lhs = (w0_matrix(a_n0, GRID).matrix @ w[::-1])[::-1]
    rhs = w0_matrix(tilde(a_n0), GRID).matrix @ w
    assert np.linalg.norm(lhs - rhs) < 1e-8 * np.linalg.norm(w)


def test_coker_cross_checks_adjoint_assembly(a_n0):
    from whhankel import conj

    b = a_n0 * chi()
    op = wh_plus_hankel(a_n0, b, +1, GRID, CFG)
    cok = coker_estimate(op, CFG)
    adj_assembled = wh_plus_hankel(conj(a_n0), conj(tilde(b)), +1, GRID, CFG)
    ker_adj = kernel_estimate(adj_assembled, CFG)
    assert cok.dim == ker_adj.dim == 1
    # the discrete conjugate transpose equals the assembled adjoint symbols
    assert np.allclose(op.matrix.conj().T, adj_assembled.matrix, atol=1e-12)


def test_block_three_factor_splitting(a_n0, a_nm1):
    from whhankel.oracle import block_factorization_residual

    for a, b in ((a_n0, a_n0 * chi()), (a_nm1, a_nm1 * chi()), (one(), a_n0)):
        resid = block_factorization_residual(MatchingPair(a, b), GRID)
        assert resid < 1e-5


A_N0 = "(t-2i)*(t+1i)/((t+2i)*(t-1i))"

# matching symbols with n = -1 and poles of multiplicity 1-3; the first is
# d = a^2 chi^-1 of the catalog pair (a, a chi^-1) after its chi-reduction
KERNEL_SYMBOLS = [
    f"({A_N0})^2*chi^-1",
    "chi^-1",
    "chi^-2*((t-2i)/(t+2i))",
    "chi^-3*((t-2i)/(t+2i))^2",
    "chi^-4*((t-2i)/(t+2i))^3",
]
# further symbols with a constant part and poles off the imaginary axis
OTHER_SYMBOLS = [
    "1 + (0.5+1i)/((t-1+2i)^3)",
    "(t+3i)/((t-1-1i)^2)",
    "((t-2i)/(t+1i))^4",
]


@pytest.mark.parametrize("h", [0.1, 0.05, 0.025, 0.0125])
def test_multiple_pole_generators_across_h(h):
    grid = Grid(T=25.0, h=h)
    m = np.arange(-int(100 / h), int(100 / h) + 1)
    thetas = np.array([-2.5, -0.7, 0.3, 1.0, 2.9])
    for text in KERNEL_SYMBOLS + OTHER_SYMBOLS:
        sym = parse_symbol(text)
        gen = _symbol_gen(sym, grid, m)
        resummed = np.exp(1j * np.outer(thetas, m)) @ gen
        exact = sym.eval(2.0 / h * np.tan(thetas / 2))
        assert np.max(np.abs(resummed - exact)) < 1e-10, text
    for text in KERNEL_SYMBOLS:
        sym = parse_symbol(text)
        ws = Workspace(grid, CFG)
        v = kernel_basis_scalar(sym, ws)[0].values
        w = ws.wh(sym)
        resid = np.linalg.norm(w @ v) / (norm_est(w) * np.linalg.norm(v))
        assert resid < 1e-8, text


def _values_only_ops(a_n0, a_nm1, cfg):
    """Operators of the values-only checks; the last three are the catalog
    pair W(a)+H(a chi), the block operator and a complex-kernel operator."""
    return [
        wh_matrix(chi(-1), GRID, cfg),
        wh_matrix(chi(), GRID, cfg),
        wh_plus_hankel(a_n0, a_n0 * chi(), +1, GRID, cfg),
        wh_plus_hankel(a_n0, a_n0 * chi(), -1, GRID, cfg),
        wh_plus_hankel(a_nm1, a_nm1 * chi(), +1, GRID, cfg),
        block_v_matrix(MatchingPair(a_nm1, a_nm1 * chi()), GRID, cfg),
        # zero and pole off the imaginary axis: the convolution kernel is complex
        wh_matrix(parse_symbol("(t-1-2i)/(t-1+2i)"), GRID, cfg),
    ]


def test_values_only_estimate_matches_full_svd(a_n0, a_nm1, monkeypatch):
    cfg = OracleConfig(stability=True)
    ops = _values_only_ops(a_n0, a_nm1, cfg)
    catalog_op, block_op, complex_op = ops[-3:]
    for i, op in enumerate(ops):
        for estimate in (kernel_estimate, coker_estimate):
            full = estimate(op, cfg)
            dims = estimate(op, cfg, with_basis=False)
            assert (dims.dim, dims.stable) == (full.dim, full.stable), i
            assert len(full.basis) == full.dim
            assert dims.basis == () and dims.residuals == ()

    # values-only SVDs run in real arithmetic exactly when the matrix is real
    # up to rounding; the basis path always stays complex.  Every SVD sees the
    # interior columns: n rows and n - w columns per component, on the grid
    # and on the longer grid.  The longer-grid SVD runs only where the
    # certificate of the grid's count fails, and here it holds for every count
    kinds, shapes = [], []
    svd = np.linalg.svd

    def recording_svd(m, *args, **kwargs):
        kinds.append((m.dtype.kind, kwargs.get("compute_uv", True)))
        shapes.append(m.shape)
        return svd(m, *args, **kwargs)

    def interior_shapes(op):
        out = []
        for grid in (op.grid, op.longer.grid):
            n, w = grid.n, round(BOUNDARY_FRAC * grid.n)
            out.append((op.components * n, op.components * (n - w)))
        return out

    def recorded(estimate, op, **kwargs):
        kinds.clear()
        shapes.clear()
        return estimate(op, cfg, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    dims = {}
    cases = ((complex_op, "c"), (catalog_op, "f"), (block_op, "f"))
    for i, (op, kind) in enumerate(cases):
        for estimate in (kernel_estimate, coker_estimate):
            est = recorded(estimate, op, with_basis=False)
            assert kinds == [(kind, False)], i
            assert shapes == interior_shapes(op)[:1], i
            assert est.stable
            dims[i, estimate] = est.dim
    assert 0 in dims.values() and max(dims.values()) >= 1
    recorded(kernel_estimate, catalog_op)
    assert kinds == [("c", True)]
    assert shapes == interior_shapes(catalog_op)[:1]

    # with the certificate failing, the longer-grid SVD runs after every count
    monkeypatch.setattr(oracle, "_cholesky_certifies", lambda *args: False)
    for i, (op, kind) in enumerate(cases):
        for estimate in (kernel_estimate, coker_estimate):
            est = recorded(estimate, op, with_basis=False)
            assert kinds == [(kind, False)] * 2, i
            assert shapes == interior_shapes(op), i
            assert (est.dim, est.stable) == (dims[i, estimate], True)
    recorded(kernel_estimate, catalog_op)
    assert kinds == [("c", True), ("f", False)]
    assert shapes == interior_shapes(catalog_op)


def test_certified_refined_count_equals_svd_count(a_n0, a_nm1):
    cfg = OracleConfig(stability=True)
    ops = _values_only_ops(a_n0, a_nm1, cfg)
    names = ("pair_chi_inv_shift_n0", "pair_chi_inv_shift_n1", "hankel_only_n0")
    for entry in parse_catalog(shipped_catalog_path().read_text(encoding="utf-8")):
        if entry.name in names:
            a, b = parse_symbol(entry.a_expr), parse_symbol(entry.b_expr)
            ops += [wh_plus_hankel(a, b, sign, GRID, cfg) for sign in (+1, -1)]
    assert len(ops) == 13
    counts = []
    for i, op in enumerate(ops):
        longer = op.longer
        for coker in (False, True):     # kernel, then cokernel
            side = (i, coker)
            dim, _, s, _ = oracle._estimate_once(longer, cfg.rank_tol, with_basis=False,
                                                 coker=coker)
            counts.append(dim)
            # the true count and a neighbour of it
            for d in (dim, dim - 1 if dim else 1):
                cert = oracle._estimate_once(longer, cfg.rank_tol, with_basis=False,
                                             certify=d, coker=coker)
                if len(cert[2]) == 0:   # certified: no SVD ran
                    assert cert[0] == d == dim, (side, d)
                else:
                    assert cert[0] == dim and np.array_equal(cert[2], s)
                    # these kernels sit far from the cut: every true count passes
                    assert d != dim, side
    assert 0 in counts and 1 in counts and 2 in counts


def _synthetic_op(factors, complex_, tol, seed=0, longer=None):
    """Operator whose 32 interior columns are U diag(sigma) V^H, 40 x 32,
    whose smallest singular values are factors * tol * norm_est(op), and
    whose 8 outer columns are 0; its longer operator is longer, or the
    operator itself."""
    rng = np.random.default_rng(seed)

    def gauss(*shape):
        z = rng.normal(size=shape)
        return z + 1j * rng.normal(size=shape) if complex_ else z

    u, _ = np.linalg.qr(gauss(40, 32))
    v, _ = np.linalg.qr(gauss(32, 32))
    sigma = np.geomspace(1.0, 0.1, 32)
    small = np.sort(factors)[::-1]
    matrix = np.zeros((40, 40), dtype=u.dtype)
    for _ in range(50):     # norm_est moves with them: iterate to the fixed point
        matrix[:, :32] = (u * sigma) @ v.conj().T
        sigma[32 - len(small):] = small * tol * norm_est(matrix)
    matrix[:, :32] = (u * sigma) @ v.conj().T
    op = oracle.DiscretizedOp(matrix, Grid(T=4.0, h=0.1))
    op.longer = op if longer is None else longer
    return op


#: (d, smallest singular values as factors of the cut): the d-th smallest at
#: 0.5 or 0.999 cut, the (d+1)-th at 0.999, 1.001 or 1.5 cut
CUT_CASES = [(0, (f,)) for f in (0.5, 0.999, 1.001, 1.5)] + [
    (d, (lo,) * d + (hi,))
    for d in (1, 2) for lo in (0.5, 0.999) for hi in (0.999, 1.001, 1.5)
]


@pytest.mark.parametrize("complex_", [False, True])
def test_cholesky_certificate_at_the_cut(complex_, monkeypatch):
    # a large rank_tol makes cut^2 the whole shift, so the certificate is
    # tested right at the cut
    cfg = OracleConfig(rank_tol=1e-3, stability=True)
    results = {}
    for d, factors in CUT_CASES:
        op = _synthetic_op(factors, complex_, cfg.rank_tol)
        a = op.matrix[:, oracle._interior_columns(op)]
        cut = cfg.rank_tol * norm_est(op.matrix)
        s = np.linalg.svd(a, compute_uv=False)
        smallest = s[32 - len(factors):] / cut
        assert np.allclose(smallest, sorted(factors)[::-1], rtol=0, atol=1e-9)
        # the operator's realness test: ||Im M||_F against 1e-3 of the cut
        scale, imag = oracle._rank_data(op)
        assert scale == norm_est(op.matrix)
        assert (imag <= 1e-3 * cut) == (not complex_)
        count = int(np.count_nonzero(s < cut))
        assert count == d + (factors[-1] < 1)
        passed = oracle._cholesky_certifies(a, cut, d)
        # passing proves the count; clear of the cut by 0.5 it always passes
        assert passed <= (count == d), (d, factors)
        if factors[-1] == 1.5 and (d == 0 or factors[0] == 0.5):
            assert passed, (d, factors)
        if d == 0:
            assert passed == (factors[0] > 1)
        results[d, factors] = kernel_estimate(op, cfg, with_basis=False)
    monkeypatch.setattr(oracle, "_cholesky_certifies", lambda *args: False)
    for (d, factors), est in results.items():
        svd_only = kernel_estimate(_synthetic_op(factors, complex_, cfg.rank_tol), cfg,
                                   with_basis=False)
        count = d + (factors[-1] < 1)
        assert (est.dim, est.stable) == (svd_only.dim, svd_only.stable) == (count, True)


@pytest.mark.parametrize("complex_", [False, True])
def test_certificate_falls_back_when_the_fine_count_differs(complex_, monkeypatch):
    # the grid counts 1; the longer grid counts 2 or 0, so the
    # certificate of 1 fails and the longer-grid SVD decides: the estimate is
    # flagged unstable, exactly as on the SVD-only path
    cfg = OracleConfig(rank_tol=1e-3, stability=True)
    svd = np.linalg.svd
    runs = []

    def counting_svd(m, *args, **kwargs):
        runs.append(m.shape)
        return svd(m, *args, **kwargs)

    def estimates():
        out = []
        for fine_factors in ((0.5, 0.5), (1.5,)):
            fine = _synthetic_op(fine_factors, complex_, cfg.rank_tol, seed=1)
            op = _synthetic_op((0.5,), complex_, cfg.rank_tol, longer=fine)
            a = fine.matrix[:, oracle._interior_columns(fine)]
            cut = cfg.rank_tol * norm_est(fine.matrix)
            assert not oracle._cholesky_certifies(a, cut, 1)
            for with_basis in (False, True):
                runs.clear()
                est = kernel_estimate(op, cfg, with_basis=with_basis)
                assert len(runs) == 2
                out.append((est.dim, est.stable))
        return out

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    certified = estimates()
    assert certified == [(1, False)] * 4
    monkeypatch.setattr(oracle, "_cholesky_certifies", lambda *args: False)
    assert estimates() == certified


#: (d, factors of gap): the d null values at 0.5 cut, the (d+1)-th at
#: 0.5 or 2 gap, gap = GAP_TAU * norm_est
GAP_CASES = [(d, f) for d in (0, 1, 2) for f in (0.5, 2.0)]


@pytest.mark.parametrize("complex_", [False, True])
def test_gap_certificate(complex_, monkeypatch):
    cfg = OracleConfig(stability=True)
    ratio = oracle.GAP_TAU / cfg.rank_tol       # gap / cut
    results = {}
    for d, f in GAP_CASES:
        op = _synthetic_op((0.5,) * d + (f * ratio,), complex_, cfg.rank_tol)
        a = op.matrix[:, oracle._interior_columns(op)]
        scale = norm_est(op.matrix)
        cut, gap = cfg.rank_tol * scale, oracle.GAP_TAU * scale
        s = np.linalg.svd(a, compute_uv=False)
        assert np.count_nonzero(s < cut) == d
        in_gap = np.count_nonzero((s >= cut) & (s < gap))
        assert in_gap == (f < 1)
        # the certificate passes exactly where the SVD shows no value in
        # [cut, gap); without the gap it proves the count alone
        assert oracle._cholesky_certifies(a, cut, d, gap=gap) == (in_gap == 0)
        assert oracle._cholesky_certifies(a, cut, d)
        results[d, f] = [kernel_estimate(op, cfg, with_basis=False, hint=hint)
                         for hint in (None, d)]
        decided = "svd" if f < 1 else "certificate"
        assert results[d, f][1].decided_by == (decided, decided)
    monkeypatch.setattr(oracle, "_cholesky_certifies", lambda *args: False)
    for (d, f), estimates in results.items():
        op = _synthetic_op((0.5,) * d + (f * ratio,), complex_, cfg.rank_tol)
        svd_only = kernel_estimate(op, cfg, with_basis=False)
        assert svd_only.decided_by == ("svd", "svd")
        for est in estimates:
            assert (est.dim, est.stable, est.scale) == (
                svd_only.dim, svd_only.stable, svd_only.scale) == (
                d, True, norm_est(op.matrix))


def test_wrong_hint_runs_the_coarse_svd(a_n0, monkeypatch):
    # W(a) + H(a chi) of the shipped catalog: kernel and cokernel 1
    cfg = OracleConfig(stability=True)
    op = wh_plus_hankel(a_n0, a_n0 * chi(), +1, GRID, cfg)
    svd = np.linalg.svd
    runs = []

    def counting_svd(m, *args, **kwargs):
        runs.append(m.shape)
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    for estimate in (kernel_estimate, coker_estimate):
        plain = estimate(op, cfg, with_basis=False)
        assert plain.dim == 1 and len(runs) == 1
        assert plain.decided_by == ("svd", "certificate")
        for hint in (0, 2):
            runs.clear()
            est = estimate(op, cfg, with_basis=False, hint=hint)
            assert len(runs) == 1, hint     # the coarse SVD runs
            assert est == plain, hint
        runs.clear()
        est = estimate(op, cfg, with_basis=False, hint=1)
        assert runs == [] and est.decided_by == ("certificate", "certificate")
        assert (est.dim, est.stable, est.scale) == (1, True, plain.scale)
        assert est.scale == norm_est(op.matrix)
        assert {"scale", "decided_by"} <= set(est.to_dict())


def test_catalog_entries_run_no_rank_svd(monkeypatch):
    # a scalar and a pair entry at catalog settings: every rank decision,
    # on the grid and on the longer grid, ends in a passing certificate
    names = ("scalar_chi_inverse", "pair_chi_shift_nm1")
    entries = [e for e in parse_catalog(shipped_catalog_path().read_text(encoding="utf-8"))
               if e.name in names]
    assert len(entries) == 2
    depth, rank_svds, passed = [0], [], []
    estimate_once, certifies, svd = (
        oracle._estimate_once, oracle._cholesky_certifies, np.linalg.svd)

    def traced_estimate_once(*args, **kwargs):
        depth[0] += 1
        try:
            return estimate_once(*args, **kwargs)
        finally:
            depth[0] -= 1

    def traced_certifies(*args, **kwargs):
        passed.append(certifies(*args, **kwargs))
        return passed[-1]

    def traced_svd(m, *args, **kwargs):
        if depth[0]:
            rank_svds.append(m.shape)
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(oracle, "_estimate_once", traced_estimate_once)
    monkeypatch.setattr(oracle, "_cholesky_certifies", traced_certifies)
    monkeypatch.setattr(np.linalg, "svd", traced_svd)
    results = run_catalog(entries, Grid(T=25.0, h=0.05), OracleConfig(), workers=1)
    assert [r["status"] for r in results] == ["pass", "pass"]
    assert rank_svds == []
    # 1 scalar operator and 2 pair operators, kernel and cokernel, two grids
    assert passed == [True] * 12


def _outer_window(op, cfg):
    n = op.matrix.shape[1] // op.components
    w = round(BOUNDARY_FRAC * n)
    return np.concatenate(
        [np.arange((c + 1) * n - w, (c + 1) * n) for c in range(op.components)]
    )


def test_basis_vectors_vanish_on_outer_window(a_nm1):
    block = block_v_matrix(MatchingPair(a_nm1, a_nm1 * chi()), GRID, CFG)
    cases = [
        (wh_matrix(chi(-1), GRID, CFG), kernel_estimate, 1),
        # the cokernel is the kernel of the adjoint, so rows of W(chi) drop
        (wh_matrix(chi(), GRID, CFG), coker_estimate, 1),
        (block, kernel_estimate, 2),
    ]
    for i, (op, estimate, dim) in enumerate(cases):
        est = estimate(op, CFG)
        assert est.dim == dim, i
        outer = _outer_window(op, CFG)
        for v, resid in zip(est.basis, est.residuals):
            assert np.all(v[outer] == 0), i
            assert abs(np.linalg.norm(v) - 1) < 1e-12
            assert resid < CFG.residual_tol
    # the block kernel vectors live in both components
    n = GRID.n
    for v in est.basis:
        assert min(np.linalg.norm(v[:n]), np.linalg.norm(v[n:])) > 0.1


@pytest.mark.parametrize("h", [0.1, 0.05])
def test_rank_cut_is_relative_to_norm_estimate(h):
    # the smallest singular value of the interior columns lies below
    # rank_tol * norm_est but above rank_tol * sigma_max: a cut relative to
    # sigma_max of the sliced matrix would lose this kernel vector
    grid = Grid(T=25.0, h=h)
    g = chi(-1) * parse_symbol("(t+1i)*(t-2i)/((t-1i)*(t+2i))")
    op = wh_matrix(g, grid, CFG)
    est = kernel_estimate(op, CFG, with_basis=False)
    s = est.singular_values
    assert est.dim == 1
    assert s[-1] < CFG.rank_tol * norm_est(op.matrix)
    assert s[-1] > CFG.rank_tol * s[0]
