"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines as they complete.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from whhankel import (
    Grid,
    MatchingPair,
    OracleConfig,
    Workspace,
    chi,
    coker_estimate,
    constant,
    factorize,
    inverse,
    kernel_estimate,
    matching_factorization,
    one,
    parse_symbol,
    tilde,
    wh_matrix,
    winding_n,
)
from whhankel.catalog import parse_catalog, run_catalog, shipped_catalog_path
from whhankel.classify import subordinated
from whhankel.cli import main as cli_main
from whhankel.kernels import (
    e1_map,
    e2_map,
    projection_image_dims,
)
from whhankel.oracle import block_v_matrix, w0_matrix, wh_plus_hankel

A_N0 = "(t-2i)*(t+1i)/((t+2i)*(t-1i))"
A_NM1 = "(t+2i)/(t-2i)"
A_N1 = "(t-2i)/(t+2i)"


def _report(num, desc, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2} {desc}: {tag}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def ctx():
    grid = Grid(T=25.0, h=0.05)
    cfg = OracleConfig(stability=False)
    return {
        "grid": grid,
        "cfg": cfg,
        "ws": Workspace(grid, cfg),
        "pairs": {
            "chi_shift_n0": MatchingPair(parse_symbol(A_N0), parse_symbol(A_N0) * chi()),
            "chi_shift_nm1": MatchingPair(parse_symbol(A_NM1), parse_symbol(A_NM1) * chi()),
            "chi_inv_shift_n0": MatchingPair(parse_symbol(A_N0), parse_symbol(A_N0) * chi(-1)),
            "chi_inv_shift_n1": MatchingPair(parse_symbol(A_N1), parse_symbol(A_N1) * chi(-1)),
            "hankel_n0": MatchingPair(one(), parse_symbol(A_N0)),
            "hankel_chi": MatchingPair(one(), chi()),
        },
    }


@pytest.fixture(scope="module")
def catalog_results():
    entries = parse_catalog(shipped_catalog_path().read_text(encoding="utf-8"))
    grid = Grid(T=25.0, h=0.05)
    cfg = OracleConfig(stability=True)
    t0 = time.time()
    results = run_catalog(entries, grid, cfg, workers=4)
    return {"results": results, "elapsed": time.time() - t0}


def test_criterion_01_scalar_kernel_reproduction():
    t0 = time.time()
    grid = Grid(T=25.0, h=0.025)
    cfg = OracleConfig(stability=False)
    est = kernel_estimate(wh_matrix(chi(-1), grid, cfg), cfg)
    ok = est.dim == 1
    detail = f"dim ker W(chi^-1) = {est.dim}"
    t = grid.half_nodes()
    ref = np.exp(-t)
    ref /= np.linalg.norm(ref)
    err = np.sqrt(max(0.0, 2.0 - 2.0 * abs(np.vdot(ref, est.basis[0]))))
    ok = ok and err < 1e-3
    detail += f", rel L2 error vs e^-t = {err:.2e}"
    ker_chi = kernel_estimate(wh_matrix(chi(), grid, cfg), cfg).dim
    cok_chi = coker_estimate(wh_matrix(chi(), grid, cfg), cfg).dim
    ok = ok and ker_chi == 0 and cok_chi == 1
    detail += f", W(chi) ker/coker = {ker_chi}/{cok_chi}"
    elapsed = time.time() - t0
    ok = ok and elapsed <= 30.0
    detail += f", {elapsed:.1f}s"
    _report(1, "scalar kernel reproduction at T=25, h=0.025", ok, detail)


def test_criterion_02_flip_involution_on_kernels(ctx):
    ws = ctx["ws"]
    cfg = ctx["cfg"]
    # distinct symbols only; chi^-2 adds a kernel vector of its own
    matching_syms = {chi(), chi(-1), chi(-2)}
    for pair in ctx["pairs"].values():
        sub = subordinated(pair)
        matching_syms.add(sub.c)
        matching_syms.add(sub.d)
    worst = 0.0
    tested = 0
    for g in matching_syms:
        est = kernel_estimate(wh_matrix(g, ws.grid, cfg), cfg)
        for f in est.basis:
            once = ws.flip_apply(g, f)
            twice = ws.flip_apply(g, once)
            worst = max(worst, np.linalg.norm(twice - f) / np.linalg.norm(f))
            tested += 1
    _report(
        2,
        "flip involution on every measured kernel vector",
        tested >= 3 and worst <= 1e-6,
        f"{tested} vectors, worst residual {worst:.2e}",
    )


def test_criterion_03_transport_maps(ctx):
    ws = ctx["ws"]
    cfg = ctx["cfg"]
    n = ws.grid.n
    worst_rt = 0.0
    worst_img = 0.0
    tested = 0
    for name in ("chi_shift_n0", "chi_shift_nm1", "hankel_chi"):
        pair = ctx["pairs"][name]
        block = block_v_matrix(pair, ws.grid, cfg)
        best = kernel_estimate(block, cfg)
        wp = ws.wh(pair.a) + ws.hank(pair.b)
        wm = ws.wh(pair.a) - ws.hank(pair.b)
        for vec in best.basis:
            phi, psi = ws.gf(vec[:n]), ws.gf(vec[n:])
            big_phi, big_psi = e1_map(pair, phi, psi, ws)
            worst_img = max(
                worst_img,
                np.linalg.norm(wp @ big_phi.values),
                np.linalg.norm(wm @ big_psi.values),
            )
            b1, b2 = e2_map(pair, big_phi, big_psi, ws)
            worst_rt = max(
                worst_rt,
                np.linalg.norm(np.concatenate([b1.values, b2.values]) - vec),
            )
            tested += 1
        # opposite direction on the measured one-sided kernels
        for sign, mat in ((+1, wp), (-1, wm)):
            op = wh_plus_hankel(pair.a, pair.b, sign, ws.grid, cfg)
            est = kernel_estimate(op, cfg)
            for vec in est.basis:
                big_phi = ws.gf(vec if sign > 0 else np.zeros(n))
                big_psi = ws.gf(np.zeros(n) if sign > 0 else vec)
                y1, y2 = e2_map(pair, big_phi, big_psi, ws)
                q1, q2 = e1_map(pair, y1, y2, ws)
                worst_rt = max(
                    worst_rt,
                    np.linalg.norm(q1.values - big_phi.values),
                    np.linalg.norm(q2.values - big_psi.values),
                )
                tested += 1
    _report(
        3,
        "kernel transport is mutually inverse with in-kernel images",
        tested >= 4 and worst_rt <= 1e-6 and worst_img <= 1e-5,
        f"{tested} vectors, round-trip {worst_rt:.2e}, image residual {worst_img:.2e}",
    )


def test_criterion_04_matching_factor_structure():
    symbols = [
        chi(),
        chi(-1),
        parse_symbol(A_N0),
        parse_symbol(A_NM1),
        parse_symbol("-(t-3i)/(t+3i)"),
        parse_symbol("chi^2"),
        constant(-1.0),
    ]
    t = np.linspace(-40.0, 40.0, 200)
    worst = 0.0
    for g in symbols:
        gp, n, sign = matching_factorization(g)
        assert sign in (-1, 1)
        f = factorize(g)
        predicted = inverse(tilde(gp)) * sign
        worst = max(worst, float(np.max(np.abs(f.g_minus.eval(t) - predicted.eval(t)))))
    _report(
        4,
        f"matching minus-factor identity on {len(symbols)} symbols",
        worst <= 1e-10,
        f"worst pointwise deviation {worst:.2e}",
    )


def test_criterion_05_factorization_reconstruction():
    symbols = [
        chi(),
        chi(-2),
        parse_symbol(A_N0),
        parse_symbol(A_NM1),
        parse_symbol(A_N1),
        parse_symbol("(t-2i)/(t+3i)"),
        constant(2.0) + chi(),
        parse_symbol("e(1.5)*((t-2i)/(t+3i))"),
    ]
    worst = 0.0
    ok = True
    for g in symbols:
        f = factorize(g)
        worst = max(worst, f.residual())
        if abs(f.nu) < 1e-9:
            ok = ok and f.n == winding_n(g)
    m1 = parse_symbol("(t-2i)*(t+1i)/((t+2i)*(t-1i))")
    m2 = parse_symbol("(t+1i)*(t-2i)/((t-1i)*(t+2i))")
    ok = ok and factorize(m1) == factorize(m2) and factorize(m1) == factorize(m1)
    _report(
        5,
        "factorization reconstructs, matches winding, repeats bit-identically",
        ok and worst <= 1e-10,
        f"worst reconstruction {worst:.2e}",
    )


def test_criterion_06_case_catalog_end_to_end(catalog_results):
    results = catalog_results["results"]
    elapsed = catalog_results["elapsed"]
    bad = [r["name"] for r in results if r["status"] != "pass"]
    unstable = [
        r["name"]
        for r in results
        for v in r.get("verdicts", [])
        if not v["stable"]
    ]
    ok = not bad and not unstable and elapsed <= 300.0
    _report(
        6,
        "full case catalog vs stable oracle estimates",
        ok,
        f"{len(results)} entries, failures {bad}, unstable {unstable}, {elapsed:.0f}s",
    )


#: status, report and verdict rows of every shipped entry at T=25, h=0.05 with
#: stability on; any change to them is a change of the catalog's results
GOLDEN_VERDICTS = Path(__file__).parent / "data" / "shipped_catalog_verdicts.json"


def _match_golden(results, fields):
    golden = json.loads(GOLDEN_VERDICTS.read_text(encoding="utf-8"))
    got = json.loads(json.dumps([{k: r[k] for k in fields if k in r} for r in results]))
    assert [r["name"] for r in got] == [r["name"] for r in golden]
    for mine, want in zip(got, golden):
        assert mine == want, mine["name"]


def test_catalog_verdicts_match_golden_file(catalog_results):
    _match_golden(catalog_results["results"],
                  ("name", "status", "report", "verdicts", "error", "message"))


def test_catalog_verdicts_hold_at_twice_the_h():
    # the stability re-run varies only T, so the h range is checked here:
    # at h = 0.1 every entry gives the golden status, report and verdicts
    entries = parse_catalog(shipped_catalog_path().read_text(encoding="utf-8"))
    results = run_catalog(entries, Grid(T=25.0, h=0.1), OracleConfig(stability=True),
                          workers=1)
    _match_golden(results, ("name", "status", "report", "verdicts"))


def test_catalog_output_independent_of_worker_count():
    entries = parse_catalog(shipped_catalog_path().read_text(encoding="utf-8"))
    grid = Grid(T=10.0, h=0.1)
    cfg = OracleConfig(stability=True)
    assert run_catalog(entries, grid, cfg, workers=1) == run_catalog(
        entries, grid, cfg, workers=2
    )
    # three workers on two cores share the BLAS threads unevenly
    assert run_catalog(entries, grid, cfg, workers=3) == run_catalog(
        entries, grid, cfg, workers=1
    )


def test_criterion_07_index_identity(catalog_results):
    rows = []
    for r in catalog_results["results"]:
        for v in r.get("verdicts", []):
            if v["cell"] == "index-identity":
                rows.append((r["name"], v))
    ok = len(rows) >= 5 and all(v["verdict"] == "pass" for _, v in rows)
    _report(
        7,
        "index identity ind(+) + ind(-) = ind W(c) + ind W(d) as measured integers",
        ok,
        f"{len(rows)} Fredholm instances",
    )


def test_criterion_08_kernel_dimension_bookkeeping(ctx):
    ws = ctx["ws"]
    cfg = ctx["cfg"]
    checked = 0
    ok = True
    detail = []
    for name in ("chi_shift_n0", "chi_shift_nm1", "hankel_n0", "hankel_chi"):
        pair = ctx["pairs"][name]
        sub = subordinated(pair)
        if sub.n_c is None or sub.n_c > 0:
            continue  # bookkeeping needs a right-invertible W(c)
        kc = kernel_estimate(wh_matrix(sub.c, ws.grid, cfg), cfg)
        kd = kernel_estimate(wh_matrix(sub.d, ws.grid, cfg), cfg)
        c_plus, c_minus = projection_image_dims(sub.c, [ws.gf(v) for v in kc.basis], ws)
        d_plus, d_minus = projection_image_dims(sub.d, [ws.gf(v) for v in kd.basis], ws)
        ker_plus = kernel_estimate(
            wh_plus_hankel(pair.a, pair.b, +1, ws.grid, cfg), cfg
        ).dim
        ker_minus = kernel_estimate(
            wh_plus_hankel(pair.a, pair.b, -1, ws.grid, cfg), cfg
        ).dim
        good = ker_plus == d_plus + c_minus and ker_minus == d_minus + c_plus
        ok = ok and good
        checked += 1
        detail.append(f"{name}: {ker_plus}={d_plus}+{c_minus}, {ker_minus}={d_minus}+{c_plus}")
    _report(
        8,
        "kernel dimensions split through the sign projections",
        ok and checked >= 3,
        "; ".join(detail),
    )


def _random_symbol(rng, grid, allow_shift=True):
    terms = [(0.0, complex(rng.normal(1.5, 0.5), rng.normal(0, 0.3)))]
    if allow_shift and rng.random() < 0.5:
        k = int(rng.integers(-20, 21))
        terms.append((k * grid.h, 0.4 * complex(rng.normal(), rng.normal())))
    l0 = []
    for _ in range(int(rng.integers(1, 3))):
        npoles = int(rng.integers(1, 3))
        poles = [
            complex(rng.uniform(-2, 2), rng.uniform(1.0, 3.0) * rng.choice([-1, 1]))
            for _ in range(npoles)
        ]
        num = [complex(rng.normal(), rng.normal()) for _ in range(npoles)]
        shift = 0.0
        if allow_shift and rng.random() < 0.3:
            shift = int(rng.integers(-10, 11)) * grid.h
        l0.append((shift, num, [(p, 1) for p in poles]))
    from whhankel import make_symbol

    return make_symbol(terms, l0)


def test_criterion_09_algebraic_identity_suite():
    rng = np.random.default_rng(2026)
    grid = Grid(T=25.0, h=0.1)
    cfg = OracleConfig(stability=False)
    t = grid.half_nodes()
    v = np.exp(-0.5 * ((t - 5.0) / 1.0) ** 2) * np.exp(1j * t)
    v[t > 12.5] = 0.0
    full = grid.full_nodes()
    vf = np.exp(-0.5 * ((full) / 1.5) ** 2) * np.exp(0.6j * full)
    vf[np.abs(full) > 12.5] = 0.0
    worst_prod = 0.0
    worst_flip = 0.0
    from whhankel.oracle import hankel_matrix

    for _ in range(50):
        a = _random_symbol(rng, grid)
        b = _random_symbol(rng, grid)
        ab = a * b
        scale = np.linalg.norm(v) * (1.0 + a.norm_estimate() * b.norm_estimate())
        wa = wh_matrix(a, grid, cfg).matrix
        wb = wh_matrix(b, grid, cfg).matrix
        ha = hankel_matrix(a, grid, cfg).matrix
        hb = hankel_matrix(b, grid, cfg).matrix
        hbt = hankel_matrix(tilde(b), grid, cfg).matrix
        wbt = wh_matrix(tilde(b), grid, cfg).matrix
        r1 = wh_matrix(ab, grid, cfg).matrix @ v - wa @ (wb @ v) - ha @ (hbt @ v)
        r2 = hankel_matrix(ab, grid, cfg).matrix @ v - wa @ (hb @ v) - ha @ (wbt @ v)
        worst_prod = max(worst_prod, np.linalg.norm(r1) / scale, np.linalg.norm(r2) / scale)
        w0 = w0_matrix(a, grid).matrix
        w0t = w0_matrix(tilde(a), grid).matrix
        fscale = np.linalg.norm(vf) * (1.0 + a.norm_estimate())
        r3 = (w0 @ vf[::-1])[::-1] - w0t @ vf
        worst_flip = max(worst_flip, np.linalg.norm(r3) / fscale)
        # J^2 = I and JQ = PJ exactly
        q = vf.copy(); q[grid.n:] = 0.0
        pj = vf[::-1].copy(); pj[: grid.n] = 0.0
        assert np.array_equal(vf[::-1][::-1], vf)
        assert np.array_equal(q[::-1], pj)
    _report(
        9,
        "flip and product identities for 50 random symbol pairs",
        worst_prod <= 1e-5 and worst_flip <= 1e-5,
        f"worst product {worst_prod:.2e}, worst flip {worst_flip:.2e}",
    )


def test_criterion_10_negative_controls(capsys):
    rc_catalog = cli_main(["catalog", "negative-controls", "--h", "0.1", "--no-stability"])
    out = capsys.readouterr().out
    controls_ok = (
        rc_catalog == 7
        and "NotMatching" in out
        and "expected 2, classified 1" in out
    )
    rc_nm = cli_main(["verify", "chi", "2*chi", "--h", "0.1", "--no-stability"])
    err = capsys.readouterr().err
    nm_ok = rc_nm == 5 and "NotMatching" in err
    rc_pole = cli_main(["parse", "(t-1)/(t+1)"])
    capsys.readouterr()
    _report(
        10,
        "negative controls reject with typed errors and nonzero exits",
        controls_ok and nm_ok and rc_pole == 3,
        f"catalog exit {rc_catalog}, verify exit {rc_nm}, parse exit {rc_pole}",
    )
