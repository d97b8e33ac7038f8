import dataclasses
import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest

from whhankel import (
    MatchingPair,
    adjoint_pair,
    chi,
    classify,
    conj,
    constant,
    exp_symbol,
    inverse,
    one,
    parse_symbol,
    scalar_wh_classify,
    subordinated,
    tilde,
    v_symbol,
)
from whhankel import Grid, OracleConfig, oracle, symbols
from whhankel.kernels import kappa_for_pair
from whhankel.catalog import parse_catalog, shipped_catalog_path
from whhankel.classify import Dim, _chi_reduced
from whhankel.errors import (
    NotInvertible,
    NotMatching,
    NotRepresentable,
    OutOfScope,
    WindingUnresolved,
)


def _dims(report):
    return (
        report.plus.ker.describe(),
        report.plus.coker.describe(),
        report.minus.ker.describe(),
        report.minus.coker.describe(),
    )


# --- pairs and subordination ---------------------------------------------------

def test_double_real_zero_is_not_semi_fredholm():
    # a has a double zero at t = 0.3; the gate must refuse it rather than
    # split the scattered root pair into a winding number
    a = constant(np.exp(1j * np.pi / 5)) * parse_symbol("((t-0.3)/(t+0.7i))^2")
    with pytest.raises(NotInvertible):
        classify(MatchingPair(a, a))


def test_sign_flip_pair_cancels_to_constant():
    # c = b~ a~^(-1) = -1 exactly: every pole of the double factors cancels
    a = parse_symbol("((t+0.58+2.65i)/(t+0.57+2.85i))^2")
    sub = subordinated(MatchingPair(a, -a))
    assert sub.c.l0 == ()
    assert sub.c.isclose(constant(-1.0))


@pytest.mark.parametrize("m", [4, 5])
@pytest.mark.parametrize(
    "family, k", [("({a})*chi", 1), ("({a})*chi^-1", -1), ("{a}", 0), ("-({a})", 0)]
)
def test_high_multiplicity_pairs_classify(m, family, k):
    # c and d cancel the m-fold zeros and poles of a exactly; found as roots
    # and cancelled numerically, they left c and d short of matching
    a = f"((t-2i)/(t+1i))^{m}"
    pair = MatchingPair(parse_symbol(a), parse_symbol(family.format(a=a)))
    sub = classify(pair).subordinated
    assert (sub["n_c"], sub["n_d"]) == (-k, 2 * m + k)


@pytest.mark.parametrize(
    "a, u, n_c, n_d",
    [
        # 2- and 3-fold zeros 0.05 apart
        ("((t+1.47-1.98i)/(t-1.1+1.54i))^2*((t+1.42-2i)/(t+1.3-0.82i))^3",
         "((t-0.49+1.91i)/(t+0.49-1.91i))*((t-0.4-0.96i)/(t+0.4+0.96i))", 0, 4),
        # 3- and 2-fold zeros 0.3 apart
        ("((t-0.81-1.95i)/(t-0.27-0.8i))^3*((t-0.54-1.82i)/(t+0.64-1.46i))^2",
         "(t+0.86+2.57i)/(t-0.86-2.57i)", 1, -1),
    ],
)
def test_clustered_general_pairs_classify(a, u, n_c, n_d):
    # b = a u with u u~ = 1 matches by construction
    pair = MatchingPair(parse_symbol(a), parse_symbol(f"({a})*{u}"))
    report = classify(pair)
    assert (report.subordinated["n_c"], report.subordinated["n_d"]) == (n_c, n_d)
    assert report.index_check["rhs"] == -(n_c + n_d)


def test_classify_of_products_finds_no_roots(monkeypatch):
    # every symbol of a sweep pair is a product, so its zeros are carried:
    # parse, subordination and indices
    from whhankel import poly

    def no_roots(c):
        raise AssertionError("root finding for a product")

    monkeypatch.setattr(poly, "proots", no_roots)
    for row in json.loads(SWEEP_REPORTS.read_text(encoding="utf-8")):
        pair = MatchingPair(parse_symbol(row["a"]), parse_symbol(row["b"]))
        got = json.dumps(classify(pair).to_dict(), sort_keys=True)
        assert got == json.dumps(row["report"], sort_keys=True), row["a"]


def test_matching_pair_validation():
    MatchingPair(chi(), chi(-1))  # |chi| = 1 on the line: both sides give 1
    with pytest.raises(NotMatching):
        MatchingPair(chi(), constant(2.0) * chi())


def test_subordinated_of_chi_shift(a_n0):
    pair = MatchingPair(a_n0, a_n0 * chi())
    sub = subordinated(pair)
    assert sub.c.isclose(chi(-1))
    assert sub.d.isclose(a_n0 * a_n0 * chi(), 1e-9)
    assert (sub.c * tilde(sub.c)).isclose(one(), 1e-9)
    assert (sub.d * tilde(sub.d)).isclose(one(), 1e-9)
    assert (sub.n_c, sub.n_d) == (-1, 1)
    assert (sub.xi_c, sub.xi_d) == (1, 1)


def test_subordinated_of_identity_pair(a_n0):
    sub = subordinated(MatchingPair(one(), a_n0))
    assert sub.c.isclose(tilde(a_n0), 1e-9)
    assert sub.d.isclose(a_n0, 1e-9)


def test_subordinated_of_equal_pair(a_n0):
    sub = subordinated(MatchingPair(a_n0, a_n0))
    assert sub.c.isclose(one(), 1e-9)
    assert sub.d.isclose(inverse(tilde(a_n0)) * a_n0, 1e-9)
    assert sub.at_inv.isclose(inverse(tilde(a_n0)), 1e-9)


def test_v_symbol_entries(a_n0):
    v = v_symbol(MatchingPair(one(), constant(-1.0)))
    assert v[0][0].is_zero()
    assert v[0][1].isclose(constant(-1.0))
    assert v[1][0].isclose(one())          # -c with c = -1
    assert v[1][1].isclose(one())
    v2 = v_symbol(MatchingPair(one(), chi()))
    assert v2[0][1].isclose(chi()) and v2[1][0].isclose(-chi(-1))
    v3 = v_symbol(MatchingPair(a_n0, a_n0 * chi()))
    assert v3[0][1].isclose(a_n0 * a_n0 * chi(), 1e-9)
    assert v3[1][0].isclose(-chi(-1), 1e-9)
    assert v3[1][1].isclose(inverse(tilde(a_n0)), 1e-9)


def test_v_symbol_general_corner(a_n0):
    # matching pairs collapse the general corner a - b b~ a~^(-1) to zero
    a, b = a_n0, a_n0 * chi()
    corner = a - b * tilde(b) * subordinated(MatchingPair(a, b)).at_inv
    assert corner.isclose(parse_symbol("0"), 1e-9)


def test_adjoint_pair_subordination(a_n0):
    pair = MatchingPair(a_n0, a_n0 * chi())
    sub = subordinated(pair)
    adj = adjoint_pair(pair)
    sub_adj = subordinated(adj)
    assert sub_adj.c.isclose(conj(sub.d), 1e-9)
    assert sub_adj.d.isclose(conj(sub.c), 1e-9)


# --- scalar classification ---------------------------------------------------------

def test_scalar_branches(a_n0):
    r = scalar_wh_classify(chi(-1))
    assert (r.ker.describe(), r.coker.describe(), r.status) == ("1", "0", "right-invertible")
    r = scalar_wh_classify(chi())
    assert (r.ker.describe(), r.coker.describe(), r.status) == ("0", "1", "left-invertible")
    r = scalar_wh_classify(exp_symbol(2.0))
    assert (r.ker.describe(), r.coker.describe(), r.status) == ("0", "inf", "left-invertible")
    r = scalar_wh_classify(exp_symbol(-2.0))
    assert (r.ker.describe(), r.coker.describe(), r.status) == ("inf", "0", "right-invertible")
    r = scalar_wh_classify(a_n0)
    assert r.status == "invertible"
    r = scalar_wh_classify(exp_symbol(1.0) + exp_symbol(-1.0))
    assert r.status == "not-semi-fredholm"


# --- the decision tree ----------------------------------------------------------------

def test_family_chi_shift_n0(a_n0):
    r = classify(MatchingPair(a_n0, a_n0 * chi()))
    assert _dims(r) == ("1", "1", "0", "0")
    assert r.minus.status == "invertible"
    assert r.plus.status == "fredholm(index=0)"
    assert r.index_check["consistent"] is True
    assert "family:b=a*chi" in r.plus.certificate


def test_family_chi_shift_nm1(a_nm1):
    r = classify(MatchingPair(a_nm1, a_nm1 * chi()))
    assert _dims(r) == ("1", "0", "1", "0")
    assert r.plus.status == "right-invertible"


def test_family_chi_inv_shift_n0_without_tester(a_n0):
    r = classify(MatchingPair(a_n0, a_n0 * chi(-1)))
    assert (r.plus.ker.describe(), r.plus.coker.describe()) == ("0", "0")
    assert r.minus.ker.kind == "unknown"
    assert "image-membership(unresolved)" in r.minus.certificate


def test_family_chi_inv_shift_n1(a_n1):
    r = classify(MatchingPair(a_n1, a_n1 * chi(-1)))
    assert _dims(r) == ("0", "1", "0", "1")
    assert r.plus.status == "left-invertible"


def test_identity_plus_hankel_invertible(a_n0):
    r = classify(MatchingPair(one(), a_n0))
    assert _dims(r) == ("0", "0", "0", "0")


def test_identity_plus_hankel_chi():
    r = classify(MatchingPair(one(), chi()))
    assert _dims(r) == ("1", "1", "0", "0")


def test_equal_pair_and_sign_flip(a_n0):
    r1 = classify(MatchingPair(a_n0, a_n0))
    assert _dims(r1) == ("0", "0", "0", "0")
    r2 = classify(MatchingPair(a_n0, -a_n0))
    # b -> -b swaps the two sign reports verbatim
    assert r2.plus.ker == r1.minus.ker and r2.minus.ker == r1.plus.ker


def test_sign_flip_property(a_nm1):
    base = classify(MatchingPair(a_nm1, a_nm1 * chi()))
    flip = classify(MatchingPair(a_nm1, -(a_nm1 * chi())))
    assert flip.plus.ker == base.minus.ker
    assert flip.plus.coker == base.minus.coker
    assert flip.minus.ker == base.plus.ker


#: c = b~ a~^(-1) of each family tag
FAMILY_C = {"b=a*chi": chi(-1), "b=a*chi^-1": chi(1), "b=a": one(), "b=-a": constant(-1.0)}


def _certificates_name_their_pair(report, sub):
    for side in (report.plus, report.minus):
        for rule in side.certificate.split(";"):
            if rule.startswith("family:"):
                assert sub.c.isclose(FAMILY_C[rule[len("family:"):]], 1e-10), rule
        for xi_d in re.findall(r"xi_d=(-?\w+)", side.certificate):
            assert xi_d == str(sub.xi_d), side.certificate


def test_b_to_minus_b_swaps_the_reports_and_certificates_name_their_pair(
    sweep_pairs, general_pairs
):
    # W(a) +- H(-b) = W(a) -+ H(b): (a, -b) gets the reports of (a, b) with
    # the sides swapped, each classified on its own subordinated pair, so a
    # family tag names that pair's c and xi_d= its own xi(d)
    text = shipped_catalog_path().read_text(encoding="utf-8")
    catalog = [(e.a_expr, e.b_expr) for e in parse_catalog(text) if e.b_expr]
    for a_expr, b_expr in [*sweep_pairs, *general_pairs, *catalog]:
        a, b = parse_symbol(a_expr), parse_symbol(b_expr)
        pairs = (MatchingPair(a, b), MatchingPair(a, -b))
        try:
            r = classify(pairs[0], kappa_tester=kappa_for_pair)
        except OutOfScope:
            with pytest.raises(OutOfScope):
                classify(pairs[1], kappa_tester=kappa_for_pair)
            continue
        flip = classify(pairs[1], kappa_tester=kappa_for_pair)
        for mine, theirs in ((flip.plus, r.minus), (flip.minus, r.plus)):
            assert (mine.ker, mine.coker, mine.status) == (
                theirs.ker, theirs.coker, theirs.status), a_expr
        assert flip.index_check == r.index_check, a_expr
        for pair, report in zip(pairs, (r, flip)):
            _certificates_name_their_pair(report, subordinated(pair))


def test_adjoint_duality_swaps_dims(a_n0, a_n1):
    for pair in (
        MatchingPair(a_n0, a_n0 * chi()),
        MatchingPair(a_n1, a_n1 * chi(-1)),
        MatchingPair(one(), a_n0),
    ):
        r = classify(pair)
        radj = classify(adjoint_pair(pair))
        for side in ("plus", "minus"):
            sr = getattr(r, side)
            sadj = getattr(radj, side)
            if sr.ker.kind == sr.coker.kind == "exact" and \
               sadj.ker.kind == sadj.coker.kind == "exact":
                assert (sadj.ker.value, sadj.coker.value) == (
                    sr.coker.value,
                    sr.ker.value,
                )


def test_out_of_scope_guards(a_n0):
    # b = a chi^-2 gives c = chi^2; n(c) <= -2 is in scope (below)
    with pytest.raises(OutOfScope, match=r"^n\(c\) = 2 > 1 is outside the classified scope$"):
        classify(MatchingPair(a_n0, a_n0 * chi(-2)))
    with pytest.raises(OutOfScope):
        classify(MatchingPair(exp_symbol(1.0), one()))  # nu(c) != 0


def test_scope_message_for_unresolved_winding(a_n0, monkeypatch):
    def unresolved(g):
        raise WindingUnresolved("test")

    monkeypatch.setattr(symbols, "winding_n", unresolved)
    with pytest.raises(OutOfScope, match=r"^n\(c\) is unresolved"):
        classify(MatchingPair(a_n0, a_n0 * chi()))


# the three cases below pin classifier branches that Tier-1 reaches nowhere
# else; the classify-sweep benchmark pairs take each of them

def test_kernel_split_of_a_four_dimensional_ker_w_d():
    # n(d) = -4: the split lemma halves ker W(d) between the two signs
    a = parse_symbol("((t+0.73+2.6i)/(t-0.52-0.71i))^2")
    r = classify(MatchingPair(a, a))
    assert _dims(r) == ("2", "0", "2", "0")
    cert = "family:b=a;kernel-decomposition(n_c=0, n_d=-4, xi_d=1);cokernel-collapse"
    assert (r.plus.certificate, r.minus.certificate) == (cert, cert)
    assert r.index_check == {"lhs": 4, "rhs": 4, "consistent": True}


def test_chi_reduction_with_both_sides_unresolved():
    a = parse_symbol(
        "((t-1.38-0.8i)/(t-0.3-1.52i))^3*((t+1.15+1.24i)/(t+0.76-2.37i))^3"
    )
    r = classify(MatchingPair(a, a * chi(-1)))
    assert _dims(r) == ("?", "0", "?", "?")
    assert r.plus.certificate == (
        "family:b=a*chi^-1;chi-reduction(kernel-split-unresolved);"
        "cokernel-collapse(chi-reduction)"
    )
    assert r.minus.certificate == "family:b=a*chi^-1;chi-reduction(kernel-split-unresolved)"
    assert r.index_check == {"lhs": None, "rhs": 6, "consistent": None}


def test_cokernels_where_the_adjoint_pair_has_n_c_minus_3():
    # n(c) = 1, n(d) = 3: the adjoint pair's n(c) is -3, so the cokernels
    # split coker W(c) (dim 1) and coker W(d) (dim 3) by the lemma
    a = parse_symbol("((t-1.36-2.72i)/(t+1.09+1.88i))^2*((t+1.19-0.6i)/(t+1.28-2.67i))")
    r = classify(MatchingPair(a, a * chi(-1)))
    assert _dims(r) == ("0", "2", "0", "2")
    cert = ("family:b=a*chi^-1;chi-reduction;kernel-trivial;"
            "cokernel-decomposition(n_c=1, n_d=3, xi_d=1)")
    assert (r.plus.certificate, r.minus.certificate) == (cert, cert)
    assert r.index_check == {"lhs": -4, "rhs": -4, "consistent": True}


@pytest.mark.parametrize(
    "a, dims",
    [
        # n(d) = -2: ker W(d) and ker W(c) each split 1 + 1
        ("((t+2i)/(t-2i))^2", ("2", "0", "2", "0")),
        # n(d) = 4: coker W(d) splits 2 + 2, and W(c) has no cokernel
        ("(t-2i)/(t+2i)", ("1", "2", "1", "2")),
    ],
)
def test_n_c_minus_2_passes_the_dense_check(a, dims):
    # b = a chi^2 gives c = chi^-2, outside the scope before the split lemma
    a = parse_symbol(a)
    pair = MatchingPair(a, a * chi(2))
    r = classify(pair)
    assert (r.subordinated["n_c"], _dims(r)) == (-2, dims)
    table = oracle.verify(r, pair, Grid(T=50.0, h=0.1), OracleConfig(stability=True))
    stable = [row.verdict for row in table.rows if row.stable]
    assert stable and stable == ["pass"] * len(stable)


def test_sweep_index_identity_holds(sweep_pairs):
    # the classify-sweep benchmark's judge: no pair raises, and an index
    # check that reads False fails the item; with the split lemma every
    # kernel with n(c) <= 0 and every cokernel with n(d) >= 0 is exact
    for a_expr, b_expr in sweep_pairs:
        r = classify(MatchingPair(parse_symbol(a_expr), parse_symbol(b_expr)),
                     kappa_tester=kappa_for_pair)
        sub, dims = r.subordinated, _dims(r)
        if sub["n_c"] <= 0:
            assert dims[0].isdigit() and dims[2].isdigit(), a_expr
        if sub["n_d"] >= 0:
            assert dims[1].isdigit() and dims[3].isdigit(), a_expr
        exact = all(cell.isdigit() for cell in dims)
        assert r.index_check["consistent"] is (True if exact else None), a_expr


def test_index_check_fields(a_nm1):
    r = classify(MatchingPair(a_nm1, a_nm1 * chi()))
    assert r.index_check == {"lhs": 2, "rhs": 2, "consistent": True}


def test_report_json_schema(a_n0):
    import json

    r = classify(MatchingPair(a_n0, a_n0 * chi()))
    payload = json.loads(json.dumps(r.to_dict()))
    assert set(payload) == {"plus", "minus", "index_check", "subordinated"}
    for side in ("plus", "minus"):
        assert set(payload[side]) == {"ker", "coker", "status", "certificate"}


def test_dim_arithmetic():
    assert (Dim.exact(1) + Dim.exact(2)).describe() == "3"
    assert (Dim.exact(1) + Dim.unknown()).describe() == ">=1"
    assert (Dim.unknown() + Dim.unknown()).describe() == "?"
    assert (Dim.infinite() + Dim.exact(4)).describe() == "inf"
    assert Dim.at_least(0).describe() == "?"


SWEEP_REPORTS = Path(__file__).parent / "data" / "sweep_reports.json"


def test_sweep_reports_match_golden_file():
    # generated matching pairs (the first 25 in perfbench's sweep_pairs(1)
    # order) classified without a kappa tester, compared as canonical JSON
    for row in json.loads(SWEEP_REPORTS.read_text(encoding="utf-8")):
        pair = MatchingPair(parse_symbol(row["a"]), parse_symbol(row["b"]))
        got = json.dumps(classify(pair).to_dict(), sort_keys=True)
        assert got == json.dumps(row["report"], sort_keys=True), row["a"]


def _sweep_pairs():
    for row in json.loads(SWEEP_REPORTS.read_text(encoding="utf-8")):
        yield MatchingPair(parse_symbol(row["a"]), parse_symbol(row["b"]))


def _catalog_pairs(*names):
    text = shipped_catalog_path().read_text(encoding="utf-8")
    entries = {e.name: e for e in parse_catalog(text)}
    for name in names:
        yield MatchingPair(parse_symbol(entries[name].a_expr),
                           parse_symbol(entries[name].b_expr))


def test_derived_subordinated_pairs_match_recomputed_ones():
    # the kappa tester derives the subordinated pair of (a chi^-1, b chi)
    # from that of (a, b) instead of recomputing it; the two catalog entries
    # are those whose classification reaches the tester.  The cokernel
    # formula rests on the adjoint pair's indices being
    # (-n(d), -n(c), xi(d), xi(c)).
    tester_pairs = _catalog_pairs("pair_chi_inv_shift_n0", "hankel_chi_inverse")
    for pair in itertools.chain(_sweep_pairs(), tester_pairs):
        sub = subordinated(pair)
        reduced = MatchingPair(pair.a * chi(-1), pair.b * chi())
        assert _chi_reduced(sub) == subordinated(reduced)
        adj = subordinated(adjoint_pair(pair))
        assert (adj.n_c, adj.n_d, adj.xi_c, adj.xi_d) == (-sub.n_d, -sub.n_c, sub.xi_d, sub.xi_c)


def test_derived_pairs_pass_the_matching_gate(a_n0):
    # a derived pair has no MatchingPair check of its own: the gate on c and
    # d rejects one whose c or d is not matching
    sub = subordinated(MatchingPair(a_n0, a_n0 * chi()))
    for field in ("c", "d"):
        bad = dataclasses.replace(sub, **{field: getattr(sub, field) * constant(2.0)})
        with pytest.raises(NotMatching, match="^subordinated functions"):
            _chi_reduced(bad)


def test_classification_derives_no_coefficients(monkeypatch, sweep_pairs):
    # symbols that carry their zeros are decided on their factor lists: the
    # matching gate, c, d, a~^(-1), matching, winding, xi and the family tag
    # of every sweep and catalog pair read no coefficient
    def no_terms(_g):
        raise AssertionError("classification derived coefficients")

    monkeypatch.setattr(symbols, "_derive", no_terms)
    text = shipped_catalog_path().read_text(encoding="utf-8")
    catalog = [(e.a_expr, e.b_expr) for e in parse_catalog(text) if e.b_expr]
    for a_expr, b_expr in [*sweep_pairs, *catalog]:
        classify(MatchingPair(parse_symbol(a_expr), parse_symbol(b_expr)))
    for row in json.loads(SWEEP_REPORTS.read_text(encoding="utf-8")):
        pair = MatchingPair(parse_symbol(row["a"]), parse_symbol(row["b"]))
        got = json.dumps(classify(pair).to_dict(), sort_keys=True)
        assert got == json.dumps(row["report"], sort_keys=True), row["a"]


def test_high_powers_of_chi_classify_on_their_lists():
    # chi(60) and chi^40 * chi^40 lose their value as coefficients, so
    # reading those raises; the pair (chi^40, chi^40) classifies on its lists
    a = parse_symbol("chi^40")
    for g in (symbols.chi(60), a * a):
        with pytest.raises(NotRepresentable):
            g.eval(1.0)
    report = classify(MatchingPair(a, a))
    assert report.subordinated == {
        "nu_c": 0.0, "nu_d": 0.0, "n_c": 0, "n_d": 80, "xi_c": 1, "xi_d": 1,
    }
    assert (report.plus.coker, report.minus.coker) == (Dim.exact(40), Dim.exact(40))
