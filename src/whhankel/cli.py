"""Command-line front end.

Subcommands: parse | factorize | classify | verify | kernel-basis | catalog.
Grid and tolerance flags mirror the oracle configuration; classify reads no
grid and takes none.  --json switches machine output (kernel-basis always
writes JSON and takes no --json).  Flags are spelled in full: no command
reads an abbreviation.  Typed failures map to distinct exit codes:

    2  syntax error in a symbol expression
    3  not representable / real pole / improper rational
    4  symbol not invertible
    5  matching condition violated
    6  outside the classified scope (index guards, incommensurate shifts, ...)
    7  verification failure (oracle disagrees or expectations missed)
    8  numerical indeterminacy (inconclusive, unresolved winding/mean motion)
    9  internal structure violation
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import catalog as cat
from . import dsl, factorization, kernels, oracle, symbols
from .classify import MatchingPair, classify as run_classify
from .errors import WhhError

EXIT_VERIFY_FAIL = 7


def _grid_args(p):
    p.add_argument("--T", type=float, default=25.0, help="truncation length")
    p.add_argument("--h", type=float, default=0.05, help="grid step")
    p.add_argument("--rank-tol", type=float, default=1e-8,
                   help="relative singular value cutoff for rank decisions")
    p.add_argument("--no-stability", action="store_true",
                   help="skip the two-grid stability re-run")


def _mk_grid_cfg(args):
    grid = oracle.Grid(T=args.T, h=args.h)
    cfg = oracle.OracleConfig(rank_tol=args.rank_tol, stability=not args.no_stability)
    return grid, cfg


def _emit(args, payload, text):
    _write(args, json.dumps(payload, indent=2) if args.json else text)


def _write(args, out):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out + "\n")
    else:
        print(out)


def cmd_parse(args):
    sym = dsl.parse_symbol(args.expr)
    info = {
        "canonical": dsl.format_symbol(sym),
        "symbol": sym.to_dict(),
        "is_plus": symbols.is_plus(sym),
        "is_minus": symbols.is_minus(sym),
    }
    lines = [f"canonical: {info['canonical']}"]
    try:
        info["nu"] = symbols.nu(sym)
        lines.append(f"nu = {info['nu']:g}")
        if abs(info["nu"]) < 1e-9:
            info["n"] = symbols.winding_n(sym)
            lines.append(f"n  = {info['n']}")
    except WhhError as e:
        info["index_error"] = str(e)
        lines.append(f"indices unavailable: {e}")
    if symbols.is_matching(sym):
        info["matching"] = True
        try:
            info["xi"] = symbols.xi(sym)
            lines.append(f"matching function, xi = {info['xi']:+d}")
        except WhhError as e:
            lines.append(f"matching function, xi unavailable: {e}")
    else:
        info["matching"] = False
    lines.append(f"extends upward (G+): {info['is_plus']}")
    lines.append(f"extends downward (G-): {info['is_minus']}")
    _emit(args, info, "\n".join(lines))
    return 0


def cmd_factorize(args):
    sym = dsl.parse_symbol(args.expr)
    f = factorization.factorize(sym)
    payload = f.to_dict()
    payload["residual"] = f.residual()
    text = "\n".join(
        [
            f"g_minus: {dsl.format_symbol(f.g_minus)}",
            f"nu     : {f.nu:g}",
            f"n      : {f.n}",
            f"g_plus : {dsl.format_symbol(f.g_plus)}",
            f"reconstruction residual: {payload['residual']:.3e}",
        ]
    )
    _emit(args, payload, text)
    return 0


def _classify_pair(args):
    a = dsl.parse_symbol(args.a_expr)
    b = dsl.parse_symbol(args.b_expr)
    pair = MatchingPair(a, b)
    return pair, run_classify(pair, kappa_tester=kernels.kappa_for_pair)


def _report_text(report):
    lines = []
    for side in ("plus", "minus"):
        sr = getattr(report, side)
        lines.append(
            f"{side:>5}: ker {sr.ker.describe():>3}  coker {sr.coker.describe():>3}"
            f"  {sr.status}  [{sr.certificate}]"
        )
    if report.index_check:
        lines.append(f"index check: {report.index_check}")
    return "\n".join(lines)


def cmd_classify(args):
    _, report = _classify_pair(args)
    _emit(args, report.to_dict(), _report_text(report))
    return 0


def cmd_verify(args):
    grid, cfg = _mk_grid_cfg(args)
    pair, report = _classify_pair(args)
    table = oracle.verify(report, pair, grid, cfg)
    payload = {"report": report.to_dict(), "verdicts": [r.to_dict() for r in table.rows]}
    _emit(args, payload, _report_text(report) + "\n" + table.format_text())
    return 0 if table.ok else EXIT_VERIFY_FAIL


def cmd_kernel_basis(args):
    a = dsl.parse_symbol(args.a_expr)
    b = dsl.parse_symbol(args.b_expr)
    grid, cfg = _mk_grid_cfg(args)
    sign = +1 if args.sign == "plus" else -1
    op = oracle.wh_plus_hankel(a, b, sign, grid, cfg)
    est = oracle.kernel_estimate(op, cfg)
    payload = {
        "dim": est.dim,
        "stable": est.stable,
        "basis": [kernels.GridFunction(grid, vec).to_triples() for vec in est.basis],
    }
    # the basis is structured data; always emit JSON
    _write(args, json.dumps(payload, indent=2))
    if args.out:
        print(f"kernel dim {est.dim} (stable: {est.stable}); basis written to {args.out}")
    return 0


#: the bundled catalogs, by the name the catalog command takes
BUNDLED = {"shipped": "catalog.txt", "negative-controls": "negative_controls.txt"}


def cmd_catalog(args):
    path = Path(args.path)
    if args.path in BUNDLED:
        path = cat.shipped_catalog_path(BUNDLED[args.path])
    entries = cat.parse_catalog(path.read_text(encoding="utf-8"))
    grid, cfg = _mk_grid_cfg(args)
    results = cat.run_catalog(entries, grid, cfg, workers=args.workers)
    _emit(args, results, cat.summarize(results))
    ok = all(r["status"] == "pass" for r in results)
    return 0 if ok else EXIT_VERIFY_FAIL


def build_parser():
    p = argparse.ArgumentParser(
        prog="whhankel",
        description=(
            "Half-line convolution plus Hankel operators: symbol algebra, "
            "factorization, kernel classification, numerical verification."
        ),
        epilog=__doc__.split("codes:")[-1],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        allow_abbrev=False,
    )
    # no abbreviations: a flag a command lacks, such as --h, must fail, not
    # read as a prefix of one it has (--help)
    add_parser = functools.partial(
        p.add_subparsers(dest="command", required=True).add_parser, allow_abbrev=False
    )

    sp = add_parser("parse", help="echo canonical form and indices")
    sp.add_argument("expr")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_parse)

    sf = add_parser("factorize", help="Wiener-Hopf factorization")
    sf.add_argument("expr")
    sf.add_argument("--json", action="store_true")
    sf.add_argument("--out")
    sf.set_defaults(func=cmd_factorize)

    sc = add_parser("classify", help="kernel/cokernel prediction for W(a)+-H(b)")
    sc.add_argument("a_expr")
    sc.add_argument("b_expr")
    sc.add_argument("--json", action="store_true")
    sc.add_argument("--out")
    sc.set_defaults(func=cmd_classify)

    sv = add_parser("verify", help="classify, then check against the oracle")
    sv.add_argument("a_expr")
    sv.add_argument("b_expr")
    sv.add_argument("--json", action="store_true")
    sv.add_argument("--out")
    _grid_args(sv)
    sv.set_defaults(func=cmd_verify)

    sk = add_parser("kernel-basis", help="export a numerical kernel basis")
    sk.add_argument("a_expr")
    sk.add_argument("b_expr")
    sk.add_argument("--sign", choices=("plus", "minus"), required=True)
    sk.add_argument("--out")
    _grid_args(sk)
    sk.set_defaults(func=cmd_kernel_basis)

    sl = add_parser(
        "catalog",
        help="classify+verify a catalog file ('shipped' or 'negative-controls' "
        "select the bundled ones)",
    )
    sl.add_argument("path")
    sl.add_argument("--workers", type=int, default=cat.CORES,
                    help="catalog entries run at once, each in its own process "
                    "with an equal share of the cores as BLAS threads "
                    "(default %(default)s: one per core); the output does "
                    "not depend on it")
    sl.add_argument("--json", action="store_true")
    sl.add_argument("--out")
    _grid_args(sl)
    sl.set_defaults(func=cmd_catalog)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except WhhError as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return err.exit_code
    except (ValueError, OSError) as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
