"""Benchmark workloads: inputs made from a seed, one pass over them, checks.

A pass returns one record per item.  ``out`` is the item's output with
timings left out (reports, verdicts, dimensions, error types) and feeds the
output digest; ``error`` names the exception type of an item that raised;
``wrong`` marks an item that answered, but answered wrongly.  An item fails
when it raised or answered wrongly; every error type counts.

Each workload calls the program through module attributes
(``classify.classify``, ``catalog.run_catalog``, ...) so the tracer sees the
calls; the package root rebinds some submodule names to functions, hence the
``importlib`` lookups.
"""

from __future__ import annotations

import importlib
import random
import traceback
from time import perf_counter

GRID_T, GRID_H = 25.0, 0.05          # CLI defaults and catalog acceptance settings
SWEEP_ITEMS = 100                     # >= 100 items, so p90 has 10 samples above it
PAIRS_SEED = 1


def _mod(name):
    return importlib.import_module(f"whhankel.{name}")


def _attempt(fn, judge):
    """Run one item and time it.  ``judge`` maps the item's result to its
    output and the name of what makes it wrong, or None."""
    errors = _mod("errors")
    t0 = perf_counter()
    try:
        result = fn()
    except errors.WhhError as err:
        out, error, wrong = {"error": type(err).__name__}, type(err).__name__, False
    except Exception as err:  # an untyped failure is a finding, not a crash
        traceback.print_exc()
        out, error, wrong = {"error": type(err).__name__}, type(err).__name__, True
    else:
        out, error = judge(result)
        wrong = error is not None
    return {"out": out, "error": error, "wrong": wrong,
            "seconds": perf_counter() - t0}


# --- catalog-acceptance -------------------------------------------------------

class CatalogAcceptance:
    """The shipped catalog through ``catalog.run_catalog``.  The catalog is
    fixed, so the seed does not change the inputs; entries are submitted in
    file order, as ``whhankel catalog shipped`` submits them."""

    def __init__(self, seed):
        catalog, oracle = _mod("catalog"), _mod("oracle")
        text = catalog.shipped_catalog_path().read_text(encoding="utf-8")
        self.entries = catalog.parse_catalog(text)
        self.grid = oracle.Grid(T=GRID_T, h=GRID_H)
        self.cfg = oracle.OracleConfig()

    def run(self, workers):
        results = _mod("catalog").run_catalog(
            self.entries, self.grid, self.cfg, workers=workers
        )
        keys = ("name", "status", "error", "report", "verdicts", "mismatches")
        return [
            {"out": {k: r.get(k) for k in keys}, "error": r.get("error"),
             "wrong": r["status"] == "fail", "seconds": None}
            for r in results
        ]


# --- classify-sweep ---------------------------------------------------------------

def _point(rng, upper):
    re = round(rng.uniform(-1.5, 1.5), 2)
    im = round(rng.uniform(0.5, 3.0), 2)
    return complex(re, im if upper else -im)


def _linear(z):
    """'t-z' in the symbol language."""
    re = f"{-z.real:+g}" if z.real else ""
    return f"t{re}{-z.imag:+g}i"


def _shapes():
    """Factor shapes (zero upper?, pole upper?, multiplicity) of the sweep's
    symbols a: each single-pair shape once, then pairs of pairs.  Half-planes
    fix every winding number, hence the classifier branch."""
    signs = [(zu, pu) for zu in (True, False) for pu in (True, False)]
    shapes = [[(zu, pu, m)] for zu, pu in signs for m in (1, 2, 3)]
    for k in range(SWEEP_ITEMS // len(FAMILIES) - len(shapes)):
        (z1, p1), (z2, p2) = signs[k % 4], signs[(k // 4) % 4]
        shapes.append([(z1, p1, 1 + k % 3), (z2, p2, 1 + (k // 3) % 3)])
    return shapes


FAMILIES = ("({a})*chi", "({a})*chi^-1", "{a}", "-({a})")


def sweep_pairs(seed):
    """Matching pairs (a, b): a rational with 1-2 zero/pole pairs of
    multiplicity 1-3 off the real axis, b one of a*chi, a*chi^-1, a, -a;
    every shape of a meets every family of b once.

    The pairs are drawn once, from PAIRS_SEED; ``seed`` orders them.  Drawn
    afresh for every seed, 100 generic pairs differ in cost: the pass time
    spread by 17% (quartile distance over median, 9 seeds), too wide for a
    bound to hold.
    """
    rng = random.Random(PAIRS_SEED)
    pairs = []
    for shape in _shapes():
        for family in FAMILIES:
            factors = []
            for zero_up, pole_up, mult in shape:
                zero = _point(rng, zero_up)
                pole = _point(rng, pole_up)
                while pole == zero:
                    pole = _point(rng, pole_up)
                f = f"(({_linear(zero)})/({_linear(pole)}))"
                factors.append(f if mult == 1 else f"{f}^{mult}")
            a = "*".join(factors)
            pairs.append((a, family.format(a=a)))
    random.Random(seed).shuffle(pairs)
    return pairs


class ClassifySweep:
    """Generated pairs through parse, ``MatchingPair`` and ``classify`` with a
    kappa tester at the CLI defaults; no oracle verify, so no SVD."""

    def __init__(self, seed):
        oracle = _mod("oracle")
        self.pairs = sweep_pairs(seed)
        self.tester = _mod("kernels").make_kappa_tester(
            oracle.Grid(T=GRID_T, h=GRID_H), oracle.OracleConfig()
        )

    def run(self, workers):
        dsl, classify = _mod("dsl"), _mod("classify")

        def judge(report):
            check = report["index_check"]
            bad = check is not None and check["consistent"] is False
            return report, "InconsistentIndex" if bad else None

        records = []
        for a_expr, b_expr in self.pairs:
            rec = _attempt(
                lambda: classify.classify(
                    classify.MatchingPair(dsl.parse_symbol(a_expr),
                                          dsl.parse_symbol(b_expr)),
                    kappa_tester=self.tester,
                ).to_dict(),
                judge,
            )
            rec["out"] = {"a": a_expr, "b": b_expr, "result": rec["out"]}
            records.append(rec)
        return records


# --- kernel-basis -----------------------------------------------------------------

KERNEL_SIDES = [  # catalog pairs and the sides where the catalog pins ker = 1
    ("pair_chi_shift_n0", "plus"),
    ("pair_chi_shift_nm1", "plus"),
    ("pair_chi_shift_nm1", "minus"),
    ("hankel_chi", "plus"),
]
BLOCK_PAIR = "pair_chi_shift_n0"


class KernelBasis:
    """Explicit kernel vectors from one ``kernels.Workspace``: oracle estimates
    on W(a) +- H(b), the scalar basis of W(chi^-1), the 2N block operator and
    the transport maps E1, E2 on its basis."""

    def __init__(self, seed):
        catalog, dsl, oracle = _mod("catalog"), _mod("dsl"), _mod("oracle")
        text = catalog.shipped_catalog_path().read_text(encoding="utf-8")
        entries = {e.name: e for e in catalog.parse_catalog(text)}
        self.pairs = {
            name: _mod("classify").MatchingPair(
                dsl.parse_symbol(entries[name].a_expr),
                dsl.parse_symbol(entries[name].b_expr),
            )
            for name in sorted({n for n, _ in KERNEL_SIDES} | {BLOCK_PAIR})
        }
        self.grid = oracle.Grid(T=GRID_T, h=GRID_H)
        self.cfg = oracle.OracleConfig()
        self.ws = _mod("kernels").Workspace(self.grid, self.cfg)

    def _timed(self, name, fn):
        def judge(result):
            dim, worst = result
            bad = dim != 1 or worst > self.cfg.residual_tol
            return {"dim": dim, "residual_ok": not bad}, "WrongKernel" if bad else None

        rec = _attempt(fn, judge)
        rec["out"] = {"item": name, "result": rec["out"]}
        return rec

    def run(self, workers):
        import numpy as np

        oracle, kernels, symbols = _mod("oracle"), _mod("kernels"), _mod("symbols")
        ws, cfg = self.ws, self.cfg

        def side(pair, sign):
            op = oracle.wh_plus_hankel(pair.a, pair.b, sign, ws.grid, cfg)
            est = oracle.kernel_estimate(op, cfg)
            return est.dim, max(est.residuals, default=0.0)

        def scalar():
            g = symbols.chi(-1)
            basis = kernels.kernel_basis_scalar(g, ws)
            mat, v = ws.wh(g), basis[0].values
            scale = np.abs(mat).sum(axis=0).max() * np.linalg.norm(v)
            return len(basis), float(np.linalg.norm(mat @ v) / scale)

        def block():
            pair = self.pairs[BLOCK_PAIR]
            est = oracle.kernel_estimate(
                oracle.block_v_matrix(pair, ws.grid, cfg), cfg
            )
            n = ws.grid.n
            worst = 0.0
            for v in est.basis:
                phi = kernels.GridFunction(ws.grid, v[:n])
                psi = kernels.GridFunction(ws.grid, v[n:])
                big_phi, big_psi = kernels.e1_map(pair, phi, psi, ws)
                back = kernels.e2_map(pair, big_phi, big_psi, ws)
                rt = np.concatenate([back[0].values, back[1].values])
                worst = max(worst, float(np.linalg.norm(rt - v) / np.linalg.norm(v)))
            return est.dim, worst

        records = [
            self._timed(f"{name}.{sign}", lambda p=self.pairs[name], s=sign:
                        side(p, +1 if s == "plus" else -1))
            for name, sign in KERNEL_SIDES
        ]
        records.append(self._timed("scalar_chi_inverse", scalar))
        records.append(self._timed(f"{BLOCK_PAIR}.block", block))
        return records


WORKLOADS = {
    "catalog-acceptance": CatalogAcceptance,
    "classify-sweep": ClassifySweep,
    "kernel-basis": KernelBasis,
}
