"""Symbol-pair catalogs: parsing, execution, and expectation checking.

Catalog files are UTF-8 and line-oriented; '#' starts a comment.  Each entry
is pipe-separated:

    name | a_expr | b_expr | expected_json | notes

An empty b_expr marks a scalar entry (the operator W(a) alone).  The expected
field, when present, pins classifier output: for pairs
``{"plus": {"ker": "1", "coker": "1"}, "minus": {...}}``, for scalars
``{"ker": "1", "coker": "0"}``; dimension values use the report notation
("2", ">=1", "inf", "?").  Entries run classify -> oracle verify; an entry
passes when the classifier matches every pinned expectation and no oracle
verdict fails.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass

from . import dsl, kernels, oracle
from .classify import MatchingPair, classify as run_classify, scalar_wh_classify
from .errors import WhhError

#: usable cores: the default worker count, shared out as BLAS threads
CORES = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
    else os.cpu_count() or 1
)

#: BLAS thread variables set for the workers while they start
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    a_expr: str
    b_expr: str = ""
    expected: dict | None = None
    notes: str = ""

    @property
    def is_scalar(self):
        return not self.b_expr.strip()


def parse_catalog(text) -> list[CatalogEntry]:
    entries = []
    names = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split("|")]
        if len(parts) < 2:
            raise ValueError(f"line {lineno}: need at least 'name | a_expr'")
        name = parts[0]
        if name in names:
            raise ValueError(f"line {lineno}: duplicate entry name {name!r}")
        names.add(name)
        expected = None
        if len(parts) > 3 and parts[3]:
            expected = json.loads(parts[3])
        entries.append(
            CatalogEntry(
                name=name,
                a_expr=parts[1],
                b_expr=parts[2] if len(parts) > 2 else "",
                expected=expected,
                notes=parts[4] if len(parts) > 4 else "",
            )
        )
    return entries


def shipped_catalog_path(name="catalog.txt"):
    from importlib.resources import files

    return files("whhankel.data").joinpath(name)


def _check_expected_sign(expected_side, side_report, label, mismatches):
    for fld in ("ker", "coker"):
        if fld in expected_side:
            got = getattr(side_report, fld).describe()
            if got != str(expected_side[fld]):
                mismatches.append(
                    f"{label}.{fld}: expected {expected_side[fld]}, classified {got}"
                )
    if "status" in expected_side and side_report.status != expected_side["status"]:
        mismatches.append(
            f"{label}.status: expected {expected_side['status']}, "
            f"classified {side_report.status}"
        )


def run_entry(entry: CatalogEntry, grid, cfg=oracle.DEFAULT_CONFIG) -> dict:
    """Classify and oracle-verify one entry; never raises for entry-level
    failures (they are reported as status 'error')."""
    result = {"name": entry.name, "notes": entry.notes}
    try:
        a = dsl.parse_symbol(entry.a_expr)
        if entry.is_scalar:
            report = scalar_wh_classify(a)
            table = oracle.verify_scalar(report, a, grid, cfg)
        else:
            b = dsl.parse_symbol(entry.b_expr)
            pair = MatchingPair(a, b)
            tester = kernels.make_kappa_tester(grid, cfg)
            report = run_classify(pair, kappa_tester=tester)
            table = oracle.verify(report, pair, grid, cfg)
    except WhhError as err:
        result["status"] = "error"
        result["error"] = type(err).__name__
        result["message"] = str(err)
        return result
    mismatches = []
    if entry.expected:
        if entry.is_scalar:
            _check_expected_sign(entry.expected, report, "scalar", mismatches)
        else:
            for side in ("plus", "minus"):
                if side in entry.expected:
                    _check_expected_sign(
                        entry.expected[side], getattr(report, side), side, mismatches
                    )
    result["report"] = report.to_dict()
    result["verdicts"] = [r.to_dict() for r in table.rows]
    result["mismatches"] = mismatches
    result["status"] = "pass" if table.ok and not mismatches else "fail"
    return result


def run_catalog(entries, grid, cfg=oracle.DEFAULT_CONFIG,
                workers=CORES) -> list[dict]:
    """Run entries in worker processes; output ordered by entry name.

    The default is one worker per usable core (``CORES``), at most one per
    entry.  Most of an entry's time is in values-only rank decisions, which
    gain little from a second BLAS thread, so entries run side by side in
    processes, each with ``max(1, CORES // workers)`` BLAS threads.
    ``workers=1`` runs the entries in this process, one after another, with
    its BLAS threads as they are.  The output does not depend on
    ``workers``.

    Workers are started with ``spawn`` and import the caller's main module,
    so a script that calls this with ``workers > 1`` must guard its entry
    point with ``if __name__ == "__main__":``.
    """
    workers = max(1, min(workers, len(entries)))
    if workers == 1:
        results = [run_entry(e, grid, cfg) for e in entries]
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context("spawn")
        ) as pool:
            # a spawn pool starts its workers in submit, one per call
            with _blas_threads(max(1, CORES // workers)):
                futures = [pool.submit(run_entry, e, grid, cfg) for e in entries]
            results = [f.result() for f in futures]
    return sorted(results, key=lambda r: r["name"])


@contextmanager
def _blas_threads(threads):
    """Give processes started inside the context ``threads`` BLAS threads.

    The BLAS library reads its thread count only when it loads, so the
    variables are set in ``os.environ`` while the workers start; one the
    caller has set is kept, and ``os.environ`` is restored on exit."""
    added = [var for var in BLAS_THREAD_VARS if var not in os.environ]
    os.environ.update({var: str(threads) for var in added})
    try:
        yield
    finally:
        for var in added:
            del os.environ[var]


def summarize(results) -> str:
    width = max([len(r["name"]) for r in results] + [4])
    lines = [f"{'name':<{width}}  status  detail"]
    for r in results:
        if r["status"] == "error":
            detail = f"{r['error']}: {r['message']}"
        elif r["status"] == "fail":
            bad = [v for v in r.get("verdicts", []) if v["verdict"] == "fail"]
            detail = "; ".join(
                r.get("mismatches", [])
                + [f"{v['cell']}: predicted {v['predicted']}, measured {v['measured']}"
                   for v in bad]
            )
        else:
            detail = ""
        lines.append(f"{r['name']:<{width}}  {r['status']:<6}  {detail}")
    npass = sum(1 for r in results if r["status"] == "pass")
    lines.append(f"{npass}/{len(results)} entries passed")
    return "\n".join(lines)
