"""In-memory span tracer for the traced benchmark run.

Public functions of the program are wrapped at the module attribute through
which they are *called* (``catalog.run_classify`` is ``classify.classify``
imported under another name, ``classify.is_matching`` is
``symbols.is_matching``), so the program itself is not edited.  Each call
becomes a span ``(id, parent, name, start, end, info)``; the parent is the
innermost open span of the same thread.  Nested calls of the same layer
(``coker_estimate`` calls ``kernel_estimate``, ``classify`` recurses) are
resolved from the span tree: inclusive times count only the outermost span of
a layer, self times subtract the direct children.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
from collections import Counter
from time import perf_counter

# (module, attribute, span name); several attributes may share a span name
SPANS = [
    ("whhankel.dsl", "parse_symbol", "dsl.parse_symbol"),
    ("whhankel.symbols", "is_invertible", "symbols.is_invertible"),
    ("whhankel.symbols", "is_matching", "symbols.is_matching"),
    ("whhankel.classify", "is_matching", "symbols.is_matching"),
    ("whhankel.poly", "proots", "poly.proots"),
    ("whhankel.factorization", "factorize", "factorization.factorize"),
    ("whhankel.factorization", "matching_factorization", "factorization.factorize"),
    ("whhankel.classify", "classify", "classify.classify"),
    ("whhankel.catalog", "run_classify", "classify.classify"),
    ("whhankel.kernels", "kappa_for_pair", "kernels.kappa"),
    ("whhankel.kernels", "e1_map", "kernels.transport"),
    ("whhankel.kernels", "e2_map", "kernels.transport"),
    ("whhankel.kernels.Workspace", "wh", "kernels.ws_lookup"),
    ("whhankel.kernels.Workspace", "hank", "kernels.ws_lookup"),
    ("whhankel.kernels.Workspace", "w0", "kernels.ws_lookup"),
    ("whhankel.oracle", "wh_matrix", "oracle.assemble"),
    ("whhankel.oracle", "hankel_matrix", "oracle.assemble"),
    ("whhankel.oracle", "w0_matrix", "oracle.assemble"),
    ("whhankel.oracle", "wh_plus_hankel", "oracle.assemble"),
    ("whhankel.oracle", "block_v_matrix", "oracle.assemble"),
    ("whhankel.oracle", "kernel_estimate", "oracle.kernel_estimate"),
    ("whhankel.oracle", "coker_estimate", "oracle.coker_estimate"),
    ("whhankel.oracle", "verify", "oracle.verify"),
    ("whhankel.oracle", "verify_scalar", "oracle.verify"),
    ("numpy.linalg", "svd", "numpy.svd"),
    ("whhankel.catalog", "run_catalog", "catalog.run_catalog"),
    ("whhankel.catalog", "run_entry", "catalog.run_entry"),
]

# calls too frequent for a span each; only counted
COUNTS = [
    ("whhankel.symbols", "make_symbol", "symbols.make_symbol"),
]


def _svd_info(args, kwargs):
    shape = getattr(args[0], "shape", ())
    uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
    full = kwargs.get("full_matrices", args[1] if len(args) > 1 else True)
    return (tuple(int(x) for x in shape[-2:]), bool(uv), bool(full))


def _resolve(path):
    """Module or class named by a dotted path, or None if there is none."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        mod, _, cls = path.rpartition(".")
        try:
            return getattr(importlib.import_module(mod), cls, None)
        except ModuleNotFoundError:
            return None


class Tracer:
    """Wraps the attributes in SPANS and COUNTS while installed."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved = []

    def span(self, name, fn):
        """``fn`` wrapped to record one span per call."""
        tracer, info = self, _svd_info if name == "numpy.svd" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._local.__dict__.setdefault("stack", [])
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.spans.append(
                    (sid, parent, name, t0, t1, info(args, kwargs) if info else None)
                )

        return wrapper

    def count(self, name, fn):
        """``fn`` wrapped to count its calls."""
        counts, lock = self.counts, self._lock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with lock:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def __enter__(self):
        # a function the program no longer has is skipped, and its metrics
        # read 0, so that removing code does not break the benchmark
        for table, make in ((SPANS, self.span), (COUNTS, self.count)):
            for path, attr, name in table:
                owner = _resolve(path)
                original = vars(owner).get(attr) if owner is not None else None
                if original is None:
                    continue
                self._saved.append((owner, attr, original))
                setattr(owner, attr, make(name, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False


def svd_flops(shape, uv, full):
    """Real flops of one complex SVD, computed from its shape.

    R-SVD counts from Golub & Van Loan, Matrix Computations (3rd ed.,
    Fig. 5.4.1), with m >= n: singular values only 2mn^2 + 2n^3, thin U and
    V 6mn^2 + 20n^3, full U and V 4m^2n + 22n^3; times 4 for complex
    arithmetic.  A count for comparing versions, not a measured rate.
    """
    m, n = max(shape), min(shape)
    if not uv:
        real = 2 * m * n * n + 2 * n**3
    elif full:
        real = 4 * m * m * n + 22 * n**3
    else:
        real = 6 * m * n * n + 20 * n**3
    return 4 * real


ASSEMBLY = {"oracle.assemble"}
ESTIMATES = {"oracle.kernel_estimate", "oracle.coker_estimate"}


def layer_metrics(spans, counts, workers):
    """Per-layer metrics of one traced pass."""
    by_id = {s[0]: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s[1], []).append(s)

    def dur(s):
        return s[4] - s[3]

    def ancestors(s):
        while s[1] is not None:
            s = by_id[s[1]]
            yield s

    def outermost(names):
        return [
            s for s in spans
            if s[2] in names and not any(a[2] in names for a in ancestors(s))
        ]

    def inclusive(names):
        return sum(dur(s) for s in outermost(names))

    def self_time(name):
        return sum(
            dur(s) - sum(dur(c) for c in children.get(s[0], ()))
            for s in spans if s[2] == name
        )

    def calls(name):
        return sum(1 for s in spans if s[2] == name)

    # rank decisions: the SVDs an estimate runs itself, coarse grid first
    rank, refined = [], []
    for s in spans:
        if s[2] == "oracle.kernel_estimate":
            svds = sorted(
                (c for c in children.get(s[0], ()) if c[2] == "numpy.svd"),
                key=lambda c: c[3],
            )
            rank += svds
            refined += svds[1:]

    catalogs = [s for s in spans if s[2] == "catalog.run_catalog"]
    entries = [s for s in spans if s[2] == "catalog.run_entry"]
    busy = sum(dur(s) for s in entries)
    wait = 0.0
    for s in entries:
        start = max(c[3] for c in catalogs if c[3] <= s[3])
        wait += s[3] - start
    pool_wall = sum(dur(s) for s in catalogs)

    ws_lookups = [s for s in spans if s[2] == "kernels.ws_lookup"]
    ws_builds = sum(
        1 for s in ws_lookups
        if any(c[2] in ASSEMBLY for c in children.get(s[0], ()))
    )

    return {
        "oracle.rank_s": sum(dur(s) for s in rank),
        "oracle.rank_calls": len(rank),
        "oracle.rank_refined_calls": len(refined),
        "oracle.svd_flops_computed": sum(svd_flops(*s[5]) for s in rank),
        "oracle.assemble_s": inclusive(ASSEMBLY),
        "oracle.assemble_calls": len(outermost(ASSEMBLY)),
        "oracle.verify_self_s": self_time("oracle.verify"),
        "catalog.entry_busy_s": busy,
        "catalog.queue_wait_s": wait,
        "catalog.pool_efficiency": busy / (pool_wall * workers) if pool_wall else 0.0,
        "symbols.make_symbol_calls": counts["symbols.make_symbol"],
        "symbols.is_invertible_s": inclusive({"symbols.is_invertible"}),
        "symbols.is_matching_s": inclusive({"symbols.is_matching"}),
        "poly.proots_calls": calls("poly.proots"),
        "poly.proots_s": inclusive({"poly.proots"}),
        "dsl.parse_s": inclusive({"dsl.parse_symbol"}),
        "factorization.factorize_s": inclusive({"factorization.factorize"}),
        "classify.classify_self_s": self_time("classify.classify"),
        "classify.classify_calls": calls("classify.classify"),
        "kernels.kappa_s": inclusive({"kernels.kappa"}),
        "kernels.kappa_calls": len(outermost({"kernels.kappa"})),
        "kernels.ws_lookups": len(ws_lookups),
        "kernels.ws_builds": ws_builds,
        "kernels.transport_s": inclusive({"kernels.transport"}),
    }
