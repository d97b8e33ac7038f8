"""One benchmark process, started by run.py in a fresh interpreter.

    python3 perfbench/child.py ROOT setup WORKLOAD SEED
    python3 perfbench/child.py ROOT run WORKLOAD SEED TRACE SECONDS BUDGET

``setup`` times ``import whhankel`` plus building the workload's inputs.
``run`` sets up, then runs passes: untraced passes at the program's default
worker count until SECONDS have elapsed (at least one) with TRACE 0.  With
TRACE 1 one untraced and one traced pass; on catalog-acceptance the traced
pass comes first and the untraced one runs one worker.  BUDGET is the time
left for the run.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
import os
import platform
import resource
import sys
from collections import Counter
from importlib import metadata
from pathlib import Path
from time import perf_counter

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "GOTO_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
TIMING_WORDS = ("time", "wall", "seconds")


def _untimed(obj):
    """Drop timing fields, which differ between runs, from an output."""
    if isinstance(obj, dict):
        return {
            k: _untimed(v) for k, v in obj.items()
            if not (k.endswith("_s") or any(w in k.lower() for w in TIMING_WORDS))
        }
    if isinstance(obj, list):
        return [_untimed(v) for v in obj]
    return obj


def digest(records):
    """SHA-256 of the canonical JSON of every item's output."""
    outs = [_untimed(r["out"]) for r in records]
    text = json.dumps(outs, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def _version(dist):
    """Installed version of a distribution, read without importing it (an
    import would add to the peak RSS)."""
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def environment(default_workers):
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": _version("scipy"),
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_config": blas.get("openblas configuration", ""),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "default_catalog_workers": default_workers,
    }


def _pass(make, workers, tracer=None):
    workload = make()
    t0 = perf_counter()
    if tracer is None:
        records = workload.run(workers)
    else:
        with tracer:
            records = workload.run(workers)
    wall = perf_counter() - t0
    return {
        "wall": wall,
        "workers": workers,
        "traced": tracer is not None,
        "digest": digest(records),
        "items": len(records),
        "failed": sum(1 for r in records if r["error"] or r["wrong"]),
        "wrong": sum(1 for r in records if r["wrong"]),
        "errors": dict(Counter(r["error"] for r in records if r["error"])),
        "item_seconds": [r["seconds"] for r in records if r["seconds"] is not None],
    }


def _call_costs(tracer_cls, n=20000):
    """Seconds the tracer adds to one spanned call and to one counted call."""
    def noop():
        return None

    tr = tracer_cls()
    costs = []
    for fn in (noop, tr.span("calibration", noop), tr.count("calibration", noop)):
        t0 = perf_counter()
        for _ in range(n):
            fn()
        costs.append((perf_counter() - t0) / n)
    return max(costs[1] - costs[0], 0.0), max(costs[2] - costs[0], 0.0)


def main(argv):
    root, mode, name, seed = Path(argv[0]), argv[1], argv[2], int(argv[3])
    src = root / "src"
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    import whhankel

    if not Path(whhankel.__file__).resolve().is_relative_to(src.resolve()):
        print(f"whhankel imported from {whhankel.__file__}, not {src}", file=sys.stderr)
        return 3
    from workloads import WORKLOADS

    first = WORKLOADS[name](seed)
    setup_s = perf_counter() - t0
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    trace, seconds, budget = int(argv[4]), float(argv[5]), float(argv[6])
    catalog = importlib.import_module("whhankel.catalog")
    workers = inspect.signature(catalog.run_catalog).parameters["workers"].default
    made = [first]

    def make():
        return made.pop() if made else WORKLOADS[name](seed)

    out = {"setup_s": setup_s, "env": environment(workers)}
    passes = []
    if not trace:
        start = perf_counter()
        while not passes or perf_counter() - start < seconds:
            passes.append(_pass(make, workers))
    else:
        from spans import Tracer, layer_metrics

        tracer = Tracer()
        if name == "catalog-acceptance":
            # the untraced pass runs one worker, so its digest checks that
            # the output does not depend on the worker count.  One worker
            # takes about 0.65 of the default's time (0.8 leaves a margin);
            # a run that would overrun its budget skips the check.
            passes.append(_pass(make, workers, tracer))
            if 0.8 * passes[0]["wall"] < budget - (perf_counter() - t0):
                passes.append(_pass(make, 1))
            else:
                out["skipped"] = "workers=1 pass: not enough time left"
        else:
            passes.append(_pass(make, workers))
            passes.append(_pass(make, workers, tracer))
            out["trace_overhead_measured_frac"] = (
                passes[1]["wall"] / passes[0]["wall"] - 1.0)
        # machine noise swamps the measured ratio, so the metric is the
        # calibrated cost of the wrappers times the calls they wrapped
        traced = next(p for p in passes if p["traced"])
        span_cost, count_cost = _call_costs(Tracer)
        spent = len(tracer.spans) * span_cost + sum(tracer.counts.values()) * count_cost
        overhead = spent / (traced["wall"] - spent)
        out["layers"] = layer_metrics(tracer.spans, tracer.counts, workers)
        out["layers"]["trace_overhead_frac"] = overhead
        spans_dir = root / ".perfbench_out"
        spans_dir.mkdir(exist_ok=True)
        with open(spans_dir / f"spans-{name}-{seed}.json", "w") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    out["passes"] = passes
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
