"""whhankel benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package runs from ``src/`` and
nothing is built.  This process never imports the program: set-up and every
pass run in fresh interpreters (child.py), one caller at a time, with the
environment as given (BLAS threads are not pinned).

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``
with the end-to-end metrics of BENCHMARK.json (trace 0) or its per-layer
metrics (trace 1); the line before it holds the details: environment,
output digests, failures by error type, per-item latency and every layer
figure.  Output digests are kept per workload, seed and program source in
``.perfbench_out/digests.json``, and a run whose digest differs from an
earlier run of the same source is not correct.  See DESIGN.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("catalog-acceptance", "classify-sweep", "kernel-basis")
SETUP_RUNS = 5          # set-up is timed in this many fresh interpreters
BUDGET_S = 175.0        # a run ends within 180 s


class BenchError(Exception):
    pass


def _child(args, deadline):
    cmd = [sys.executable, str(HERE / "child.py"), str(ROOT), *map(str, args)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args[0]} process exceeded the {BUDGET_S:g} s budget")
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _source_hash():
    """Hash of the program's and the benchmark's sources."""
    h = hashlib.sha256()
    for top in (ROOT / "src" / "whhankel", HERE):
        for path in sorted(p for p in top.rglob("*") if p.is_file()
                           and "__pycache__" not in p.parts):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _same_as_before(workload, seed, digest):
    """Record the digest; False when an earlier run of this source differs."""
    OUT.mkdir(exist_ok=True)
    store = OUT / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    key = f"{workload}|{seed}|{_source_hash()}"
    before = known.setdefault(key, digest)
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, store)
    return before == digest


def run(workload, seed, seconds, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = monotonic() + BUDGET_S
    setups = []
    if not trace:
        setups = [_child(["setup", workload, seed], deadline)["setup_s"]
                  for _ in range(SETUP_RUNS)]
    res = _child(["run", workload, seed, trace, seconds, deadline - monotonic()],
                 deadline)
    passes = res["passes"]
    digests = sorted({p["digest"] for p in passes})
    attempted = sum(p["items"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    errors = sum((Counter(p["errors"]) for p in passes), Counter())
    stable = len(digests) == 1 and _same_as_before(workload, seed, digests[0])
    correct = stable and not any(p["wrong"] for p in passes)

    if trace:
        figures = res["layers"]
    else:
        walls = [p["wall"] for p in passes]
        items = [s for p in passes for s in p["item_seconds"]]
        figures = {
            "wall_s": statistics.median(walls),
            "items_per_s": attempted / sum(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        if len(items) >= 100:        # p90 needs at least ten samples above it
            figures["item_p50_s"] = statistics.median(items)
            figures["item_p90_s"] = statistics.quantiles(items, n=10)[-1]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]}
               for m in wanted}
    detail = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "env": res["env"],
        "digests": digests,
        "digest_stable": stable,
        "passes": [{k: v for k, v in p.items() if k != "item_seconds"}
                   for p in passes],
        "fail_frac": failed / attempted,
        "errors": errors,
        "setup_samples_s": setups,
        "trace_overhead_measured_frac": res.get("trace_overhead_measured_frac"),
        "skipped": res.get("skipped"),
        "figures": figures,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{workload}-{seed}-trace{trace}.json").write_text(
        json.dumps(detail, indent=1))
    print(json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="minimum measured time; whole passes, at least one")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # turn SIGTERM into SystemExit, so that subprocess.run kills the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "whhankel" / "__init__.py").is_file():
        print(f"no whhankel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
