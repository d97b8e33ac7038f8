import concurrent.futures
import inspect
import os

import pytest

from whhankel import catalog
from whhankel.catalog import CatalogEntry, run_catalog
from whhankel.oracle import Grid, OracleConfig

GRID = Grid(T=10.0, h=0.1)
CFG = OracleConfig(stability=True)
ENTRIES = [
    CatalogEntry("w-chi", "chi"),
    CatalogEntry("w-chi-inv", "chi^-1"),
    CatalogEntry("bad-syntax", "2 + * 3"),
]


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size and the BLAS
    variables that a worker started by each submit would inherit, and runs
    nothing."""

    def __init__(self, seen, max_workers, mp_context):
        self.seen = seen
        self.seen.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, entry, *args):
        self.seen.append({var: os.environ.get(var) for var in catalog.BLAS_THREAD_VARS})
        future = concurrent.futures.Future()
        future.set_result({"name": entry.name})
        return future


def test_default_workers_is_one_per_core():
    default = inspect.signature(run_catalog).parameters["workers"].default
    assert isinstance(default, int) and default == catalog.CORES >= 1


def test_environ_restored_after_worker_pool():
    before = dict(os.environ)
    results = run_catalog(ENTRIES, GRID, CFG, workers=2)
    assert dict(os.environ) == before
    assert [r["name"] for r in results] == ["bad-syntax", "w-chi", "w-chi-inv"]
    assert results[0]["status"] == "error"
    assert all(r["verdicts"] for r in results[1:])
    # an entry that raises in a worker re-raises here, after the restore
    with pytest.raises(TypeError):
        run_catalog([CatalogEntry("not-text", None), *ENTRIES], GRID, CFG, workers=2)
    assert dict(os.environ) == before


@pytest.mark.parametrize("cores, workers, pool_size, share", [
    (8, 2, 2, "4"), (8, 3, 3, "2"), (8, 16, 3, "2"), (2, 3, 3, "1"), (2, 2, 2, "1"),
    (1, 2, 2, "1"),
])
def test_blas_share_per_worker(monkeypatch, cores, workers, pool_size, share):
    for var in catalog.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "7")
    monkeypatch.setattr(catalog, "CORES", cores)
    seen = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda **kw: RecordingPool(seen, **kw))
    before = dict(os.environ)
    results = run_catalog(ENTRIES, GRID, CFG, workers=workers)
    assert [r["name"] for r in results] == ["bad-syntax", "w-chi", "w-chi-inv"]
    # workers beyond the entry count are not started, and get no share
    assert seen == [pool_size] + [
        {"OPENBLAS_NUM_THREADS": share, "OMP_NUM_THREADS": share,
         "MKL_NUM_THREADS": "7"}
    ] * len(ENTRIES)
    assert dict(os.environ) == before
