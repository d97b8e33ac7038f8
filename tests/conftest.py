import importlib.util
from pathlib import Path

import numpy as np
import pytest

from whhankel import Grid, OracleConfig, Workspace, parse_symbol


@pytest.fixture(scope="session")
def coarse_grid():
    return Grid(T=25.0, h=0.1)


@pytest.fixture(scope="session")
def fast_cfg():
    return OracleConfig(stability=False)


@pytest.fixture(scope="session")
def ws(coarse_grid, fast_cfg):
    return Workspace(coarse_grid, fast_cfg)


@pytest.fixture(scope="session")
def sweep_pairs():
    """The (a, b) expressions of the classify-sweep benchmark, seed 1."""
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("sweep_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.sweep_pairs(1)


@pytest.fixture(scope="session")
def a_n0():
    # zeros 2i, -i; poles -2i, i: zero mean motion, zero winding, matching
    return parse_symbol("(t-2i)*(t+1i)/((t+2i)*(t-1i))")


@pytest.fixture(scope="session")
def a_nm1():
    return parse_symbol("(t+2i)/(t-2i)")


@pytest.fixture(scope="session")
def a_n1():
    return parse_symbol("(t-2i)/(t+2i)")


def rng():
    return np.random.default_rng(20250809)
