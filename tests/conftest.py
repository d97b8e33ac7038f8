import importlib.util
import random
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


def _linear(z):
    """'t-z' in the symbol language."""
    re = f"{-z.real:+g}" if z.real else ""
    return f"(t{re}{-z.imag:+g}i)"


@pytest.fixture(scope="session")
def general_pairs():
    """400 matching pairs (a, b) drawn from random.Random(11), blind to
    their outcomes: a has 1-2 factors ((t-z)/(t-p))^m, m in {1, 2, 3}, and
    b = +-a prod (t+w)/(t-w) over 1-3 points w.  Real parts are uniform in
    [-1.5, 1.5] and imaginary parts in [0.3, 3], both rounded to 2
    decimals, each point in a random half-plane.  The draw order is this
    fixture's own."""
    rng = random.Random(11)

    def point():
        im = round(rng.uniform(0.3, 3.0), 2)
        return complex(round(rng.uniform(-1.5, 1.5), 2), im if rng.random() < 0.5 else -im)

    pairs = []
    for _ in range(400):
        factors = []
        for _ in range(rng.randint(1, 2)):
            m = rng.randint(1, 3)
            factors.append(f"({_linear(point())}/{_linear(point())})^{m}")
        a = "*".join(factors)
        w = [point() for _ in range(rng.randint(1, 3))]
        blaschke = "*".join(f"{_linear(-x)}/{_linear(x)}" for x in w)
        pairs.append((a, f"{rng.choice(('', '-'))}({a})*{blaschke}"))
    return pairs


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
