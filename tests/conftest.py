import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from cgroute import rmp
from cgroute.model import Demand, LinkMetrics, OverlayGraph


@pytest.fixture
def line_graph():
    """Three nodes, real edges (0,1) and (1,2), max delay 10 ms."""
    return OverlayGraph.from_edges(
        3,
        {
            (0, 1): LinkMetrics(10.0, 2.0, 100.0, 0.999),
            (1, 2): LinkMetrics(7.0, 3.0, 100.0, 0.998),
        },
        [200.0, 200.0, 200.0],
    )


@pytest.fixture
def two_demands():
    return [
        Demand(0, 0, 2, 20.0, 100.0, 0.99),
        Demand(1, 0, 1, 20.0, 100.0, 0.99),
    ]


@pytest.fixture
def highs_calls(monkeypatch):
    """Every call ``RestrictedMaster.solve`` makes to HiGHS, as its ``(args, kwargs)``.

    The LP goes through ``rmp.linprog``, the one HiGHS entry point
    ``rmp._call_highs`` (which runs ``scipy.optimize.linprog`` on SciPy
    1.10); the MIP of ``solve_integer`` calls ``_call_highs`` by name and
    is not counted.
    """
    calls = []

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return linprog(*args, **kwargs)

    linprog = rmp.linprog
    monkeypatch.setattr(rmp, "linprog", counting)
    return calls
