import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Property tests draw the same examples on every run, so a failure in the
# suite or in CI reproduces; each test keeps its own ``max_examples``. Pass
# ``--hypothesis-profile=default`` for a randomized run.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

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
    ``rmp._call_highs``; the MIP of ``solve_integer`` calls ``_call_highs``
    by name and is not counted.
    """
    calls = []

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return linprog(*args, **kwargs)

    linprog = rmp.linprog
    monkeypatch.setattr(rmp, "linprog", counting)
    return calls
