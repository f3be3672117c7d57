"""Exact integer benchmark: the route-or-reject problem solved as a MIP.

Every QoS-feasible route of every demand joins the master as a column up
front, so the integer problem is a pure selection: one route or a
rejection per demand under the shared capacity rows. The restricted
master solves it in one HiGHS MIP call on the same matrices as its LP
relaxation, so the heuristic and the benchmark share one model and one
HiGHS entry point, with the feasibility-jump heuristic off
(:meth:`~cgroute.rmp.RestrictedMaster.solve_integer`). Each demand's
choice is its column closest to 1 in the MIP's point
(:meth:`~cgroute.rmp.RestrictedMaster.top_columns`), and the master reads
the routing out as it does for rounding
(:meth:`~cgroute.rmp.RestrictedMaster.routing`), so a routing both sides
choose has one objective. Intended for small instances; the point is
measuring the heuristic's optimality gap.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError
from .model import Demand, OverlayGraph, augment_clique
from .pricing import enumerate_candidates
from .rmp import RestrictedMaster, Routing
from .solver import CandidateFn


@dataclass(frozen=True)
class ExactLimits:
    """MIP budget: HiGHS branch-and-bound nodes and seconds of the MIP call.

    Exceeding it returns the best integer point found, unproven, or the
    all-rejected assignment if HiGHS has none yet.
    """

    max_nodes: int = 1_000_000
    time_limit_s: float = 300.0

    def __post_init__(self):
        if self.max_nodes < 1 or not 0.0 < self.time_limit_s < math.inf:
            raise InputError("search limits must be finite and positive")


@dataclass(frozen=True)
class ExactSolution:
    """Best integer assignment found, with its proof status and search stats.

    ``outcomes`` is a :class:`~cgroute.rmp.Routing`, empty for an empty demand set.
    ``nodes_explored`` is the HiGHS MIP node count and ``lp_solves`` the
    number of HiGHS calls: 1, or 0 for an empty demand set.
    """

    outcomes: Routing
    objective: float
    optimal: bool
    nodes_explored: int
    lp_solves: int
    duration_s: float

    @property
    def n_accepted(self) -> int:
        return self.outcomes.n_accepted


def solve_exact(
    graph: OverlayGraph,
    demands: Sequence[Demand],
    limits: ExactLimits = ExactLimits(),
    candidate_fn: CandidateFn = enumerate_candidates,
) -> ExactSolution:
    """Globally optimal route-or-reject assignment over all candidates."""
    started = time.perf_counter()
    if not demands:
        return ExactSolution(
            outcomes=Routing.empty(candidate_fn(graph, demands)),
            objective=0.0,
            optimal=True,
            nodes_explored=0,
            lp_solves=0,
            duration_s=time.perf_counter() - started,
        )
    augment_clique(graph, demands)
    table = candidate_fn(graph, demands)
    master = RestrictedMaster(graph, table)
    master.add(range(len(table)))

    res = master.solve_integer(limits.time_limit_s, limits.max_nodes)
    if res.x is None:
        # A budget cut before HiGHS found any integer point: fall back to
        # all-rejected, which is always feasible.
        chosen = np.arange(len(master.demands))
    else:  # each demand's column closest to 1 is the one HiGHS picked
        chosen = master.top_columns(res.x)
    outcomes, objective = master.routing(chosen)
    return ExactSolution(
        outcomes=outcomes,
        objective=objective,
        optimal=res.status == "optimal",
        nodes_explored=res.nodes,
        lp_solves=1,
        duration_s=time.perf_counter() - started,
    )
