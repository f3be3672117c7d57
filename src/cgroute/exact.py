"""Exact integer benchmark: the route-or-reject problem solved as a MIP.

Every QoS-feasible route of every demand joins the master as a column up
front, so the integer problem is a pure selection: one route or a
rejection per demand under the shared capacity rows. The restricted
master solves it in one HiGHS MIP call on the same matrices as its LP
relaxation, so the heuristic and the benchmark share one model. That call
goes straight to SciPy's bundled HiGHS binding, with the feasibility-jump
heuristic off, or through ``scipy.optimize.milp`` where SciPy bundles
none (:meth:`~cgroute.rmp.RestrictedMaster.solve_integer`). Each demand's
choice is read from the MIP's point as arrays; only the chosen routes
become paths, in one batch, and the objective sums their delays in demand
order. Intended for small instances; the point is measuring the
heuristic's optimality gap.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import InputError
from .model import Demand, OverlayGraph, Path, augment_clique
from .pricing import enumerate_candidates
from .rmp import RestrictedMaster
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

    ``nodes_explored`` is the HiGHS MIP node count and ``lp_solves`` the
    number of HiGHS calls: 1, or 0 for an empty demand set.
    """

    outcomes: Mapping[int, Optional[Path]]
    objective: float
    optimal: bool
    nodes_explored: int
    lp_solves: int
    duration_s: float

    @property
    def n_accepted(self) -> int:
        return sum(1 for p in self.outcomes.values() if p is not None)


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
            outcomes=MappingProxyType({}),
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
        outcomes = {d.id: None for d in master.demands}
        objective = master.dummy_penalty * len(master.demands)
    else:
        # Each demand's column closest to 1 is the one HiGHS picked. On a
        # tie the first in pool order wins: the demand's rejection column,
        # then its candidates in join order.
        n_dummy, joined = len(master.demands), master.joined
        owner = np.concatenate((np.arange(n_dummy), table.demand[joined]))
        order = np.lexsort((-res.x, owner))
        chosen = order[np.searchsorted(owner[order], np.arange(n_dummy))] - n_dummy
        routed = chosen >= 0
        paths = iter(table.paths(joined[chosen[routed]]))
        outcomes, objective = {}, 0.0
        for d, is_routed in zip(master.demands, routed.tolist()):
            if is_routed:
                outcomes[d.id] = next(paths)
                objective += outcomes[d.id].total_delay_ms
            else:
                outcomes[d.id] = None
                objective += master.dummy_penalty
    return ExactSolution(
        outcomes=MappingProxyType(outcomes),
        objective=objective,
        optimal=res.status == 0,
        nodes_explored=res.mip_node_count or 0,
        lp_solves=1,
        duration_s=time.perf_counter() - started,
    )
