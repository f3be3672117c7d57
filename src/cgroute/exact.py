"""Exact integer benchmark: the route-or-reject problem solved as a MIP.

Every QoS-feasible route of every demand is materialized as a column up
front, so the integer problem is a pure selection: one route or a
rejection per demand under the shared capacity rows. The restricted
master solves it in one HiGHS MIP call on the same matrices as its LP
relaxation, so the heuristic and the benchmark share one model. The chosen
routes are recosted exactly in Python. Intended for small instances; the
point is measuring the heuristic's optimality gap.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .errors import InputError
from .model import Demand, Edge, OverlayGraph, Path, augment_clique
from .pricing import enumerate_candidates
from .rmp import Column, RestrictedMaster
from .solver import CandidateFn, _Residuals


@dataclass(frozen=True)
class ExactLimits:
    """MIP budget: HiGHS branch-and-bound nodes and seconds of the MIP call.

    Exceeding it returns the best integer point found, unproven, or the
    all-rejected assignment if HiGHS has none yet.
    """

    max_nodes: int = 1_000_000
    time_limit_s: float = 300.0

    def __post_init__(self):
        if self.max_nodes < 1 or self.time_limit_s <= 0.0:
            raise InputError("search limits must be positive")


@dataclass(frozen=True)
class ExactSolution:
    """Best integer assignment found, with its proof status and search stats.

    ``nodes_explored`` is the HiGHS MIP node count and ``lp_solves`` the
    number of HiGHS calls: 1, or 0 for an empty demand set.
    """

    outcomes: Mapping[int, Optional[Path]]
    objective: float
    residual_edge_capacity: Mapping[Edge, float]
    residual_node_capacity: tuple[float, ...]
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
            residual_edge_capacity=MappingProxyType(
                {e: m.capacity_mbps for e, m in graph.edges.items()}
            ),
            residual_node_capacity=tuple(graph.node_limits),
            optimal=True,
            nodes_explored=0,
            lp_solves=0,
            duration_s=time.perf_counter() - started,
        )
    augmented = augment_clique(graph, demands)
    master = RestrictedMaster(augmented, demands)
    for d in master.demands:
        for p in candidate_fn(augmented, d):
            master.add_column(Column.from_path(p, d))

    res = master.solve_integer(limits.time_limit_s, limits.max_nodes)
    residuals = _Residuals(augmented)
    if res.x is None:
        # A budget cut before HiGHS found any integer point: fall back to
        # all-rejected, which is always feasible.
        outcomes = {d.id: None for d in master.demands}
        objective = master.dummy_penalty * len(master.demands)
    else:
        outcomes, objective = {}, 0.0
        for d in master.demands:
            # The demand's column closest to 1 is the one HiGHS picked.
            chosen = master.columns[max(master.columns_of(d.id), key=lambda j: res.x[j])]
            if chosen.is_dummy:
                outcomes[d.id] = None
                objective += master.dummy_penalty
            else:
                outcomes[d.id] = chosen.path
                objective += chosen.path.total_delay_ms
                residuals.commit(chosen.path, d.rate_mbps)
    return ExactSolution(
        outcomes=MappingProxyType(outcomes),
        objective=objective,
        residual_edge_capacity=MappingProxyType(dict(residuals.edges)),
        residual_node_capacity=tuple(residuals.nodes),
        optimal=res.status == 0,
        nodes_explored=res.mip_node_count or 0,
        lp_solves=1,
        duration_s=time.perf_counter() - started,
    )
