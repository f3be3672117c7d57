"""End-to-end heuristic solve: column generation followed by rounding.

Column generation alternates master solves with exact pricing until no
candidate path of any demand has negative reduced cost (a checkable
optimality certificate, since candidate sets are fully enumerated) or an
iteration cap is hit. Randomized rounding then converts the fractional
path mix into one committed path per demand, or a rejection.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .errors import InputError
from .model import Demand, Edge, OverlayGraph, Path, augment_clique
from .pricing import EPS_REDUCED_COST, CandidateTable, enumerate_candidates, price_demand
from .rmp import Column, RestrictedMaster, RmpSolution

CandidateFn = Callable[[OverlayGraph, Demand], list[Path]]

#: A demand whose largest path weight reaches this is committed outright.
_INTEGRAL_TOL = 1e-6
#: Residual-capacity slack absorbing LP-level float noise on commits.
_CAPACITY_SLACK = 1e-9


@dataclass(frozen=True)
class SolverConfig:
    """Tunables for one solve; the seed fixes every random choice."""

    seed: int = 0
    eps_reduced_cost: float = EPS_REDUCED_COST
    max_cg_iterations: int = 500
    max_rounding_passes: Optional[int] = None  # None: one pass per demand

    def __post_init__(self):
        if self.max_cg_iterations < 1:
            raise InputError("max_cg_iterations must be positive")
        if self.max_rounding_passes is not None and self.max_rounding_passes < 1:
            raise InputError("max_rounding_passes must be positive")
        if self.eps_reduced_cost <= 0.0:
            raise InputError("eps_reduced_cost must be positive")


@dataclass(frozen=True)
class RoutingSolution:
    """Integral routing outcome: one committed path or a rejection per demand."""

    outcomes: Mapping[int, Optional[Path]]
    objective: float
    residual_edge_capacity: Mapping[Edge, float]
    residual_node_capacity: tuple[float, ...]
    iterations: int
    duration_s: float
    certified: bool

    @property
    def n_accepted(self) -> int:
        return sum(1 for p in self.outcomes.values() if p is not None)

    @property
    def n_rejected(self) -> int:
        return sum(1 for p in self.outcomes.values() if p is None)

    def acceptance_pct(self) -> float:
        if not self.outcomes:
            return 100.0
        return 100.0 * self.n_accepted / len(self.outcomes)


@dataclass(frozen=True)
class CgResult:
    """LP-side output of column generation, before rounding."""

    solution: RmpSolution
    master: RestrictedMaster
    candidates: Mapping[int, list[Path]]
    iterations: int
    certified: bool


def column_generation(
    graph: OverlayGraph,
    demands: Sequence[Demand],
    config: SolverConfig = SolverConfig(),
    candidate_fn: CandidateFn = enumerate_candidates,
) -> CgResult:
    """Grow the master until the dual point prices out every candidate.

    Candidate lists are enumerated once per demand and packed into one
    table: QoS feasibility does not depend on the duals, so each pricing
    pass re-prices the same table in one batch. On natural termination the
    final LP value is optimal for the formulation over all QoS-feasible
    routes, and the result is flagged ``certified``; hitting the iteration
    cap returns the best solution uncertified.
    """
    master = RestrictedMaster(graph, demands)
    by_id = {d.id: d for d in master.demands}
    candidates = {d.id: candidate_fn(graph, d) for d in master.demands}
    table = CandidateTable.pack(graph, master.demands, candidates)
    solution = master.solve()
    iterations = 0
    certified = False
    while iterations < config.max_cg_iterations:
        iterations += 1
        added = 0
        entering = price_demand(table, solution.duals, config.eps_reduced_cost)
        for did, (path, _) in entering.items():
            before = master.pool_size
            master.add_column(Column.from_path(path, by_id[did]))
            if master.pool_size > before:
                added += 1
        if added == 0:
            certified = True
            break
        solution = master.solve()
    return CgResult(
        solution=solution,
        master=master,
        candidates=MappingProxyType(candidates),
        iterations=iterations,
        certified=certified,
    )


class _Residuals:
    """Remaining edge/node capacity while commitments accumulate."""

    def __init__(self, graph: OverlayGraph):
        self.edges = {e: m.capacity_mbps for e, m in graph.edges.items()}
        self.nodes = list(graph.node_limits)

    def fits(self, path: Path, rate: float) -> bool:
        for e in path.edges:
            if rate > self.edges[e] + _CAPACITY_SLACK:
                return False
        for i in path.nodes:
            if rate > self.nodes[i] + _CAPACITY_SLACK:
                return False
        return True

    def commit(self, path: Path, rate: float):
        for e in path.edges:
            self.edges[e] -= rate
        for i in path.nodes:
            self.nodes[i] -= rate


def randomized_round(
    solution: RmpSolution,
    master: RestrictedMaster,
    graph: OverlayGraph,
    demands: Sequence[Demand],
    rng: np.random.Generator,
    max_passes: Optional[int] = None,
) -> RoutingSolution:
    """Fix one path per demand by sampling the fractional LP mix.

    Demands the LP already resolved onto a single real path are committed
    first, so later draws cannot steal their capacity. Remaining demands
    are then swept in ascending id order: each draws one path with
    probability equal to its LP weight (dummy weight draws reject the
    demand outright); a draw that fits the residual capacities is
    committed and its siblings zeroed, a draw that does not fit leaves the
    demand fractional until the next pass. Sweeping stops when a full pass
    changes nothing, and whatever is still fractional is rejected.
    """
    demands = sorted(demands, key=lambda d: d.id)
    by_id = {d.id: d for d in demands}
    if max_passes is None:
        max_passes = max(1, len(demands))
    residuals = _Residuals(graph)
    outcomes: dict[int, Optional[Path]] = {}
    weights: dict[int, dict[int, float]] = {}
    for d in demands:
        weights[d.id] = {
            j: solution.values[j]
            for j in master.columns_of(d.id)
            if solution.values[j] > 1e-12
        }

    def commit(demand: Demand, column_id: int):
        path = master.columns[column_id].path
        residuals.commit(path, demand.rate_mbps)
        outcomes[demand.id] = path
        weights.pop(demand.id)

    # Integral-first: the LP guarantees these fit together, up to float noise.
    for d in demands:
        top = max(weights[d.id], key=lambda j: weights[d.id][j], default=None)
        if top is None:
            outcomes[d.id] = None
            weights.pop(d.id)
            continue
        if weights[d.id][top] < 1.0 - _INTEGRAL_TOL:
            continue
        if master.columns[top].is_dummy:
            outcomes[d.id] = None
            weights.pop(d.id)
        elif residuals.fits(master.columns[top].path, d.rate_mbps):
            commit(d, top)

    passes = 0
    changed = True
    while weights and changed and passes < max_passes:
        passes += 1
        changed = False
        for did in sorted(weights):
            d = by_id[did]
            cols = sorted(weights[did])
            probs = np.array([weights[did][j] for j in cols])
            probs = probs / probs.sum()
            pick = cols[int(rng.choice(len(cols), p=probs))]
            if master.columns[pick].is_dummy:
                outcomes[did] = None  # a rejection draw is terminal
                weights.pop(did)
                changed = True
            elif residuals.fits(master.columns[pick].path, d.rate_mbps):
                commit(d, pick)
                changed = True
            # else: restore, demand may be redrawn next pass

    for did in sorted(weights):
        outcomes[did] = None

    penalty = master.dummy_penalty
    objective = sum(
        p.total_delay_ms if p is not None else penalty for p in outcomes.values()
    )
    return RoutingSolution(
        outcomes=MappingProxyType(dict(sorted(outcomes.items()))),
        objective=objective,
        residual_edge_capacity=MappingProxyType(dict(residuals.edges)),
        residual_node_capacity=tuple(residuals.nodes),
        iterations=0,
        duration_s=0.0,
        certified=False,
    )


def _empty_solution(graph: OverlayGraph, duration: float) -> RoutingSolution:
    return RoutingSolution(
        outcomes=MappingProxyType({}),
        objective=0.0,
        residual_edge_capacity=MappingProxyType(
            {e: m.capacity_mbps for e, m in graph.edges.items()}
        ),
        residual_node_capacity=tuple(graph.node_limits),
        iterations=0,
        duration_s=duration,
        certified=True,
    )


def solve(
    graph: OverlayGraph,
    demands: Sequence[Demand],
    config: SolverConfig = SolverConfig(),
    candidate_fn: CandidateFn = enumerate_candidates,
) -> RoutingSolution:
    """Full pipeline on one scenario: augment, generate columns, round.

    Deterministic given (graph, demands, config): the config seed drives
    the only random choices (rounding draws).
    """
    started = time.perf_counter()
    if not demands:
        return _empty_solution(graph, time.perf_counter() - started)
    augmented = augment_clique(graph, demands)
    cg = column_generation(augmented, demands, config, candidate_fn)
    rng = np.random.default_rng(config.seed)
    routed = randomized_round(
        cg.solution, cg.master, augmented, demands, rng, config.max_rounding_passes
    )
    return replace(
        routed,
        iterations=cg.iterations,
        duration_s=time.perf_counter() - started,
        certified=cg.certified,
    )
