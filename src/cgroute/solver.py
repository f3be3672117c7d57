"""End-to-end heuristic solve: column generation followed by rounding.

Column generation alternates master solves with exact pricing until no
candidate path of any demand has negative reduced cost (a checkable
optimality certificate, since candidate sets are fully enumerated) or an
iteration cap is hit. When the whole table fits in a master of at most
:data:`FULL_MASTER_MAX_COLUMNS` columns, every candidate joins at the
first HiGHS solve, so the pass after it certifies at once. Randomized
rounding then converts the fractional path mix into one committed path
per demand, or a rejection. Candidates stay table rows throughout; only
committed routes become :class:`~cgroute.model.Path` objects.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .errors import InputError
from .model import Demand, OverlayGraph, Path, augment_clique
from .pricing import CandidateTable, enumerate_candidates, price_demand
from .rmp import RestrictedMaster, RmpSolution

#: Builds the candidate table of a demand set on a graph, such as
#: :func:`~cgroute.pricing.enumerate_candidates`.
CandidateFn = Callable[[OverlayGraph, Sequence[Demand]], CandidateTable]

#: A demand whose largest path weight reaches this is committed outright.
_INTEGRAL_TOL = 1e-6
#: Residual-capacity slack absorbing LP-level float noise on commits.
_CAPACITY_SLACK = 1e-9
#: Largest full master, ``len(table) + len(demands)`` columns, that column
#: generation solves whole at its first HiGHS call. The whole LP is faster
#: than growing the pool at every size measured; two costs set the cap:
#: memory (on a 50-node, 5000-demand instance, a 13.2k-column full master,
#: solving it whole raised peak RSS by 24 MB against 15 MB incrementally)
#: and conditioning (the full LP came back ``numerical`` at 23.6k columns,
#: on a 300-node, 6000-edge, 10000-demand instance incremental CG solves,
#: while none of 36 instances of 8.9k to 12.0k columns failed; ROADMAP
#: item 1).
FULL_MASTER_MAX_COLUMNS = 10_000


@dataclass(frozen=True)
class SolverConfig:
    """Tunables for one solve; the seed fixes every random choice."""

    seed: int = 0
    max_cg_iterations: int = 500
    max_rounding_passes: Optional[int] = None  # None: one pass per demand

    def __post_init__(self):
        if self.seed < 0:
            raise InputError("seed must be nonnegative")
        if self.max_cg_iterations < 1:
            raise InputError("max_cg_iterations must be positive")
        if self.max_rounding_passes is not None and self.max_rounding_passes < 1:
            raise InputError("max_rounding_passes must be positive")


@dataclass(frozen=True)
class RoutingSolution:
    """Integral routing outcome: one committed path or a rejection per demand.

    ``master`` is the restricted master column generation ended with, for
    inspection (``None`` for an empty demand set).
    """

    outcomes: Mapping[int, Optional[Path]]
    objective: float
    iterations: int
    duration_s: float
    certified: bool
    master: Optional[RestrictedMaster] = field(default=None, repr=False, compare=False)

    @property
    def n_accepted(self) -> int:
        return sum(1 for p in self.outcomes.values() if p is not None)

    def acceptance_pct(self) -> float:
        if not self.outcomes:
            return 100.0
        return 100.0 * self.n_accepted / len(self.outcomes)


@dataclass(frozen=True)
class CgResult:
    """LP-side output of column generation, before rounding."""

    solution: RmpSolution
    master: RestrictedMaster
    iterations: int
    certified: bool


def column_generation(
    graph: OverlayGraph,
    demands: Sequence[Demand],
    config: SolverConfig = SolverConfig(),
    candidate_fn: CandidateFn = enumerate_candidates,
) -> CgResult:
    """Grow the master until the dual point prices out every candidate.

    ``candidate_fn`` builds the candidate table once, the master's column
    universe: QoS feasibility does not depend on the duals, so each pricing
    pass re-prices the same table in one batch and the entering candidates
    join the master by index. On natural termination the final LP value is
    optimal for the formulation over all QoS-feasible routes, and the
    result is flagged ``certified``; hitting the iteration cap returns the
    best solution uncertified.

    Masters the closed form solves (the all-rejection first one, and one
    whose cheapest routes fit) never reach HiGHS. When the full master,
    ``len(table) + len(demands)`` columns, is at most
    :data:`FULL_MASTER_MAX_COLUMNS`, the first master that does reach
    HiGHS is seeded with the whole table: the next pricing pass has no
    candidate left to add and certifies, so a congested solve takes two
    iterations and one LP.
    """
    table = candidate_fn(graph, demands)
    master = RestrictedMaster(graph, table)
    join_all = len(table) + len(demands) <= FULL_MASTER_MAX_COLUMNS
    solution = master.solve(join_all)
    iterations = 0
    certified = False
    while iterations < config.max_cg_iterations:
        iterations += 1
        entering = price_demand(table, solution.duals)
        if master.add(index for index, _ in entering.values()) == 0:
            certified = True
            break
        solution = master.solve(join_all)
    return CgResult(
        solution=solution,
        master=master,
        iterations=iterations,
        certified=certified,
    )


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
    # Remaining capacity of every master row, plus the pad row of direct
    # paths, which never binds; ``rows`` holds each pool column's rows,
    # none for the rejection columns that lead the pool.
    residual = master._b_ub.tolist() + [math.inf]
    n_dummy = len(master.demands)
    rows = [()] * n_dummy + master.table.rows[master.joined].tolist()
    outcomes: dict[int, Optional[Path]] = {}
    weights: dict[int, dict[int, float]] = {}
    for d in demands:
        weights[d.id] = {
            j: solution.values[j]
            for j in master.columns_of(d.id)
            if solution.values[j] > 1e-12
        }

    def fits(column_id: int, rate: float) -> bool:
        for r in rows[column_id]:
            if rate > residual[r] + _CAPACITY_SLACK:
                return False
        return True

    def commit(demand: Demand, column_id: int):
        for r in rows[column_id]:
            residual[r] -= demand.rate_mbps
        outcomes[demand.id] = master.column(column_id).path
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
        if top < n_dummy:
            outcomes[d.id] = None
            weights.pop(d.id)
        elif fits(top, d.rate_mbps):
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
            if pick < n_dummy:
                outcomes[did] = None  # a rejection draw is terminal
                weights.pop(did)
                changed = True
            elif fits(pick, d.rate_mbps):
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
        iterations=0,
        duration_s=0.0,
        certified=False,
    )


def _empty_solution(duration: float) -> RoutingSolution:
    return RoutingSolution(
        outcomes=MappingProxyType({}),
        objective=0.0,
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
    """Full pipeline on one scenario: check inputs, generate columns, round.

    Deterministic given (graph, demands, config): the config seed drives
    the only random choices (rounding draws).
    """
    started = time.perf_counter()
    if not demands:
        return _empty_solution(time.perf_counter() - started)
    augment_clique(graph, demands)
    cg = column_generation(graph, demands, config, candidate_fn)
    rng = np.random.default_rng(config.seed)
    routed = randomized_round(
        cg.solution, cg.master, graph, demands, rng, config.max_rounding_passes
    )
    return replace(
        routed,
        iterations=cg.iterations,
        duration_s=time.perf_counter() - started,
        certified=cg.certified,
        master=cg.master,
    )
