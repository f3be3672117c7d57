"""End-to-end heuristic solve: column generation followed by rounding.

Column generation alternates master solves with exact pricing until no
candidate path of any demand has negative reduced cost (a checkable
optimality certificate, since candidate sets are fully enumerated) or an
iteration cap is hit. When the whole table fits in a master of at most
:data:`FULL_MASTER_MAX_COLUMNS` columns, a budget set by memory alone,
every candidate joins at the first HiGHS solve, so the pass after it
certifies at once; larger masters grow incrementally. Randomized
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
#: generation solves whole at its first HiGHS call. The whole LP takes two
#: iterations and one HiGHS call, and was no slower than growing the pool
#: at any size measured; what it costs is memory, which alone sets this
#: cap, since the master's cost scaling keeps large LPs well conditioned.
#: HiGHS's ``run`` holds about 1 KB per column. Peak RSS of one column
#: generation run, solved whole against incrementally: 102 against 95 MB
#: at 13.6k columns (50 nodes, 450 edges, 5000 demands), 122 against 112
#: MB at 23.6k (300/6000/10000) and 144 against 128 MB at 39.3k
#: (100/1200/17000). Larger masters grow by pricing.
FULL_MASTER_MAX_COLUMNS = 40_000


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

    The weights are read as arrays: each demand's top weight, and the
    first pool column holding it, come from one pass over the LP support,
    and only the demands still fractional after the integral-first commits
    get a list of columns to draw from, in ascending pool index order.
    """
    demands = sorted(demands, key=lambda d: d.id)
    if max_passes is None:
        max_passes = max(1, len(demands))
    table, joined, n_dummy = master.table, master.joined, len(master.demands)
    # The LP support (weights above 1e-12), grouped by the convexity row of
    # the owning demand and ascending by pool index within each group.
    values = np.asarray(solution.values)
    owner = np.concatenate((np.arange(n_dummy), table.demand[joined]))
    support = np.flatnonzero(values > 1e-12)
    support = support[np.argsort(owner[support], kind="stable")]
    row = owner[support]
    starts = np.flatnonzero(np.diff(row, prepend=-1))
    # Each group's top weight, the first column in pool order on ties.
    best = support[np.lexsort((support, -values[support], row))[starts]]
    grouped = row[starts]
    top = np.full(n_dummy, -1)
    top[grouped] = best
    top_weight = np.zeros(n_dummy)
    top_weight[grouped] = values[best]
    bounds = np.zeros((n_dummy, 2), dtype=np.intp)
    bounds[grouped] = np.stack((starts, np.append(starts[1:], len(support))), axis=1)
    at = np.array([master._row[d.id] for d in demands], dtype=np.intp)
    top, integral, bounds = top[at], top_weight[at] >= 1.0 - _INTEGRAL_TOL, bounds[at]

    # Remaining capacity of every master row, plus the pad row of direct
    # paths, which never binds.
    residual = master._b_ub.tolist() + [math.inf]
    # Each decided demand's committed pool column, or None for a rejection;
    # the committed columns become paths in one batch at the end.
    outcomes: dict[int, Optional[int]] = {}

    def commit(demand: Demand, column_id: int, rows: list[int]) -> bool:
        rate = demand.rate_mbps
        for r in rows:
            if rate > residual[r] + _CAPACITY_SLACK:
                return False
        for r in rows:
            residual[r] -= rate
        outcomes[demand.id] = column_id
        return True

    # Integral-first: the LP guarantees these fit together, up to float noise.
    pending = np.flatnonzero(~integral & (top >= 0)).tolist()
    first = np.flatnonzero(integral | (top < 0))
    first_top = top[first]
    tested = first_top[first_top >= n_dummy]
    tested_rows = iter(table.rows[joined[tested - n_dummy]].tolist())
    for i, j in zip(first.tolist(), first_top.tolist()):
        if j < n_dummy:
            outcomes[demands[i].id] = None
        elif not commit(demands[i], j, next(tested_rows)):
            pending.append(i)

    # The fractional demands in ascending id order, each with its columns
    # and their normalized weights.
    weights: dict[int, tuple[Demand, list[int], np.ndarray]] = {}
    for i in sorted(pending):
        lo, hi = bounds[i].tolist()
        probs = np.array(values[support[lo:hi]].tolist())
        weights[demands[i].id] = (demands[i], support[lo:hi].tolist(), probs / probs.sum())

    passes = 0
    changed = True
    while weights and changed and passes < max_passes:
        passes += 1
        changed = False
        for did, (d, cols, probs) in list(weights.items()):
            pick = cols[int(rng.choice(len(cols), p=probs))]
            if pick < n_dummy:
                outcomes[did] = None  # a rejection draw is terminal
            elif not commit(d, pick, table.rows[joined[pick - n_dummy]].tolist()):
                continue  # restore, demand may be redrawn next pass
            del weights[did]
            changed = True

    for did in weights:
        outcomes[did] = None

    committed = [did for did, j in outcomes.items() if j is not None]
    columns = np.array([outcomes[did] for did in committed], dtype=np.intp)
    outcomes.update(zip(committed, table.paths(joined[columns - n_dummy])))

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
