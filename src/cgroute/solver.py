"""End-to-end heuristic solve: column generation followed by rounding.

Column generation alternates exact pricing with master solves until no
candidate path of any demand has negative reduced cost (a checkable
optimality certificate, since candidate sets are fully enumerated) or an
iteration cap is hit; an iteration is a pass that adds columns, then the
master solve. The first pass, before any master is solved, prices the
all-rejection master, whose answer is each demand's cheapest candidate,
so it reads them from the table. Then one of three regimes holds, in
this order. When the closed form solves that pool, which is every demand
on its cheapest route, nothing can undercut it and the solve certifies
with no LP. Otherwise, when that pool holds at least
:data:`WHOLE_MASTER_MIN_SHARE` of the full master, as on sparse graphs,
every candidate joins before the first HiGHS solve, so the pass after it
certifies at once; a smaller share, as on dense overlays, grows by
pricing.
Randomized rounding then converts the fractional path mix into one
committed path per demand, or a rejection; a closed-form mix is already
integral and fits every capacity, so it is read out as it is. Candidates
stay table rows throughout; the master's read-out, as for the exact
benchmark, sums the objective and returns a
:class:`~cgroute.rmp.Routing`, which makes the committed routes'
:class:`~cgroute.model.Path` objects only when one is read: a solve
itself makes none.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Literal, Optional, Sequence

import numpy as np

from .errors import InputError
from .model import Demand, OverlayGraph, augment_clique
from .pricing import CandidateTable, enumerate_candidates, price_demand, price_rejections
from .rmp import RestrictedMaster, RmpSolution, Routing

#: Builds the candidate table of a demand set on a graph, such as
#: :func:`~cgroute.pricing.enumerate_candidates`.
CandidateFn = Callable[[OverlayGraph, Sequence[Demand]], CandidateTable]

#: A demand whose largest path weight reaches this is committed outright.
_INTEGRAL_TOL = 1e-6
#: Residual-capacity slack absorbing LP-level float noise on commits.
_CAPACITY_SLACK = 1e-9
#: Least share of the full master, ``len(table) + len(demands)`` columns,
#: that the first pool must hold for the whole table to join before the
#: first HiGHS solve; a smaller pool grows by pricing. The whole master is
#: then at most 6 times the first pool, which the incremental path solves
#: too, so memory needs no cap of its own. Measured solve times of the two
#: paths cross at a share of 0.16-0.25: dense overlays, whose first pool is
#: 3-10% of the full master, are faster grown, and sparse graphs, at
#: 64-95%, faster whole. Just under 1/6 (50 nodes, 1600 edges, 3000
#: demands: 0.161) the whole master was 6% faster but held 46 MB more, so
#: the pool grows there.
WHOLE_MASTER_MIN_SHARE = 1 / 6
#: Most column-generation iterations in one solve; a solve that reaches it
#: returns its last master uncertified.
MAX_CG_ITERATIONS = 500


@dataclass(frozen=True)
class SolverConfig:
    """Tunables for one solve; the seed fixes every random choice."""

    seed: int = 0
    max_rounding_passes: Optional[int] = None  # None: one pass per demand

    def __post_init__(self):
        if self.seed < 0:
            raise InputError("seed must be nonnegative")
        if self.max_rounding_passes is not None and self.max_rounding_passes < 1:
            raise InputError("max_rounding_passes must be positive")


@dataclass(frozen=True)
class RoutingSolution:
    """Integral routing outcome: one committed path or a rejection per demand.

    ``outcomes`` is a :class:`~cgroute.rmp.Routing`, empty for an empty
    demand set, for which ``master``, the restricted master column
    generation ended with (kept for inspection), is ``None``.
    """

    outcomes: Routing
    objective: float
    iterations: int
    duration_s: float
    certified: bool
    master: Optional[RestrictedMaster] = field(default=None, repr=False, compare=False)

    @property
    def n_accepted(self) -> int:
        return self.outcomes.n_accepted


@dataclass(frozen=True)
class CgResult:
    """LP-side output of column generation, before rounding.

    ``regime`` names the path the solve took (see
    :func:`column_generation`): ``"closed_form"``, ``"whole"`` or
    ``"incremental"``. A closed-form ``solution`` is integral, each demand
    on one column at weight exactly 1, and those columns' loads fit every
    capacity.
    """

    solution: RmpSolution
    master: RestrictedMaster
    iterations: int
    certified: bool
    regime: Literal["closed_form", "whole", "incremental"]


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
    result is flagged ``certified``; hitting :data:`MAX_CG_ITERATIONS`
    returns the best solution uncertified. ``config`` is not read, since
    its seed drives rounding alone; it stays for callers that pass it by
    position, as ``perfbench`` does.

    An iteration is one pricing pass that adds columns, then one master
    solve, so ``iterations`` counts master solves; the cap bounds them. The
    first pass prices the all-rejection master without solving it: its
    columns, each routable demand's cheapest candidate, come straight from
    the table (:func:`price_rejections`, which is :func:`price_demand` at
    those duals). The regimes below are decided once, on that first pool,
    the only one the closed form can solve: it holds every routable
    demand's cheapest candidate, so a column that joins later, by pricing
    or by a whole-table join, is its demand's second. ``regime`` names the
    one that ran.

    1. The closed form (:meth:`~cgroute.rmp.RestrictedMaster.closed_form`)
       solves the first pool, and the solve certifies with no LP and no
       pricing; this is the one iteration, whatever the cap. That pool
       holds at most one candidate per demand and, since it holds the
       first pass's, exactly each routable demand's cheapest, so with
       capacity priced at zero no candidate undercuts its demand's
       convexity price. When no demand has a route, the pool is its
       rejection columns alone, which the closed form always solves.
    2. Otherwise, when the first pool holds at least
       :data:`WHOLE_MASTER_MIN_SHARE` of the full master,
       ``len(table) + len(demands)`` columns, the whole table joins and
       HiGHS solves it: the next pricing pass has no candidate left to add
       and certifies, so a congested solve takes one iteration and one LP.
    3. Otherwise HiGHS solves the first pool, and pricing grows it; a pass
       that adds nothing certifies.
    """
    table = candidate_fn(graph, demands)
    master = RestrictedMaster(table)
    master.add(price_rejections(table, master.dummy_penalty))
    solution = master.closed_form()
    certified = solution is not None
    regime = "closed_form" if certified else "incremental"
    if not certified:
        if master.pool_size >= WHOLE_MASTER_MIN_SHARE * (len(table) + len(demands)):
            regime = "whole"
            master.add(range(len(table)))
        solution = master.solve()
    iterations = 1
    while not certified and iterations < MAX_CG_ITERATIONS:
        certified = master.add(
            index for index, _ in price_demand(table, solution.duals).values()
        ) == 0
        if not certified:
            solution = master.solve()
            iterations += 1
    return CgResult(
        solution=solution,
        master=master,
        iterations=iterations,
        certified=certified,
        regime=regime,
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

    ``demands`` are the master's. Each one's top weight comes from
    :meth:`~cgroute.rmp.RestrictedMaster.top_columns`, and the chosen pool
    columns are read out by :meth:`~cgroute.rmp.RestrictedMaster.routing`;
    only the demands still fractional after the integral-first commits get
    a list of columns to draw from, in ascending pool index order.
    """
    if max_passes is None:
        max_passes = max(1, len(demands))
    table, joined, n_dummy = master.table, master.joined, len(master.demands)
    values = solution.values
    top = master.top_columns(values)
    top_weight = values[top]
    # Each demand's pool column by convexity row: its rejection until a commit.
    chosen = np.arange(n_dummy)

    # Remaining capacity of every master row, plus the pad row of direct
    # paths, which never binds.
    residual = master.capacity.tolist() + [math.inf]

    def commit(r: int, column_id: int, rows: list[int]) -> bool:
        rate = master.demands[r].rate_mbps
        for row in rows:
            if rate > residual[row] + _CAPACITY_SLACK:
                return False
        for row in rows:
            residual[row] -= rate
        chosen[r] = column_id
        return True

    # Integral-first: the LP guarantees these fit together, up to float noise.
    # A demand whose top weight is its rejection's, or at most 1e-12, stays rejected.
    integral = top_weight >= 1.0 - _INTEGRAL_TOL
    pending = np.flatnonzero(~integral & (top_weight > 1e-12)).tolist()
    tested = np.flatnonzero(integral & (top >= n_dummy))
    tested_rows = table.rows[joined[top[tested] - n_dummy]].tolist()
    for r, rows in zip(tested.tolist(), tested_rows):
        if not commit(r, top[r], rows):
            pending.append(r)

    # The fractional demands in ascending id order, each with its columns
    # and their normalized weights.
    weights: dict[int, tuple[list[int], np.ndarray]] = {}
    for r in sorted(pending):
        cols = np.array(master.columns_of(master.demands[r].id))
        cols = cols[values[cols] > 1e-12]
        probs = values[cols]
        weights[r] = (cols.tolist(), probs / probs.sum())

    passes = 0
    changed = True
    while weights and changed and passes < max_passes:
        passes += 1
        changed = False
        for r, (cols, probs) in list(weights.items()):
            pick = cols[int(rng.choice(len(cols), p=probs))]
            # A rejection draw is terminal; a route that does not fit is redrawn next pass.
            if pick < n_dummy or commit(r, pick, table.rows[joined[pick - n_dummy]].tolist()):
                del weights[r]
                changed = True

    outcomes, objective = master.routing(chosen)
    return RoutingSolution(
        outcomes=outcomes,
        objective=objective,
        iterations=0,
        duration_s=0.0,
        certified=False,
    )


def solve(
    graph: OverlayGraph,
    demands: Sequence[Demand],
    config: SolverConfig = SolverConfig(),
    candidate_fn: CandidateFn = enumerate_candidates,
) -> RoutingSolution:
    """Full pipeline on one scenario: check inputs, generate columns, round.

    Deterministic given (graph, demands, config): the config seed drives
    the only random choices (rounding draws). A closed-form master is read
    out as it is, each demand on its one column of weight 1: its routes
    fit every capacity together, so rounding would commit exactly them,
    with no draw.
    """
    started = time.perf_counter()
    if not demands:
        return RoutingSolution(
            outcomes=Routing.empty(candidate_fn(graph, demands)),
            objective=0.0,
            iterations=0,
            duration_s=time.perf_counter() - started,
            certified=True,
        )
    augment_clique(graph, demands)
    cg = column_generation(graph, demands, config, candidate_fn)
    if cg.regime == "closed_form":
        outcomes, objective = cg.master.routing(cg.master.top_columns(cg.solution.values))
    else:
        rng = np.random.default_rng(config.seed)
        routed = randomized_round(
            cg.solution, cg.master, graph, demands, rng, config.max_rounding_passes
        )
        outcomes, objective = routed.outcomes, routed.objective
    return RoutingSolution(
        outcomes=outcomes,
        objective=objective,
        iterations=cg.iterations,
        duration_s=time.perf_counter() - started,
        certified=cg.certified,
        master=cg.master,
    )
