"""Restricted master problem: the LP over the columns generated so far.

The column universe is a :class:`~cgroute.pricing.CandidateTable`: each
candidate couples one route to its demand, and the master names it by its
table index. The table's ``rows`` are already in the master's capacity-row
space (edges in ``graph.edges`` order, then nodes, then one pad row for
direct paths), so the master reads a candidate's capacity rows straight
from it. The pool is one rejection (dummy) column per demand plus the
candidates that have joined, held as indices; a column's path object is
made only for a caller that reads it. The LP minimizes the total delay of
the selected path mix subject to edge capacities, node processing limits
and one convexity row per demand, with the integrality of the path choice
relaxed. Solving returns both the primal mix and the dual prices that
drive pricing. HiGHS runs only when capacity binds: a pool with at most
one candidate per demand whose loads fit every capacity has a closed-form
optimum, with zero capacity prices. A caller may ask that a pool which
does reach HiGHS first take in the whole table, so that one LP solves the
full master. The exact benchmark solves the same matrices as a 0/1
program. Both go through one entry point, :func:`_call_highs`: a direct
call to SciPy's bundled HiGHS binding, or ``scipy.optimize.linprog`` and
``milp`` on SciPy 1.10, which bundles none.

The master is also the one read-out of a routing: rounding and the exact
benchmark each pick one pool column per demand, and
:meth:`RestrictedMaster.routing` sums the objective in ascending demand
id, so one routing has one objective whoever chose it. It returns a
:class:`Routing`, which holds the choice as arrays and makes its paths
only when one is read.

The rejection penalty grows with the demand count (about 2e8 at 20k
demands) while path delays stay near 1-500 ms, and HiGHS dual simplex
fails on costs that far apart. Both solves therefore hand HiGHS the cost
vector times ``2**s``, with ``s`` from :func:`_cost_exponent`, so the
penalty lands at or below :data:`_PENALTY_CEILING`; the objective and
every dual are scaled back by ``2**-s``. A power of two changes only the
floating-point exponent, so both steps are exact, and a penalty already
at or below the ceiling gets ``s = 0``, the unscaled LP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.optimize import linprog as _scipy_linprog

try:  # HiGHS's own Python binding, which newer SciPy releases vendor
    from scipy.optimize._highspy import _core as _highs
except ImportError:  # SciPy 1.10 has none; its compiled linprog wrapper is lean
    _highs = None

from .errors import ContractError, InputError, SolverError
from .model import Demand, OverlayGraph, Path, dummy_penalty, make_dummy_path

if TYPE_CHECKING:
    from .pricing import CandidateTable

# HiGHS is already tight by default; pin the tolerances so dual certificates
# stay inside the 1e-7 reduced-cost threshold used by pricing. They act on
# the scaled costs, so in delay units the dual tolerance is 1e-9 * 2**-s
# (2.6e-7 at s = -8); the solver tests re-price the whole table at 1e-7 on
# scaled masters.
_LP_OPTIONS = {
    "presolve": True,
    "primal_feasibility_tolerance": 1e-9,
    "dual_feasibility_tolerance": 1e-9,
}

#: The MIP's options besides its budget. Feasibility jump is a primal
#: heuristic HiGHS 1.12 runs on every MIP whatever its size: on the gap
#: suite's 50 exact-benchmark MIPs it made the solves 3.5 times slower
#: (0.38 s against 0.11 s in all), and HiGHS proves every one optimal, at
#: the same objective, without it.
_MIP_OPTIONS = {"mip_rel_gap": 0.0, "mip_heuristic_run_feasibility_jump": False}

#: Options a HiGHS may not know, which a solve goes on without: a HiGHS
#: older than feasibility jump has no option to switch it off.
_OPTIONAL_OPTIONS = frozenset({"mip_heuristic_run_feasibility_jump"})

#: The largest rejection penalty HiGHS sees; :func:`_cost_exponent` scales
#: the costs of a master whose penalty exceeds it.
_PENALTY_CEILING = 1e6

#: The name of each HiGHS model status a solve can end in (the node limit
#: is HiGHS's "Solution limit reached"); any other is ``numerical``.
_HIGHS_STATUS = {
    "kOptimal": "optimal",
    "kTimeLimit": "time_limit",
    "kIterationLimit": "iteration_limit",
    "kSolutionLimit": "node_limit",
    "kInfeasible": "infeasible",
    "kUnbounded": "unbounded",
}

#: linprog's post-solve feasibility tolerance, ``10 * sqrt(tol)`` at its default ``tol``.
_CHECK_TOL = 10 * np.sqrt(1e-9)


@dataclass(frozen=True)
class Column:
    """Read-only view of one pool column: a demand's path or its rejection."""

    path: Path

    @property
    def is_dummy(self) -> bool:
        return self.path.is_dummy


@dataclass(frozen=True, eq=False)
class DualPoint:
    """Dual prices from one master solve, as arrays in constraint-row order.

    ``edge_duals`` holds one price per edge in ``graph.edges`` order and
    ``node_duals`` one per node; both price capacity and must be
    nonnegative, which construction checks once for every pricing pass
    that reads the point. ``convexity_duals`` carries one free multiplier
    per demand, in ascending demand id order.
    """

    edge_duals: np.ndarray
    node_duals: np.ndarray
    convexity_duals: np.ndarray

    def __post_init__(self):
        for name in ("edge_duals", "node_duals", "convexity_duals"):
            values = np.array(getattr(self, name), dtype=float)
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        if (self.edge_duals < 0.0).any() or (self.node_duals < 0.0).any():
            raise ContractError("capacity duals must be nonnegative")

    @classmethod
    def zero(cls, graph: OverlayGraph, demands: Sequence[Demand]) -> "DualPoint":
        return cls(
            np.zeros(len(graph.edges)),
            np.zeros(graph.n_nodes),
            np.zeros(len(demands)),
        )


@dataclass(frozen=True)
class RmpSolution:
    """Primal/dual optimum of the master over its current column pool."""

    values: tuple[float, ...]
    objective: float
    duals: DualPoint


@dataclass
class HighsResult:
    """One HiGHS call's outcome, in the cost units HiGHS was given.

    ``status`` is a name from :data:`_HIGHS_STATUS`, else ``numerical``.
    ``x`` and ``objective`` are the LP's optimal point or the MIP's best
    integer point, ``None`` without one. ``row_dual`` (an LP's, capacity
    rows first), ``nodes`` and ``dual_bound`` (a MIP's) are ``None`` where
    they do not apply. ``message`` says why a solve is not optimal.
    """

    status: str
    x: Optional[np.ndarray] = None
    objective: Optional[float] = None
    row_dual: Optional[np.ndarray] = None
    nodes: Optional[int] = None
    dual_bound: Optional[float] = None
    message: str = ""


def dual_objective(duals: DualPoint, graph: OverlayGraph) -> float:
    """Value of the dual point: sum of convexity prices minus paid capacity."""
    caps = [m.capacity_mbps for m in graph.edges.values()]
    paid = sum(lam * cap for lam, cap in zip(duals.edge_duals.tolist(), caps))
    paid += sum(nu * cap for nu, cap in zip(duals.node_duals.tolist(), graph.node_limits))
    return sum(duals.convexity_duals.tolist()) - paid


def _cost_exponent(penalty: float) -> int:
    """The power of two ``s`` a master's costs are scaled by before HiGHS.

    ``-max(0, ceil(log2(penalty / _PENALTY_CEILING)))``: zero for a penalty
    at or below :data:`_PENALTY_CEILING`, else the shift that brings the
    scaled penalty into ``(ceiling / 2, ceiling]``.
    """
    return -max(0, math.ceil(math.log2(penalty / _PENALTY_CEILING)))


class Routing(Mapping[int, Optional[Path]]):
    """A routing read out of a master: each demand's path, or ``None`` for
    a rejection, by ascending demand id. Read-only.

    ``accepted`` marks the routed demands in the table's demand order, and
    ``picked`` holds each routed demand's table index, in the same order;
    ``n_accepted`` is their count. Counts, routes and delays can be read
    from these arrays and the ``table``. The paths are made in one
    :meth:`~cgroute.pricing.CandidateTable.paths` batch the first time a
    path is read.
    """

    def __init__(
        self,
        table: CandidateTable,
        accepted: np.ndarray,
        picked: np.ndarray,
        row: Mapping[int, int],
    ):
        self.table = table
        self.accepted = accepted
        self.picked = picked
        self.accepted.flags.writeable = self.picked.flags.writeable = False
        # Each demand id's position in ``table.demands``.
        self._row = row
        self._paths: Optional[list[Optional[Path]]] = None

    @property
    def n_accepted(self) -> int:
        return len(self.picked)

    def __getitem__(self, demand_id: int) -> Optional[Path]:
        r = self._row[demand_id]
        if self._paths is None:
            made = iter(self.table.paths(self.picked))
            self._paths = [next(made) if a else None for a in self.accepted.tolist()]
        return self._paths[r]

    def __contains__(self, demand_id) -> bool:
        return demand_id in self._row

    def __iter__(self):
        return iter(self._row)

    def __len__(self) -> int:
        return len(self._row)

    def __repr__(self) -> str:
        return f"Routing({dict(self)!r})"


class RestrictedMaster:
    """A growing subset of a candidate table, plus LP assembly and solve.

    Column ``j < len(demands)`` is the rejection (dummy) column of
    ``demands[j]``, so the LP is feasible and bounded from the first solve
    onward; the rest are table candidates in the order they joined (a
    whole-table seed appends the candidates not yet in, ascending). The
    LP relaxation and the integer problem are both built by slicing the
    table's arrays for the pool. ``_b_ub`` holds the capacity of every
    row of the table's row map except the pad. A column's
    :class:`~cgroute.model.Path` is made only when it is read, through
    :meth:`column`, :attr:`columns` or the :class:`Routing` of
    :meth:`routing`.
    """

    def __init__(self, graph: OverlayGraph, table: CandidateTable):
        if not table.demands:
            raise InputError("master needs at least one demand")
        # Each demand's position: its convexity row and its rejection column.
        self._row = {d.id: r for r, d in enumerate(table.demands)}
        if len(self._row) != len(table.demands):
            raise InputError("demand ids must be unique")
        if table.graph is not graph:
            raise ContractError("candidate table was built for another graph")
        self.graph = graph
        self.table = table
        self.demands = table.demands
        self.dummy_penalty = dummy_penalty(graph, table.demands)
        self._b_ub = np.concatenate((graph.arrays.capacity, graph.node_limits))
        # Joined candidates in join order, and a membership mask over the table.
        self._joined = np.zeros(0, dtype=np.intp)
        self._joined.flags.writeable = False
        self._member = np.zeros(len(table), dtype=bool)
        self._columns: tuple[Column, ...] = ()
        # ``owner`` and the pool grouped by it, made on first use per pool.
        self._groups: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    # -- pool ---------------------------------------------------------------

    @property
    def columns(self) -> Sequence[Column]:
        """Every pool column; paths are made on the first read after the pool grows."""
        if len(self._columns) != self.pool_size:
            grown = range(len(self._columns), self.pool_size)
            self._columns += tuple(self.column(j) for j in grown)
        return self._columns

    @property
    def pool_size(self) -> int:
        return len(self.demands) + len(self._joined)

    @property
    def joined(self) -> np.ndarray:
        """The table index of each joined candidate, in pool order (read-only)."""
        return self._joined

    def column(self, j: int) -> Column:
        """Pool column ``j``, with its path made afresh."""
        n_dummy = len(self.demands)
        if j < n_dummy:
            return Column(make_dummy_path(self.demands[j], self.dummy_penalty))
        return Column(self.table.path(self._joined[j - n_dummy]))

    @property
    def owner(self) -> np.ndarray:
        """Each pool column's convexity row, its demand's index in ``demands`` (read-only)."""
        return self._grouped()[0]

    def _grouped(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``owner``; ``order``, the pool sorted stably by it; and ``bounds``:
        ``demands[r]`` owns ``order[bounds[r]:bounds[r + 1]]``, its rejection
        column, then its candidates in join order. Made once per pool.
        """
        if self._groups is None:
            n_dummy = len(self.demands)
            owner = np.concatenate((np.arange(n_dummy), self.table.demand[self._joined]))
            owner.flags.writeable = False
            order = np.argsort(owner, kind="stable")
            self._groups = (owner, order, np.searchsorted(owner[order], np.arange(n_dummy + 1)))
        return self._groups

    def columns_of(self, demand_id: int) -> list[int]:
        """The demand's rejection column, then its candidates in join order."""
        _, order, bounds = self._grouped()
        r = self._row[demand_id]
        return order[bounds[r] : bounds[r + 1]].tolist()

    def top_columns(self, x: np.ndarray) -> np.ndarray:
        """Each demand's pool column with the largest ``x``, in convexity-row order.

        On a tie the first in pool order wins: the rejection column, then
        the candidates in join order.
        """
        _, order, bounds = self._grouped()
        grouped, starts = x[order], bounds[:-1]
        top = np.repeat(np.maximum.reduceat(grouped, starts), np.diff(bounds))
        at_top = np.where(grouped == top, np.arange(len(order)), len(order))
        return order[np.minimum.reduceat(at_top, starts)]

    def routing(self, chosen: np.ndarray) -> tuple[Routing, float]:
        """The routing that takes pool column ``chosen[r]`` for ``demands[r]``.

        A rejection column rejects its demand. Returns the :class:`Routing`,
        which makes its paths only when one is read; and the objective,
        path delays and rejection penalties summed in ascending demand id.
        """
        n_dummy = len(self.demands)
        accepted = chosen >= n_dummy
        picked = self._joined[chosen[accepted] - n_dummy]
        cost = np.full(n_dummy, self.dummy_penalty)
        cost[accepted] = self.table.delay[picked]
        # A plain loop: from Python 3.12, ``sum`` compensates float rounding.
        objective = 0.0
        for c in cost.tolist():
            objective += c
        return Routing(self.table, accepted, picked, self._row), objective

    def add(self, candidates: Iterable[int]) -> int:
        """Let table candidates join the pool; return how many were new.

        New candidates join in the order given, each at its first
        occurrence. An index outside the table raises before any joins.
        """
        given = np.fromiter(candidates, dtype=np.intp)
        outside = given[(given < 0) | (given >= len(self.table))]
        if len(outside):
            raise ContractError(f"no candidate {outside[0]} in the table")
        first = np.unique(given, return_index=True)[1]
        new = given[np.sort(first)]
        new = new[~self._member[new]]
        if len(new):
            self._member[new] = True
            self._joined = np.concatenate((self._joined, new))
            self._joined.flags.writeable = False
            self._groups = None
        return len(new)

    # -- LP -----------------------------------------------------------------

    def _assemble(self):
        """Cost vector, capacity rows ``A_ub`` and convexity rows ``A_eq``.

        A candidate's capacity rows are its table ``rows`` at the demand's
        rate, ascending per column so the LP backend sees one fixed entry
        order; the pad row sorts last and is dropped. Dummy columns have
        no capacity rows.
        """
        t, n_dummy = self.table, len(self.demands)
        m = self.joined
        n_rows = len(self._b_ub)
        rows = np.sort(t.rows[m], axis=1)
        keep = rows < n_rows
        per_column = keep.sum(axis=1)
        indptr = np.concatenate((np.zeros(n_dummy + 1, dtype=np.intp), np.cumsum(per_column)))
        coeffs = np.repeat(t.rate[m], per_column)
        a_ub = sparse.csc_matrix(
            (coeffs, rows[keep].astype(np.int32), indptr.astype(np.int32)),
            shape=(n_rows, self.pool_size),
        )
        eq_rows = self.owner.astype(np.int32)
        a_eq = sparse.csc_matrix(
            (np.ones(self.pool_size), eq_rows, np.arange(self.pool_size + 1, dtype=np.int32)),
            shape=(n_dummy, self.pool_size),
        )
        cost = np.concatenate((np.full(n_dummy, self.dummy_penalty), t.delay[m]))
        return cost, a_ub, a_eq

    def solve(self, join_all: bool = False) -> RmpSolution:
        """Solve the LP over the current pool and return primal and duals.

        HiGHS runs only when capacity binds. When the pool holds at most one
        candidate per demand and those candidates' loads fit every edge and
        node capacity (``<=`` with no tolerance), the optimum is known in
        closed form: each demand on its candidate, or on its rejection
        column if it has none, with capacity prices zero and each convexity
        price the chosen column's cost. Every pool column then has a
        nonnegative reduced cost, and rejection columns a positive one,
        since the penalty exceeds any path delay. The all-rejection pool of
        the first solve is one such case.

        With ``join_all``, a pool the closed form does not solve first takes
        in every table candidate, so HiGHS solves the full master and no
        candidate is left to price in.

        HiGHS runs through the module's ``linprog``, which is
        :func:`_call_highs`; a status other than optimal, including a point
        that fails the post-solve feasibility check, raises
        :class:`~cgroute.errors.SolverError`. HiGHS gets the costs times
        ``2**s`` (:func:`_cost_exponent`); the objective and the duals
        returned are scaled back, so they are in delay units.
        """
        closed = self._uncongested()
        if closed is not None:
            return closed
        if join_all:
            self.add(range(len(self.table)))
        cost, a_ub, a_eq = self._assemble()
        scale = _cost_exponent(self.dummy_penalty)
        b_eq = np.ones(len(self.demands))
        res = linprog(
            np.ldexp(cost, scale), a_ub, self._b_ub, a_eq, b_eq, integer=False, options=_LP_OPTIONS
        )
        if res.status != "optimal":
            raise SolverError(
                f"LP backend returned '{res.status}' on a master that is feasible "
                f"and bounded by construction: {res.message}"
            )
        n_rows, n_edges = len(self._b_ub), self.table.n_edges
        price = np.ldexp(-res.row_dual[:n_rows], -scale)
        price = np.where(price > 0.0, price, 0.0)
        return RmpSolution(
            values=tuple(res.x.tolist()),
            objective=math.ldexp(res.objective, -scale),
            duals=DualPoint(
                price[:n_edges], price[n_edges:], np.ldexp(res.row_dual[n_rows:], -scale)
            ),
        )

    def _uncongested(self) -> Optional[RmpSolution]:
        """The closed-form optimum of :meth:`solve`, or ``None`` if it does not apply."""
        t, n_dummy = self.table, len(self.demands)
        m = self.joined
        if not len(m):  # the all-rejection pool: nothing loads any row
            sigma = [self.dummy_penalty] * n_dummy
            return RmpSolution(
                values=(1.0,) * n_dummy,
                objective=sum(sigma),
                duals=DualPoint(np.zeros(t.n_edges), np.zeros(t.n_nodes), sigma),
            )
        owner = self.owner[n_dummy:]
        joined = np.bincount(owner, minlength=n_dummy)
        if (joined > 1).any():
            return None
        # Column by column, so each row sums its loads in path order; the
        # last bin is the pad row of direct paths.
        n_rows = len(self._b_ub)
        load = np.bincount(
            t.rows[m].T.ravel(), weights=np.tile(t.rate[m], 5), minlength=n_rows + 1
        )
        if not (load[:n_rows] <= self._b_ub).all():
            return None
        sigma = np.full(n_dummy, self.dummy_penalty)
        sigma[owner] = t.delay[m]
        values = np.concatenate((1.0 - joined, np.ones(len(m))))
        return RmpSolution(
            values=tuple(values.tolist()),
            objective=sum(sigma.tolist()),
            duals=DualPoint(np.zeros(t.n_edges), np.zeros(t.n_nodes), sigma),
        )

    def solve_integer(self, time_limit_s: float, node_limit: int) -> HighsResult:
        """Solve the pool as a 0/1 program with the HiGHS MIP solver.

        Same matrices and cost scaling as :meth:`solve`, with every column
        binary, a zero relative gap and :data:`_MIP_OPTIONS`, so ``status``
        is ``optimal`` only when proven; a budget cut gives ``time_limit``
        or ``node_limit``. ``x`` holds the best integer point found, or is
        ``None`` if there is none yet. ``objective`` and ``dual_bound`` are
        scaled back to delay units, and ``nodes`` counts HiGHS's
        branch-and-bound nodes (``milp``, the SciPy 1.10 fallback, leaves it
        ``None`` where it has no point). HiGHS runs through
        :func:`_call_highs` by name, not through the module's ``linprog``,
        which carries the LP calls only.
        """
        cost, a_ub, a_eq = self._assemble()
        scale = _cost_exponent(self.dummy_penalty)
        options = {**_MIP_OPTIONS, "time_limit": time_limit_s, "mip_max_nodes": node_limit}
        b_eq = np.ones(len(self.demands))
        res = _call_highs(
            np.ldexp(cost, scale), a_ub, self._b_ub, a_eq, b_eq, integer=True, options=options
        )
        if res.objective is not None:
            res.objective = math.ldexp(res.objective, -scale)
        if res.dual_bound is not None:
            res.dual_bound = math.ldexp(res.dual_bound, -scale)
        return res

    # -- diagnostics ----------------------------------------------------------

    def dump_lp(self) -> str:
        """Render the assembled LP in CPLEX LP text format for external checks.

        Capacity rows without any column are omitted; terms follow column
        order within each row.
        """
        cost, a_ub, a_eq = self._assemble()
        edges = list(self.graph.edges)
        lines = ["\\ restricted master debug dump", "Minimize"]
        lines.append(" obj: " + " + ".join(f"{c!r} y{j}" for j, c in enumerate(cost.tolist())))
        lines.append("Subject To")
        for r, ((cols, coeffs), bound) in enumerate(zip(_rows(a_ub), self._b_ub.tolist())):
            if cols:
                name = f"e_{edges[r][0]}_{edges[r][1]}" if r < len(edges) else f"n_{r - len(edges)}"
                lhs = " + ".join(f"{a!r} y{j}" for a, j in zip(coeffs, cols))
                lines.append(f" cap_{name}: {lhs} <= {bound!r}")
        for d, (cols, _) in zip(self.demands, _rows(a_eq)):
            lines.append(f" cvx_{d.id}: {' + '.join(f'y{j}' for j in cols)} = 1")
        lines.append("Bounds")
        lines.extend(f" 0 <= y{j}" for j in range(len(cost)))
        lines.append("End")
        return "\n".join(lines) + "\n"


def _rows(matrix) -> list[tuple[list[int], list[float]]]:
    """Column indices and coefficients of every row, columns ascending."""
    csr = matrix.tocsr()
    csr.sort_indices()
    bounds = csr.indptr.tolist()
    return [
        (csr.indices[a:b].tolist(), csr.data[a:b].tolist()) for a, b in zip(bounds, bounds[1:])
    ]


# -- HiGHS ------------------------------------------------------------------


def _call_highs(c, a_ub, b_ub, a_eq, b_eq, integer, options) -> HighsResult:
    """Minimize ``c @ x`` over ``A_ub x <= b_ub``, ``A_eq x == b_eq`` and ``x >= 0``.

    With ``integer`` every column is binary and HiGHS runs its MIP solver;
    otherwise it runs dual simplex on the LP. A fresh HiGHS from SciPy's
    bundled binding gets ``[A_ub; A_eq]`` in CSC form through the array
    overload of ``passModel``, which hands HiGHS the buffers as they are
    (filling a ``HighsLp``, as SciPy's wrapper does, copies them element
    by element). Output is off. An option HiGHS rejects raises
    :class:`~cgroute.errors.ContractError`, except one in
    :data:`_OPTIONAL_OPTIONS`, which the solve goes on without. An optimal
    LP point must pass ``linprog``'s post-solve check (:func:`_feasible`).

    SciPy 1.10 bundles no binding (``_highs is None``); there ``linprog``
    or ``milp`` solves the same model, and its status code 0-4 is read as
    ``optimal``, ``iteration_limit`` (a MIP's ``time_limit``),
    ``infeasible``, ``unbounded`` and ``numerical`` (``milp``'s node limit).
    """
    if _highs is None:
        row_dual = None
        if integer:
            res = milp(
                c,
                integrality=np.ones(len(c)),
                bounds=Bounds(0.0, 1.0),
                constraints=[
                    LinearConstraint(a_ub, -np.inf, b_ub),
                    LinearConstraint(a_eq, b_eq, b_eq),
                ],
                options={
                    "mip_rel_gap": options["mip_rel_gap"],
                    "time_limit": options["time_limit"],
                    "node_limit": options["mip_max_nodes"],
                },
            )
        else:
            res = _scipy_linprog(c, a_ub, b_ub, a_eq, b_eq, method="highs", options=options)
            if res.status == 0:
                row_dual = np.concatenate((res.ineqlin.marginals, res.eqlin.marginals))
        limit = "time_limit" if integer else "iteration_limit"
        return HighsResult(
            status=("optimal", limit, "infeasible", "unbounded", "numerical")[res.status],
            x=res.x,
            objective=res.fun,
            row_dual=row_dual,
            nodes=res.get("mip_node_count"),
            dual_bound=res.get("mip_dual_bound"),
            message=res.message,
        )
    h = _highs
    highs = h._Highs()
    if not integer:
        dual_simplex = int(h.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
        options = {"simplex_strategy": dual_simplex, **options}
    for name, value in {"output_flag": False, **options}.items():
        if name == "presolve":
            value = "on" if value else "off"
        rejected = highs.setOptionValue(name, value) != h.HighsStatus.kOk
        if rejected and name not in _OPTIONAL_OPTIONS:
            raise ContractError(f"HiGHS rejected option {name}={value!r}")
    a = sparse.csc_array(sparse.vstack((a_ub, a_eq)))
    n_rows, n_cols = a.shape
    passed = highs.passModel(
        n_cols,
        n_rows,
        a.nnz,
        int(h.MatrixFormat.kColwise),
        int(h.ObjSense.kMinimize),
        0.0,
        c,
        np.zeros(n_cols),
        np.full(n_cols, 1.0 if integer else h.kHighsInf),
        np.concatenate((np.full(len(b_ub), -h.kHighsInf), b_eq)),
        np.concatenate((b_ub, b_eq)),
        a.indptr,
        a.indices,
        a.data,
        np.full(n_cols, int(integer), dtype=np.int32),
    )
    ran = passed != h.HighsStatus.kError and highs.run() != h.HighsStatus.kError
    model_status, info = highs.getModelStatus(), highs.getInfo()
    res = HighsResult(_HIGHS_STATUS.get(model_status.name, "numerical") if ran else "numerical")
    if res.status != "optimal":
        res.message = f"HiGHS model status {highs.modelStatusToString(model_status)}"
    if integer:
        res.nodes, res.dual_bound = info.mip_node_count, info.mip_dual_bound
        feasible = int(h.SolutionStatus.kSolutionStatusFeasible)
        if not ran or info.primal_solution_status != feasible:
            return res
    elif res.status != "optimal":
        return res
    solution = highs.getSolution()
    res.x, res.objective = np.array(solution.col_value), info.objective_function_value
    if not integer:
        res.row_dual = np.array(solution.row_dual)
        if not _feasible(a, b_ub, b_eq, res.x, res.objective):
            res.status = "numerical"
            res.message = f"optimal point outside the post-solve tolerance of {_CHECK_TOL:.2E}"
    return res


def _feasible(a, b_ub, b_eq, x, objective) -> bool:
    """``linprog``'s post-solve check of an optimal point, at ``tol`` = :data:`_CHECK_TOL`.

    No NaN, ``x >= -tol``, capacity slack ``>= -tol`` and every convexity
    residual within ``tol``.
    """
    m = len(b_ub)
    activity = a @ x
    if np.isnan(x).any() or np.isnan(objective) or np.isnan(activity).any():
        return False
    slack, con = b_ub - activity[:m], b_eq - activity[m:]
    tol = _CHECK_TOL
    return bool((x >= -tol).all() and (slack >= -tol).all() and (np.abs(con) <= tol).all())


# ``RestrictedMaster.solve`` calls HiGHS through this module attribute, which
# perfbench wraps as its ``rmp.highs`` span (``solve_integer`` calls
# ``_call_highs`` by name); its rename waits for ROADMAP item 7.
linprog = _call_highs
