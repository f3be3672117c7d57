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
relaxed. :meth:`RestrictedMaster.solve` is the one HiGHS LP: it returns
the primal mix, one weight per pool column, and the dual prices that
drive pricing, one per capacity row and one per convexity row. A pool
with at most one candidate per demand whose loads fit every capacity
has a closed-form optimum, with zero capacity prices, which
:meth:`RestrictedMaster.closed_form` gives without HiGHS. The exact
benchmark solves the same model, built once per solve in HiGHS's own
form (one CSC matrix with row bounds), as a 0/1 program. Both go
unchanged through one entry point, :func:`_call_highs`, into HiGHS's own
binding as SciPy bundles it. :func:`_load_highs` loads that binding from
its own file, so importing this module does not run ``scipy.optimize``'s
package init.

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

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence

import numpy as np
import scipy

from .errors import ContractError, InputError, SolverError
from .model import Path, dummy_penalty, make_dummy_path

if TYPE_CHECKING:
    from .pricing import CandidateTable


def _load_highs():
    """HiGHS's own binding, as SciPy bundles it, without ``scipy.optimize``.

    ``from scipy.optimize._highspy import _core`` would first run
    ``scipy.optimize``'s package ``__init__``, which imports
    ``scipy.sparse``, ``scipy.linalg``, ``scipy.special`` and more: over
    300 modules and about 40 MB of memory that nothing here uses. So the
    extension is loaded from its own file, under its full name, and
    registered in ``sys.modules``, where a later ``import scipy.optimize``
    finds and reuses it. A pybind11 module loads only once per process, so
    one already there (from an earlier ``import scipy.optimize``) is
    returned as it is.
    """
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    where = os.path.join(os.path.dirname(scipy.__file__), "optimize", "_highspy")
    # Unlike importlib.util.find_spec, PathFinder imports no parent package.
    spec = importlib.machinery.PathFinder.find_spec(name, [where])
    if spec is None:
        raise ImportError(
            f"SciPy {scipy.__version__} bundles no HiGHS binding ({name}); cgroute needs scipy>=1.15"
        )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module


_highs = _load_highs()

# HiGHS is already tight by default; pin the tolerances so dual certificates
# stay inside the 1e-7 reduced-cost threshold used by pricing. They act on
# the scaled costs, so in delay units the dual tolerance is 1e-9 * 2**-s
# (2.6e-7 at s = -8); the solver tests re-price the whole table at 1e-7 on
# scaled masters.
_LP_OPTIONS = {
    "presolve": "on",
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
    """Dual prices from one master solve, as arrays in the master's row order.

    ``capacity`` holds one price per row of
    :attr:`RestrictedMaster.capacity`: edges in ``graph.edges`` order, then
    nodes. Each must be nonnegative, which construction checks once for
    every pricing pass that reads the point. ``convexity`` carries one free
    multiplier per demand, in ascending demand id order.
    """

    capacity: np.ndarray
    convexity: np.ndarray

    def __post_init__(self):
        for name in ("capacity", "convexity"):
            values = np.array(getattr(self, name), dtype=float)
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        if (self.capacity < 0.0).any():
            raise ContractError("capacity duals must be nonnegative")


@dataclass(frozen=True, eq=False)
class RmpSolution:
    """Primal/dual optimum of the master over its current column pool.

    ``values`` (a read-only float array) holds one weight per pool column,
    in pool order; ``duals`` the master's row prices.
    """

    values: np.ndarray
    objective: float
    duals: DualPoint

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


@dataclass
class HighsResult:
    """One HiGHS call's outcome, in the cost units HiGHS was given.

    ``status`` is a name from :data:`_HIGHS_STATUS`, else ``numerical``.
    ``x`` and ``objective`` are the LP's optimal point or the MIP's best
    integer point, ``None`` without one. ``row_dual`` (an LP's, capacity
    rows first) is ``None`` where it does not apply; ``nodes`` and
    ``dual_bound`` are set on every MIP whose run succeeded, are 0 and
    ``None`` on a MIP whose run failed, and are ``None`` on an LP.
    ``message`` says why a solve is not optimal.
    """

    status: str
    x: Optional[np.ndarray] = None
    objective: Optional[float] = None
    row_dual: Optional[np.ndarray] = None
    nodes: Optional[int] = None
    dual_bound: Optional[float] = None
    message: str = ""


def ordered_sum(values: Iterable[float]) -> float:
    """``values`` added one at a time from 0.0, in order: every reported
    total. From Python 3.12 the builtin ``sum`` compensates float rounding.
    """
    total = 0.0
    for v in values:
        total += v
    return total


def first_least(values: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Segmented argmin: the index of the first least entry of each segment
    ``values[starts[i]:starts[i] + counts[i]]``, the segments nonempty and
    tiling ``values`` in order. ``-0.0`` ties ``0.0``; ``-x`` gives the first largest ``x``.
    """
    lows = np.repeat(np.minimum.reduceat(values, starts), counts)
    at_low = np.where(values == lows, np.arange(len(values)), len(values))
    return np.minimum.reduceat(at_low, starts)


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

    @classmethod
    def empty(cls, table: CandidateTable) -> Routing:
        """The routing of an empty demand set, over its (empty) ``table``."""
        return cls(table, np.zeros(0, dtype=bool), np.zeros(0, dtype=np.intp), {})

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
    onward; the rest are table candidates in the order they joined. The
    LP relaxation and the integer problem are one model, sliced from the
    table's arrays (:meth:`_assemble`): :meth:`solve` hands the LP to
    HiGHS, :meth:`closed_form` answers it without HiGHS where capacity
    cannot bind, and :meth:`solve_integer` solves the 0/1 program. Rows
    are ``capacity`` rows, then one convexity row per demand; ``capacity``
    (read-only) bounds every row of the table's row map except the pad.
    A column's :class:`~cgroute.model.Path` is made only when it is read,
    through :meth:`column`, :attr:`columns` or the :class:`Routing` of
    :meth:`routing`. The master is made from its table alone: ``graph``
    is ``table.graph``, whose edge arrays and node limits give the
    capacities and the rejection penalty.
    """

    def __init__(self, table: CandidateTable):
        if not table.demands:
            raise InputError("master needs at least one demand")
        # Each demand's position: its convexity row and its rejection column.
        self._row = {d.id: r for r, d in enumerate(table.demands)}
        if len(self._row) != len(table.demands):
            raise InputError("demand ids must be unique")
        self.graph = graph = table.graph
        self.table = table
        self.demands = table.demands
        self.dummy_penalty = dummy_penalty(graph, table.demands)
        self.capacity = np.concatenate((graph.arrays.capacity, graph.node_limits))
        self.capacity.flags.writeable = False
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
        """Each demand's pool column with the largest ``x`` (:func:`first_least`
        of ``-x``), in convexity-row order.

        On a tie the first in pool order wins: the rejection column, then
        the candidates in join order.
        """
        _, order, bounds = self._grouped()
        return order[first_least(-x[order], bounds[:-1], np.diff(bounds))]

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
        return Routing(self.table, accepted, picked, self._row), ordered_sum(cost.tolist())

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

    def _assemble(self) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Cost vector and the constraint matrix, as HiGHS takes them.

        The matrix is ``[capacity rows; convexity rows]`` as one int32 CSC
        triple ``(indptr, indices, data)``. A rejection column holds only
        its convexity 1. A candidate holds its table ``rows`` at the
        demand's rate, ascending so HiGHS sees one fixed entry order, with
        the pad row (which sorts last) dropped, then its convexity 1. Each
        column's slice is what ``Highs.addCols`` takes.
        """
        t, n_dummy = self.table, len(self.demands)
        m = self.joined
        n_rows = len(self.capacity)
        rows = np.sort(t.rows[m], axis=1)
        keep = np.hstack((rows < n_rows, np.ones((len(m), 1), dtype=bool)))
        rows = np.hstack((rows, n_rows + self.owner[n_dummy:, None]))
        coeffs = np.hstack((np.repeat(t.rate[m, None], 5, axis=1), np.ones((len(m), 1))))
        per_column = np.concatenate((np.ones(n_dummy, dtype=np.intp), keep.sum(axis=1)))
        indptr = np.concatenate(([0], np.cumsum(per_column))).astype(np.int32)
        indices = np.concatenate((n_rows + np.arange(n_dummy), rows[keep])).astype(np.int32)
        data = np.concatenate((np.ones(n_dummy), coeffs[keep]))
        cost = np.concatenate((np.full(n_dummy, self.dummy_penalty), t.delay[m]))
        return cost, (indptr, indices, data)

    def _solve_scaled(self, integer: bool, options: Mapping) -> HighsResult:
        """Solve the pool's model, capacity rows in ``(-inf, capacity]`` and
        convexity rows in ``[1, 1]``, on costs times ``2**s`` (:func:`_cost_exponent`);
        scale the objective, the dual bound and the row duals back by ``2**-s``.
        """
        # The LP goes through the module's ``linprog``, which perfbench wraps.
        call = _call_highs if integer else linprog
        cost, a = self._assemble()
        n_rows, n_dummy = len(self.capacity), len(self.demands)
        lower = np.concatenate((np.full(n_rows, -np.inf), np.ones(n_dummy)))
        upper = np.concatenate((self.capacity, np.ones(n_dummy)))
        scale = _cost_exponent(self.dummy_penalty)
        res = call(np.ldexp(cost, scale), a, lower, upper, integer=integer, options=options)
        if res.objective is not None:
            res.objective = math.ldexp(res.objective, -scale)
        if res.dual_bound is not None:
            res.dual_bound = math.ldexp(res.dual_bound, -scale)
        if res.row_dual is not None:
            res.row_dual = np.ldexp(res.row_dual, -scale)
        return res

    def solve(self) -> RmpSolution:
        """Solve the LP over the current pool with HiGHS; return primal and duals.

        HiGHS runs on the :meth:`_assemble` model through the module's
        ``linprog``, which is :func:`_call_highs`; a status other than
        optimal, including a point that fails the post-solve feasibility
        check, raises :class:`~cgroute.errors.SolverError`. HiGHS gets the
        costs times ``2**s`` (:func:`_cost_exponent`); the objective and
        the duals returned are scaled back, so they are in delay units.
        Capacity prices are HiGHS's capacity-row duals negated, with any
        negative noise clipped to zero.
        """
        res = self._solve_scaled(integer=False, options=_LP_OPTIONS)
        if res.status != "optimal":
            raise SolverError(
                f"LP backend returned '{res.status}' on a master that is feasible "
                f"and bounded by construction: {res.message}"
            )
        n_rows = len(self.capacity)
        price = -res.row_dual[:n_rows]
        return RmpSolution(
            values=res.x,
            objective=res.objective,
            duals=DualPoint(np.where(price > 0.0, price, 0.0), res.row_dual[n_rows:]),
        )

    def closed_form(self) -> Optional[RmpSolution]:
        """The LP's optimum without HiGHS, or ``None`` when capacity may bind.

        When the pool holds at most one candidate per demand and those
        candidates' loads fit every edge and node capacity (``<=`` with no
        tolerance), the optimum is known in closed form: each demand on its
        candidate, or on its rejection column if it has none, with capacity
        prices zero and each convexity price the chosen column's cost.
        Every pool column then has a nonnegative reduced cost, and rejection
        columns a positive one, since the penalty exceeds any path delay. A
        pool of rejection columns alone is one such case.
        """
        t, n_dummy = self.table, len(self.demands)
        m = self.joined
        owner = self.owner[n_dummy:]
        joined = np.bincount(owner, minlength=n_dummy)
        if (joined > 1).any():
            return None
        # Column by column, so each row sums its loads in path order; the
        # last bin is the pad row of direct paths.
        n_rows = len(self.capacity)
        load = np.bincount(
            t.rows[m].T.ravel(), weights=np.tile(t.rate[m], 5), minlength=n_rows + 1
        )
        if not (load[:n_rows] <= self.capacity).all():
            return None
        sigma = np.full(n_dummy, self.dummy_penalty)
        sigma[owner] = t.delay[m]
        return RmpSolution(
            values=np.concatenate((1.0 - joined, np.ones(len(m)))),
            objective=ordered_sum(sigma.tolist()),
            duals=DualPoint(np.zeros(n_rows), sigma),
        )

    def solve_integer(self, time_limit_s: float, node_limit: int) -> HighsResult:
        """Solve the pool as a 0/1 program with the HiGHS MIP solver.

        Same model and cost scaling as :meth:`solve`, with every column
        binary, a zero relative gap and :data:`_MIP_OPTIONS`, so ``status``
        is ``optimal`` only when proven; a budget cut gives ``time_limit``
        or ``node_limit``. ``x`` holds the best integer point found, or is
        ``None`` if there is none yet. ``objective`` and ``dual_bound`` are
        scaled back to delay units, and ``nodes`` counts HiGHS's
        branch-and-bound nodes. HiGHS runs through :func:`_call_highs` by
        name, not through the module's ``linprog``, which carries the LP
        calls only.
        """
        options = {**_MIP_OPTIONS, "time_limit": time_limit_s, "mip_max_nodes": node_limit}
        return self._solve_scaled(integer=True, options=options)

    # -- diagnostics ----------------------------------------------------------

    def dump_lp(self) -> str:
        """Render the assembled LP in CPLEX LP text format for external checks.

        Capacity rows without any column are omitted; terms follow column
        order within each row.
        """
        cost, a = self._assemble()
        n_rows, edges = len(self.capacity), list(self.graph.edges)
        rows = _rows(a, n_rows + len(self.demands))
        lines = ["\\ restricted master debug dump", "Minimize"]
        lines.append(" obj: " + " + ".join(f"{c!r} y{j}" for j, c in enumerate(cost.tolist())))
        lines.append("Subject To")
        for r, ((cols, coeffs), bound) in enumerate(zip(rows, self.capacity.tolist())):
            if cols:
                name = f"e_{edges[r][0]}_{edges[r][1]}" if r < len(edges) else f"n_{r - len(edges)}"
                lhs = " + ".join(f"{a!r} y{j}" for a, j in zip(coeffs, cols))
                lines.append(f" cap_{name}: {lhs} <= {bound!r}")
        for d, (cols, _) in zip(self.demands, rows[n_rows:]):
            lines.append(f" cvx_{d.id}: {' + '.join(f'y{j}' for j in cols)} = 1")
        lines.append("Bounds")
        lines.extend(f" 0 <= y{j}" for j in range(len(cost)))
        lines.append("End")
        return "\n".join(lines) + "\n"


def _rows(a, n_rows: int) -> list[tuple[list[int], list[float]]]:
    """Column indices and coefficients of every row of the CSC triple ``a``,
    columns ascending: a stable sort by row keeps the column order."""
    indptr, indices, data = a
    order = np.argsort(indices, kind="stable")
    cols = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))[order].tolist()
    coeffs = data[order].tolist()
    bounds = np.searchsorted(indices[order], np.arange(n_rows + 1)).tolist()
    return [(cols[a:b], coeffs[a:b]) for a, b in zip(bounds, bounds[1:])]


# -- HiGHS ------------------------------------------------------------------


def _call_highs(c, a, lower, upper, integer, options) -> HighsResult:
    """Minimize ``c @ x`` over ``lower <= A x <= upper`` and ``x >= 0``.

    ``a`` is ``A`` as a CSC triple ``(indptr, indices, data)``. With
    ``integer`` every column is binary and HiGHS runs its MIP solver;
    otherwise it runs dual simplex on the LP. A fresh HiGHS from SciPy's
    bundled binding gets the arrays through the array overload of
    ``passModel``, which hands HiGHS the buffers as they are (filling a
    ``HighsLp``, as SciPy's wrapper does, copies them element by
    element). Output is off. An option HiGHS rejects raises
    :class:`~cgroute.errors.ContractError`, except one in
    :data:`_OPTIONAL_OPTIONS`, which the solve goes on without. An optimal
    LP point must pass ``linprog``'s post-solve check (:func:`_feasible`).
    """
    h = _highs
    highs = h._Highs()
    if not integer:
        dual_simplex = int(h.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
        options = {"simplex_strategy": dual_simplex, **options}
    for name, value in {"output_flag": False, **options}.items():
        rejected = highs.setOptionValue(name, value) != h.HighsStatus.kOk
        if rejected and name not in _OPTIONAL_OPTIONS:
            raise ContractError(f"HiGHS rejected option {name}={value!r}")
    n_cols = len(c)
    passed = highs.passModel(
        n_cols,
        len(lower),
        len(a[2]),
        int(h.MatrixFormat.kColwise),
        int(h.ObjSense.kMinimize),
        0.0,
        c,
        np.zeros(n_cols),
        np.full(n_cols, 1.0 if integer else h.kHighsInf),
        lower,
        upper,
        *a,
        np.full(n_cols, int(integer), dtype=np.int32),
    )
    ran = passed != h.HighsStatus.kError and highs.run() != h.HighsStatus.kError
    model_status, info = highs.getModelStatus(), highs.getInfo()
    res = HighsResult(_HIGHS_STATUS.get(model_status.name, "numerical") if ran else "numerical")
    if res.status != "optimal":
        res.message = f"HiGHS model status {highs.modelStatusToString(model_status)}"
    if integer:
        # After a failed run HiGHS's info holds sentinels (a node count of -1).
        res.nodes, res.dual_bound = (info.mip_node_count, info.mip_dual_bound) if ran else (0, None)
        feasible = int(h.SolutionStatus.kSolutionStatusFeasible)
        if not ran or info.primal_solution_status != feasible:
            return res
    elif res.status != "optimal":
        return res
    solution = highs.getSolution()
    res.x, res.objective = np.array(solution.col_value), info.objective_function_value
    if not integer:
        res.row_dual = np.array(solution.row_dual)
        if not _feasible(a, lower, upper, res.x, res.objective):
            res.status = "numerical"
            res.message = f"optimal point outside the post-solve tolerance of {_CHECK_TOL:.2E}"
    return res


def _feasible(a, lower, upper, x, objective) -> bool:
    """``linprog``'s post-solve check of an optimal point, at ``tol`` = :data:`_CHECK_TOL`.

    No NaN, ``x >= -tol`` and every row's activity within ``tol`` of its
    bounds. The activity sums each row column by column, as SciPy's CSC
    product does.
    """
    indptr, indices, data = a
    activity = np.bincount(indices, data * np.repeat(x, np.diff(indptr)), len(upper))
    if np.isnan(x).any() or np.isnan(objective) or np.isnan(activity).any():
        return False
    tol = _CHECK_TOL
    return bool(
        (x >= -tol).all() and (upper - activity >= -tol).all() and (activity - lower >= -tol).all()
    )


# ``RestrictedMaster.solve`` calls HiGHS through this module attribute, which
# perfbench wraps as its ``rmp.highs`` span (``solve_integer`` calls
# ``_call_highs`` by name); its rename waits for ROADMAP item 7.
linprog = _call_highs
