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
program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, OptimizeResult, linprog, milp

from .errors import ContractError, InputError, SolverError
from .model import Demand, OverlayGraph, Path, dummy_penalty, make_dummy_path

if TYPE_CHECKING:
    from .pricing import CandidateTable

# HiGHS is already tight by default; pin the tolerances so dual certificates
# stay well inside the 1e-7 reduced-cost threshold used by pricing.
_LP_OPTIONS = {
    "presolve": True,
    "primal_feasibility_tolerance": 1e-9,
    "dual_feasibility_tolerance": 1e-9,
}

_STATUS = {
    0: "optimal",
    1: "iteration_limit",
    2: "infeasible",
    3: "unbounded",
    4: "numerical",
}


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


def dual_objective(duals: DualPoint, graph: OverlayGraph) -> float:
    """Value of the dual point: sum of convexity prices minus paid capacity."""
    caps = [m.capacity_mbps for m in graph.edges.values()]
    paid = sum(lam * cap for lam, cap in zip(duals.edge_duals.tolist(), caps))
    paid += sum(nu * cap for nu, cap in zip(duals.node_duals.tolist(), graph.node_limits))
    return sum(duals.convexity_duals.tolist()) - paid


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
    :meth:`column` or :attr:`columns`.
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
        # Joined candidates in join order, and the same as a set.
        self._joined: list[int] = []
        self._members: set[int] = set()
        self._columns: tuple[Column, ...] = ()
        # The joined pool columns grouped by demand, made on first use.
        self._groups: Optional[tuple[list[int], list[int]]] = None

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
        """The table index of each joined candidate, in pool order."""
        return np.array(self._joined, dtype=np.intp)

    def column(self, j: int) -> Column:
        """Pool column ``j``, with its path made afresh."""
        n_dummy = len(self.demands)
        if j < n_dummy:
            return Column(make_dummy_path(self.demands[j], self.dummy_penalty))
        return Column(self.table.path(self._joined[j - n_dummy]))

    def columns_of(self, demand_id: int) -> list[int]:
        """The demand's rejection column, then its candidates in join order."""
        if self._groups is None:
            n_dummy = len(self.demands)
            owner = self.table.demand[self.joined]
            order = np.argsort(owner, kind="stable")
            bounds = np.searchsorted(owner[order], np.arange(n_dummy + 1))
            self._groups = ((order + n_dummy).tolist(), bounds.tolist())
        joined, bounds = self._groups
        r = self._row[demand_id]
        return [r] + joined[bounds[r] : bounds[r + 1]]

    def add(self, candidates: Iterable[int]) -> int:
        """Let table candidates join the pool; return how many were new."""
        added = 0
        size = len(self.table)
        for i in candidates:
            if not 0 <= i < size:
                raise ContractError(f"no candidate {i} in the table")
            if i in self._members:
                continue
            self._joined.append(i)
            self._members.add(i)
            added += 1
        if added:
            self._groups = None
        return added

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
        eq_rows = np.concatenate((np.arange(n_dummy), t.demand[m])).astype(np.int32)
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
        """
        closed = self._uncongested()
        if closed is not None:
            return closed
        if join_all:
            self.add(range(len(self.table)))
        cost, a_ub, a_eq = self._assemble()
        res = linprog(
            cost,
            A_ub=a_ub,
            b_ub=self._b_ub,
            A_eq=a_eq,
            b_eq=np.ones(len(self.demands)),
            bounds=(0.0, None),
            method="highs",
            options=_LP_OPTIONS,
        )
        status = _STATUS.get(res.status, f"status_{res.status}")
        if res.status != 0:
            raise SolverError(
                f"LP backend returned '{status}' on a master that is feasible "
                f"and bounded by construction: {res.message}"
            )
        price = -res.ineqlin.marginals
        price = np.where(price > 0.0, price, 0.0)
        return RmpSolution(
            values=tuple(res.x.tolist()),
            objective=float(res.fun),
            duals=DualPoint(
                price[: self.table.n_edges], price[self.table.n_edges :], res.eqlin.marginals
            ),
        )

    def _uncongested(self) -> Optional[RmpSolution]:
        """The closed-form optimum of :meth:`solve`, or ``None`` if it does not apply."""
        t, n_dummy = self.table, len(self.demands)
        m = self.joined
        owner = t.demand[m]
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

    def solve_integer(self, time_limit_s: float, node_limit: int) -> OptimizeResult:
        """Solve the pool as a 0/1 program with the HiGHS MIP solver.

        Same matrices as :meth:`solve`, with every column binary and a zero
        relative gap, so ``status == 0`` means proven optimal. On a budget
        cut ``status`` is 1 and ``x`` holds the best integer point found,
        or is ``None`` if there is none yet.
        """
        cost, a_ub, a_eq = self._assemble()
        return milp(
            cost,
            integrality=np.ones(len(cost)),
            bounds=Bounds(0.0, 1.0),
            constraints=[
                LinearConstraint(a_ub, -np.inf, self._b_ub),
                LinearConstraint(a_eq, 1.0, 1.0),
            ],
            options={
                "mip_rel_gap": 0.0,
                "time_limit": time_limit_s,
                "node_limit": node_limit,
            },
        )

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
