"""Restricted master problem: the LP over the columns generated so far.

Each column couples one candidate path to its demand. The LP minimizes the
total delay of the selected path mix subject to edge capacities, node
processing limits and one convexity row per demand, with the integrality of
the path choice relaxed. Solving returns both the primal mix and the dual
prices that drive pricing. The exact benchmark solves the same matrices
as a 0/1 program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, OptimizeResult, linprog, milp

from .errors import ContractError, InputError, SolverError
from .model import (
    Demand,
    Edge,
    OverlayGraph,
    Path,
    dummy_penalty,
    make_dummy_path,
    qos_feasible,
)

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
    """One LP variable: a (demand, path) pair.

    Its capacity footprint (the demand's rate on every edge and node of the
    path) is derived by the master when the column joins the pool.
    """

    demand_id: int
    path: Path
    cost: float

    @classmethod
    def from_path(cls, path: Path, demand: Demand) -> "Column":
        if path.demand_id != demand.id:
            raise ContractError("path/demand mismatch")
        return cls(demand.id, path, path.total_delay_ms)

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
    status: str


def dual_objective(duals: DualPoint, graph: OverlayGraph) -> float:
    """Value of the dual point: sum of convexity prices minus paid capacity."""
    caps = [m.capacity_mbps for m in graph.edges.values()]
    paid = sum(lam * cap for lam, cap in zip(duals.edge_duals.tolist(), caps))
    paid += sum(nu * cap for nu, cap in zip(duals.node_duals.tolist(), graph.node_limits))
    return sum(duals.convexity_duals.tolist()) - paid


class RestrictedMaster:
    """Mutable column pool plus LP assembly and solve.

    Construction seeds one dummy column per demand, so the LP is feasible
    and bounded from the first solve onward. Only this class may create
    dummy columns. The capacity rows are kept in compressed-column form as
    columns join. The LP relaxation and the integer problem are built from
    the same assembled matrices.
    """

    def __init__(self, graph: OverlayGraph, demands: Sequence[Demand]):
        if not demands:
            raise InputError("master needs at least one demand")
        ids = [d.id for d in demands]
        if len(set(ids)) != len(ids):
            raise InputError("demand ids must be unique")
        self.graph = graph
        self.demands = tuple(sorted(demands, key=lambda d: d.id))
        self.dummy_penalty = dummy_penalty(graph)
        self._demand_by_id = {d.id: d for d in self.demands}

        self._edge_rows = {e: r for r, e in enumerate(graph.edges)}
        self._node_offset = len(self._edge_rows)
        self._eq_row = {d.id: r for r, d in enumerate(self.demands)}
        self._b_ub = np.array(
            [graph.edges[e].capacity_mbps for e in self._edge_rows] + list(graph.node_limits)
        )

        self._columns: list[Column] = []
        self._view: tuple[Column, ...] = ()
        self._by_demand: dict[int, list[int]] = {d.id: [] for d in self.demands}
        self._dedup: dict[tuple, int] = {}
        # Capacity-row footprint of every column, compressed by column.
        self._rows: list[int] = []
        self._coeffs: list[float] = []
        self._indptr: list[int] = [0]
        for d in self.demands:
            self._append(Column.from_path(make_dummy_path(d, self.dummy_penalty), d))

    # -- pool ---------------------------------------------------------------

    @property
    def columns(self) -> Sequence[Column]:
        if len(self._view) != len(self._columns):
            self._view = tuple(self._columns)
        return self._view

    @property
    def pool_size(self) -> int:
        return len(self._columns)

    def columns_of(self, demand_id: int) -> list[int]:
        return list(self._by_demand[demand_id])

    def _key(self, column: Column) -> tuple:
        return (column.demand_id, column.path.edges, column.is_dummy)

    def _append(self, column: Column) -> int:
        cid = len(self._columns)
        self._columns.append(column)
        self._by_demand[column.demand_id].append(cid)
        self._dedup[self._key(column)] = cid
        path = column.path
        # Rows in ascending order keep the matrix canonical, so the LP
        # backend sees one fixed entry order.
        rows = sorted(
            [self._edge_rows[e] for e in path.edges]
            + [self._node_offset + i for i in path.nodes]
        )
        self._rows.extend(rows)
        self._coeffs.extend([self._demand_by_id[column.demand_id].rate_mbps] * len(rows))
        self._indptr.append(len(self._rows))
        return cid

    def add_column(self, column: Column) -> int:
        """Add a priced-out column; re-adding an existing one is a no-op."""
        if column.demand_id not in self._demand_by_id:
            raise ContractError(f"unknown demand id {column.demand_id}")
        if column.is_dummy:
            raise ContractError("dummy columns are created internally only")
        demand = self._demand_by_id[column.demand_id]
        if not qos_feasible(column.path, demand):
            raise ContractError("column path violates the demand's QoS bounds")
        existing = self._dedup.get(self._key(column))
        if existing is not None:
            return existing
        return self._append(column)

    # -- LP -----------------------------------------------------------------

    def _assemble(self):
        n = len(self._columns)
        cost = np.array([c.cost for c in self._columns])
        a_ub = sparse.csc_matrix(
            (
                np.array(self._coeffs, dtype=float),
                np.array(self._rows, dtype=np.int32),
                np.array(self._indptr, dtype=np.int32),
            ),
            shape=(len(self._b_ub), n),
        )
        eq_rows = [self._eq_row[c.demand_id] for c in self._columns]
        a_eq = sparse.csc_matrix(
            (np.ones(n), np.array(eq_rows, dtype=np.int32), np.arange(n + 1, dtype=np.int32)),
            shape=(len(self.demands), n),
        )
        return cost, a_ub, a_eq

    def solve(self) -> RmpSolution:
        """Solve the LP over the current pool and return primal and duals."""
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
                price[: self._node_offset], price[self._node_offset :], res.eqlin.marginals
            ),
            status=status,
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
        """Render the current LP in CPLEX LP text format for external checks."""
        lines = ["\\ restricted master debug dump", "Minimize"]
        terms = " + ".join(f"{c.cost!r} y{j}" for j, c in enumerate(self._columns))
        lines.append(f" obj: {terms}")
        lines.append("Subject To")
        edge_terms: dict[Edge, list[str]] = {e: [] for e in self._edge_rows}
        node_terms: list[list[str]] = [[] for _ in range(self.graph.n_nodes)]
        for j, col in enumerate(self._columns):
            term = f"{self._demand_by_id[col.demand_id].rate_mbps!r} y{j}"
            for e in col.path.edges:
                edge_terms[e].append(term)
            for i in col.path.nodes:
                node_terms[i].append(term)
        for e, lhs in edge_terms.items():
            if lhs:
                cap = self.graph.edges[e].capacity_mbps
                lines.append(f" cap_e_{e[0]}_{e[1]}: {' + '.join(lhs)} <= {cap!r}")
        for i, lhs in enumerate(node_terms):
            if lhs:
                lines.append(
                    f" cap_n_{i}: {' + '.join(lhs)} <= {self.graph.node_limits[i]!r}"
                )
        for d in self.demands:
            lhs = " + ".join(f"y{j}" for j in self._by_demand[d.id])
            lines.append(f" cvx_{d.id}: {lhs} = 1")
        lines.append("Bounds")
        for j in range(len(self._columns)):
            lines.append(f" 0 <= y{j}")
        lines.append("End")
        return "\n".join(lines) + "\n"
