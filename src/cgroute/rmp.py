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
full master. HiGHS is called straight through SciPy's bundled binding
when the installed SciPy has one, with the model, options, status codes
and post-solve check of ``scipy.optimize.linprog``, which older SciPy
releases call instead. The exact benchmark solves the same matrices as a
0/1 program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, OptimizeResult, milp
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

# linprog's status code and message prefix for each HiGHS model status, as
# scipy.optimize._linprog_highs maps them; the direct call reports the same.
_LINPROG_STATUS = {
    "kOptimal": (0, "Optimization terminated successfully. "),
    "kTimeLimit": (1, "Time limit reached. "),
    "kIterationLimit": (1, "Iteration limit reached. "),
    "kInfeasible": (2, "The problem is infeasible. "),
    "kModelError": (2, ""),
    "kUnbounded": (3, "The problem is unbounded. "),
    "kUnboundedOrInfeasible": (4, "The problem is unbounded or infeasible. "),
    **dict.fromkeys(
        ("kNotset", "kLoadError", "kPresolveError", "kSolveError", "kPostsolveError",
         "kModelEmpty", "kObjectiveBound", "kObjectiveTarget"),
        (4, ""),
    ),
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
        # Joined candidates in join order, and a membership mask over the table.
        self._joined = np.zeros(0, dtype=np.intp)
        self._joined.flags.writeable = False
        self._member = np.zeros(len(table), dtype=bool)
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
        """The table index of each joined candidate, in pool order (read-only)."""
        return self._joined

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

        HiGHS runs through the module's ``linprog``: the direct call to
        SciPy's bundled binding where there is one, else
        ``scipy.optimize.linprog``. Both solve the same model with the same
        options and return the same point; a status other than optimal,
        including a solution that fails the post-solve feasibility check,
        raises :class:`~cgroute.errors.SolverError`.
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


# -- HiGHS ------------------------------------------------------------------


def _highs_linprog(c, *, A_ub, b_ub, A_eq, b_eq, bounds, method, options) -> OptimizeResult:
    """``scipy.optimize.linprog(method="highs")`` for the master, without its wrapper.

    Passes HiGHS the model ``linprog`` builds (``[A_ub; A_eq]`` in CSC
    form, capacity rows ``(-inf, b_ub]``, convexity rows ``[b_eq, b_eq]``,
    columns ``[0, inf)``) with the options it sets (``options`` plus dual
    simplex and no output), and returns its result fields ``solve`` reads:
    ``status`` and ``message`` as ``linprog`` reports them, ``x``, ``fun``
    and the row marginals. SciPy's own wrapper also walks every column's
    basis status in Python to fill bound marginals, which the master never
    reads. Only ``method="highs"`` with ``bounds=(0, None)`` is supported.
    """
    if method != "highs" or tuple(bounds) != (0.0, None):
        raise ContractError("the direct HiGHS call solves method='highs' with x >= 0 only")
    h = _highs
    highs = h._Highs()
    dual_simplex = int(h.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
    for name, value in {"output_flag": False, "simplex_strategy": dual_simplex, **options}.items():
        if name == "presolve":
            value = "on" if value else "off"
        if highs.setOptionValue(name, value) != h.HighsStatus.kOk:
            raise ContractError(f"HiGHS rejected option {name}={value!r}")
    a = sparse.csc_array(sparse.vstack((A_ub, A_eq)))
    n_rows, n_cols = a.shape
    # The array overload hands HiGHS the buffers as they are; filling a
    # HighsLp, as SciPy's wrapper does, copies them element by element.
    # Every column is continuous (integrality 0).
    passed = highs.passModel(
        n_cols,
        n_rows,
        a.nnz,
        int(h.MatrixFormat.kColwise),
        int(h.ObjSense.kMinimize),
        0.0,
        c,
        np.zeros(n_cols),
        np.full(n_cols, h.kHighsInf),
        np.concatenate((np.full(len(b_ub), -h.kHighsInf), b_eq)),
        np.concatenate((b_ub, b_eq)),
        a.indptr,
        a.indices,
        a.data,
        np.zeros(n_cols, dtype=np.int32),
    )
    if passed == h.HighsStatus.kError:
        status = h.HighsModelStatus.kModelError
        return _linprog_status(status, highs.modelStatusToString(status))
    if highs.run() == h.HighsStatus.kError:
        status = highs.getModelStatus()
        return _linprog_status(status, highs.modelStatusToString(status))
    status, info = highs.getModelStatus(), highs.getInfo()
    if status != h.HighsModelStatus.kOptimal:
        primal = highs.solutionStatusToString(info.primal_solution_status)
        return _linprog_status(
            status, f"model_status is {highs.modelStatusToString(status)}; primal_status is {primal}"
        )
    solution = highs.getSolution()
    x, dual = np.array(solution.col_value), np.array(solution.row_dual)
    return _checked(a, b_ub, b_eq, x, info.objective_function_value, dual)


def _linprog_status(status, text: str) -> OptimizeResult:
    """``linprog``'s status code and message for a HiGHS model status."""
    code, prefix = _LINPROG_STATUS.get(
        status.name, (4, "The HiGHS status code was not recognized. ")
    )
    return OptimizeResult(status=code, message=f"{prefix}(HiGHS Status {int(status)}: {text})")


def _checked(a, b_ub, b_eq, x, fun, dual) -> OptimizeResult:
    """An optimal HiGHS point, after ``linprog``'s post-solve feasibility check.

    Status 0 needs no NaN, ``x >= -tol``, capacity slack ``>= -tol`` and
    every convexity residual within ``tol``, with ``tol`` = :data:`_CHECK_TOL`;
    otherwise the status is 4, ``numerical``, with ``linprog``'s message.
    """
    m = len(b_ub)
    activity = a @ x
    slack, con = b_ub - activity[:m], b_eq - activity[m:]
    tol = _CHECK_TOL
    feasible = not (np.isnan(x).any() or np.isnan(fun) or np.isnan(activity).any()) and (
        (x >= -tol).all() and (slack >= -tol).all() and (np.abs(con) <= tol).all()
    )
    if feasible:
        result = _linprog_status(_highs.HighsModelStatus.kOptimal, "Optimal")
    else:
        result = OptimizeResult(
            status=4,
            message="The solution does not satisfy the constraints within the required "
            f"tolerance of {tol:.2E}, yet no errors were raised and there is no "
            "certificate of infeasibility or unboundedness. Check whether the slack "
            "and constraint residuals are acceptable; if not, consider enabling "
            "presolve, adjusting the tolerance option(s), and/or using a different "
            "method. Please consider submitting a bug report.",
        )
    result.update(
        x=x,
        fun=fun,
        ineqlin=OptimizeResult(marginals=dual[:m]),
        eqlin=OptimizeResult(marginals=dual[m:]),
    )
    return result


# ``RestrictedMaster.solve`` calls HiGHS through this module attribute, whose
# name stays ``linprog`` although it is the direct call wherever SciPy bundles
# the binding: perfbench wraps ``rmp.linprog`` as its ``rmp.highs`` span, so
# the rename waits for ROADMAP item 7.
linprog = _scipy_linprog if _highs is None else _highs_linprog
