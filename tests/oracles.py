"""Independent reference implementations used to check the solver stack.

Everything here is deliberately written from first principles (plain
loops, explicit residual tracking) so it shares no code path with the
implementations under test.
"""

from __future__ import annotations

import json
import math
from operator import attrgetter
from types import MappingProxyType
from typing import Optional, Sequence

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from cgroute.errors import ContractError, InputError
from cgroute.model import Demand, Edge, LinkMetrics, NodeId, OverlayGraph, Path
from cgroute.rmp import DualPoint, RestrictedMaster, RmpSolution
from cgroute.scenario import SyntheticParams, TelcoProfile, Trace, TraceEpoch

#: ``solver``'s rounding constants, repeated for :func:`reference_round`.
_INTEGRAL_TOL = 1e-6
_CAPACITY_SLACK = 1e-9


def make_path(graph: OverlayGraph, demand: Demand, relay: NodeId | None = None) -> Path:
    """Build the direct path for ``demand``, or the dogleg through ``relay``,
    summing its metrics over its edges in a scalar loop: the reference that
    ``pricing.route_metrics`` and ``CandidateTable.paths`` match bit for bit.
    """
    s, t = demand.source, demand.destination
    if relay is None:
        hops: tuple[Edge, ...] = ((s, t),)
        nodes: tuple[NodeId, ...] = (s, t)
    else:
        if relay == s or relay == t:
            raise ContractError(f"relay {relay} coincides with a path endpoint")
        hops = ((s, relay), (relay, t))
        nodes = (s, relay, t)
    missing = [e for e in hops if e not in graph.edges]
    if missing:
        raise InputError(f"graph has no edge {missing[0]}")
    delay = 0.0
    jitter = 0.0
    success = 1.0
    for e in hops:
        m = graph.edges[e]
        delay += m.delay_ms
        jitter += m.jitter_ms
        success *= m.success_prob
    return Path(
        demand_id=demand.id,
        edges=hops,
        nodes=nodes,
        total_delay_ms=delay,
        total_jitter_ms=jitter,
        success_prob=success,
    )


def qos_feasible(path: Path, demand: Demand) -> bool:
    """Whether ``path`` satisfies all of ``demand``'s hard constraints.

    Uses the product form of the success-probability bound, which is exact
    and better conditioned than a log-sum at one or two hops. Dummy paths
    are feasible by definition.
    """
    if path.is_dummy:
        return True
    if path.demand_id != demand.id:
        raise ContractError(
            f"path belongs to demand {path.demand_id}, not {demand.id}"
        )
    if path.nodes[0] != demand.source or path.nodes[-1] != demand.destination:
        raise ContractError("path endpoints do not match the demand")
    return (
        len(path.edges) <= 2
        and path.total_jitter_ms <= demand.max_jitter_ms
        and path.success_prob >= demand.min_success_prob
    )


def brute_force_candidates(graph: OverlayGraph, demand: Demand) -> list[Path]:
    """All <=2-hop routes over graph edges, filtered through qos_feasible."""
    s, t = demand.source, demand.destination
    out = []
    if (s, t) in graph.edges:
        p = make_path(graph, demand)
        if qos_feasible(p, demand):
            out.append(p)
    for relay in range(graph.n_nodes):
        if relay in (s, t):
            continue
        if (s, relay) in graph.edges and (relay, t) in graph.edges:
            p = make_path(graph, demand, relay)
            if qos_feasible(p, demand):
                out.append(p)
    return out


def log_form_success_ok(graph: OverlayGraph, path: Path, demand: Demand) -> bool:
    """The success bound in summed-log form (reference for the product form)."""
    total = sum(math.log(graph.edges[e].success_prob) for e in path.edges)
    return total >= math.log(demand.min_success_prob)


def exhaustive_best_assignment(
    graph: OverlayGraph,
    demands: Sequence[Demand],
    candidates: dict[int, list[Path]],
    penalty: float,
) -> tuple[float, dict[int, Optional[Path]]]:
    """Exact optimum by full enumeration of per-demand route-or-reject choices.

    Depth-first over demands with explicit residual capacities; pruning only
    removes branches whose partial assignment is already infeasible, so the
    search remains exhaustive over feasible assignments.
    """
    order = sorted(demands, key=lambda d: d.id)
    edge_res = {e: m.capacity_mbps for e, m in graph.edges.items()}
    node_res = list(graph.node_limits)
    best = {"obj": penalty * len(order), "assign": {d.id: None for d in order}}
    chosen: dict[int, Optional[Path]] = {}

    def recurse(idx: int, cost: float):
        if cost >= best["obj"]:
            # Every completion adds >= 0, so this branch cannot win; with
            # exact ties the first-found assignment is kept.
            if cost > best["obj"]:
                return
        if idx == len(order):
            if cost < best["obj"]:
                best["obj"] = cost
                best["assign"] = dict(chosen)
            return
        d = order[idx]
        for p in candidates[d.id]:
            ok = all(edge_res[e] + 1e-9 >= d.rate_mbps for e in p.edges) and all(
                node_res[i] + 1e-9 >= d.rate_mbps for i in p.nodes
            )
            if not ok:
                continue
            for e in p.edges:
                edge_res[e] -= d.rate_mbps
            for i in p.nodes:
                node_res[i] -= d.rate_mbps
            chosen[d.id] = p
            recurse(idx + 1, cost + p.total_delay_ms)
            for e in p.edges:
                edge_res[e] += d.rate_mbps
            for i in p.nodes:
                node_res[i] += d.rate_mbps
        chosen[d.id] = None
        recurse(idx + 1, cost + penalty)
        del chosen[d.id]

    recurse(0, 0.0)
    return best["obj"], best["assign"]


def check_routing_feasible(
    graph: OverlayGraph, demands: Sequence[Demand], outcomes
) -> list[str]:
    """All RoutingSolution feasibility invariants, re-derived from scratch."""
    problems = []
    edge_load = {e: 0.0 for e in graph.edges}
    node_load = [0.0] * graph.n_nodes
    by_id = {d.id: d for d in demands}
    for did, path in outcomes.items():
        if path is None:
            continue
        d = by_id[did]
        if len(path.edges) > 2:
            problems.append(f"demand {did}: more than one relay")
        if path.total_jitter_ms > d.max_jitter_ms:
            problems.append(f"demand {did}: jitter bound violated")
        if path.success_prob < d.min_success_prob:
            problems.append(f"demand {did}: success bound violated")
        for e in path.edges:
            if e not in graph.edges:
                problems.append(f"demand {did}: unknown edge {e}")
            else:
                edge_load[e] += d.rate_mbps
        for i in path.nodes:
            node_load[i] += d.rate_mbps
    for e, load in edge_load.items():
        if load > graph.edges[e].capacity_mbps + 1e-6:
            problems.append(f"edge {e}: capacity exceeded ({load})")
    for i, load in enumerate(node_load):
        if load > graph.node_limits[i] + 1e-6:
            problems.append(f"node {i}: processing limit exceeded ({load})")
    return problems


def scalar_priced_length(path: Path, rate: float, lam, nu) -> float:
    """Delay plus capacity rent, one candidate at a time.

    ``lam`` maps each edge to its dual, ``nu`` indexes node duals.
    """
    rent = sum(lam[e] for e in path.edges)
    rent += sum(nu[i] for i in path.nodes)
    return path.total_delay_ms + rate * rent


def scalar_price(
    candidates: Sequence[Path], rate: float, lam, nu, sigma: float, eps_rc: float
) -> Optional[tuple[Path, float]]:
    """Cheapest candidate (first on ties) if it beats ``sigma`` by more than ``eps_rc``."""
    best: Optional[Path] = None
    best_len = 0.0
    for p in candidates:
        length = scalar_priced_length(p, rate, lam, nu)
        if best is None or length < best_len:
            best, best_len = p, length
    if best is not None and best_len < sigma - eps_rc:
        return best, best_len - sigma
    return None


def master_model(master):
    """The master's LP built from its pool's paths alone: cost, ``A_ub``,
    ``b_ub`` and ``A_eq``, the matrices in CSC form.

    Column ``j`` is pool column ``j``: its path's delay (the penalty for a
    rejection) as cost, the demand's rate on the row of each path edge (in
    ``graph.edges`` order) and then of each path node, and a 1 on the
    demand's convexity row. ``b_ub`` holds the edge capacities, then the
    node limits.
    """
    graph = master.graph
    edge_row = {e: r for r, e in enumerate(graph.edges)}
    n_edges = len(edge_row)
    convexity_row = {d.id: r for r, d in enumerate(master.demands)}
    rate = {d.id: d.rate_mbps for d in master.demands}
    cost, ub, eq = [], [], []
    for j, col in enumerate(master.columns):
        did = col.path.demand_id
        cost.append(col.path.total_delay_ms)
        rows = [edge_row[e] for e in col.path.edges] + [n_edges + i for i in col.path.nodes]
        ub += [(rate[did], r, j) for r in rows]
        eq.append((1.0, convexity_row[did], j))

    def csc(entries, n_rows):
        data, rows, cols = zip(*entries) if entries else ((), (), ())
        coo = sparse.coo_array((data, (rows, cols)), shape=(n_rows, len(cost)))
        return sparse.csc_array(coo)

    b_ub = [m.capacity_mbps for m in graph.edges.values()] + list(graph.node_limits)
    a_ub = csc(ub, n_edges + graph.n_nodes)
    return np.array(cost), a_ub, np.array(b_ub), csc(eq, len(master.demands))


def highs_result(master, exponent: int = 0, upper: Optional[float] = 1.0):
    """The master's LP solved by HiGHS on :func:`master_model`'s matrices.

    Goes straight to ``scipy.optimize.linprog``, so it checks any shortcut
    ``RestrictedMaster.solve`` takes and the master's own assembly. The
    costs are multiplied by ``2**exponent`` first. Every column lies in
    ``[0, upper]``: by default the ``[0, 1]`` the master gives HiGHS, and
    with ``upper=None`` the unbounded model, whose convexity rows alone
    bound the columns by 1. Returns linprog's result, in those units.
    """
    cost, a_ub, b_ub, a_eq = master_model(master)
    res = linprog(
        np.ldexp(cost, exponent),
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=np.ones(len(master.demands)),
        bounds=(0.0, upper),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-9, "dual_feasibility_tolerance": 1e-9},
    )
    assert res.status == 0, res.message
    return res


def convexity_prices(master, res) -> np.ndarray:
    """Each demand's convexity price at linprog's bounded optimum ``res``
    (:func:`highs_result`), in ascending demand id: its ``eqlin`` marginal
    plus the least ``upper`` marginal of its pool columns, if negative.

    A column at its bound 1 with a negative reduced cost is one the
    unbounded master would price below its demand's convexity price; its
    bound multiplier moved into that price makes the point dual feasible
    for the unbounded master, at the same dual objective.
    """
    least = {d.id: 0.0 for d in master.demands}
    for col, marginal in zip(master.columns, res.upper.marginals.tolist()):
        did = col.path.demand_id
        least[did] = min(least[did], marginal)
    return np.array([s + least[d.id] for d, s in zip(master.demands, res.eqlin.marginals.tolist())])


def milp_result(master, exponent: int = 0):
    """The master's 0/1 program solved by ``scipy.optimize.milp`` to a zero gap.

    Built from :func:`master_model`'s matrices, so it checks the direct
    HiGHS MIP call ``RestrictedMaster.solve_integer`` makes. The costs are
    multiplied by ``2**exponent`` first. Returns milp's result, proven
    optimal, in those units.
    """
    cost, a_ub, b_ub, a_eq = master_model(master)
    res = milp(
        np.ldexp(cost, exponent),
        integrality=np.ones(len(cost)),
        bounds=Bounds(0.0, 1.0),
        constraints=[
            LinearConstraint(a_ub, -np.inf, b_ub),
            LinearConstraint(a_eq, 1.0, 1.0),
        ],
        options={"mip_rel_gap": 0.0},
    )
    assert res.status == 0, res.message
    return res


def highs_optimum(master):
    """:func:`highs_result` as ``(values, objective)``."""
    res = highs_result(master)
    return res.x, res.fun


def min_reduced_cost(master, duals) -> float:
    """Smallest reduced cost at ``duals`` over the pool's columns, one at a time."""
    price = duals.capacity.tolist()
    lam = dict(zip(master.graph.edges, price))
    nu = price[len(lam):]
    sigma = dict(zip((d.id for d in master.demands), duals.convexity.tolist()))
    rate = {d.id: d.rate_mbps for d in master.demands}
    best = math.inf
    for col in master.columns:
        did = col.path.demand_id
        best = min(best, scalar_priced_length(col.path, rate[did], lam, nu) - sigma[did])
    return best


def scalar_first_best(values: list[float], counts: list[int], better) -> list[int]:
    """Each segment's first entry no other in it is ``better`` than, by a
    plain loop: the segments are ``counts`` long, one after another.
    """
    out, start = [], 0
    for count in counts:
        best = start
        for i in range(start, start + count):
            if better(values[i], values[best]):
                best = i
        out.append(best)
        start += count
    return out


def ordered_total(values) -> float:
    """``values`` added one at a time from 0.0, in order: how every reported
    total is summed, whatever the interpreter's builtin ``sum`` does.
    """
    total = 0.0
    for v in values:
        total += v
    return total


def dual_objective(duals: DualPoint, graph: OverlayGraph) -> float:
    """Value of the dual point: sum of convexity prices minus paid capacity,
    edges' then nodes'.
    """
    caps = [m.capacity_mbps for m in graph.edges.values()]
    price = duals.capacity.tolist()
    paid = ordered_total(lam * cap for lam, cap in zip(price, caps))
    paid += ordered_total(nu * cap for nu, cap in zip(price[len(caps):], graph.node_limits))
    return ordered_total(duals.convexity.tolist()) - paid


def routing_objective(outcomes: dict[int, Optional[Path]], penalty: float) -> float:
    """A routing's objective by the one convention: each demand's path delay,
    or ``penalty`` for a rejection, added one at a time in ascending demand id.
    """
    paths = (outcomes[did] for did in sorted(outcomes))
    return ordered_total(penalty if p is None else p.total_delay_ms for p in paths)


def reference_round(
    solution: RmpSolution,
    master: RestrictedMaster,
    graph: OverlayGraph,
    demands: Sequence[Demand],
    rng: np.random.Generator,
    max_passes: Optional[int] = None,
) -> tuple[dict[int, Optional[Path]], float]:
    """Fix one path per demand by sampling the fractional LP mix; return
    each demand's path or ``None``, by ascending id, and the objective.

    The dict-based rounding ``solver.randomized_round`` replaced, kept as
    its reference: same commits, draws and objective for the same
    generator state. The objective is :func:`routing_objective`'s.

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
    g = master.graph
    residual = [m.capacity_mbps for m in g.edges.values()] + list(g.node_limits)
    residual.append(math.inf)
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

    return dict(sorted(outcomes.items())), routing_objective(outcomes, master.dummy_penalty)


def report_payload(reports: Sequence, include_timing: bool) -> dict:
    """A JSON report as a dict: the note, each report's fields and rows
    (read one by one from its ``outcomes``), and the plot-ready series.
    """
    modes = sorted({r.mode for r in reports})
    by_mode = {m: [r for r in reports if r.mode == m] for m in modes}

    def runtime(r):
        return r.runtime_ms if include_timing else 0.0

    def series(x, y):
        return {m: [[x(r), y(r)] for r in rs] for m, rs in by_mode.items()}

    at, size = attrgetter("epoch_ts"), attrgetter("n_demands")
    acceptance = attrgetter("acceptance_pct")
    return {
        "note": "mean_delay_ms averages accepted demands only; acceptance counts "
        "differ across modes, so delay comparisons between modes are not "
        "like-for-like",
        "reports": [
            {
                "epoch_ts": r.epoch_ts,
                "mode": r.mode,
                "n_demands": r.n_demands,
                "n_accepted": r.n_accepted,
                "acceptance_pct": r.acceptance_pct,
                "runtime_ms": runtime(r),
                "mean_delay_ms": r.mean_delay_ms,
                "objective": r.objective if math.isfinite(r.objective) else None,
                "gap_pct": r.gap_pct,
                "error": r.error,
                "outcomes": list(r.outcomes),
            }
            for r in reports
        ],
        "series": {
            "acceptance_pct_vs_time": series(at, acceptance),
            "runtime_ms_vs_time": series(at, runtime),
            "mean_delay_ms_vs_time": series(at, attrgetter("mean_delay_ms")),
            "acceptance_pct_vs_demands": series(size, acceptance),
            "runtime_ms_vs_demands": series(size, runtime),
        },
    }


def reference_report_json(payload: dict) -> str:
    """A JSON report's text, laid out by ``json.dumps`` alone."""
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


# -- reference scenario generators ------------------------------------------------
#
# ``cgroute.scenario`` draws its link metrics and trace epochs as arrays. These
# draw every number with its own scalar call, in the stream order that names a
# scenario, so a seed must give the same scenario from both.


def reference_topology(params: SyntheticParams) -> OverlayGraph:
    """``generate_topology`` with one ``rng.uniform`` call per link metric."""
    n = params.n_nodes
    target = params.n_edges // 2
    m = min(
        range(1, n),
        key=lambda m: abs((n * (n - 1) // 2 if m == n - 1 else m * (n - m)) - target),
    )
    rng = np.random.default_rng([params.seed, 0])
    if m == n - 1:
        undirected = [(u, v) for u in range(n) for v in range(u + 1, n)]
    else:
        undirected = [(0, leaf) for leaf in range(1, m + 1)]
        repeated = [0] * m + list(range(1, m + 1))
        for new in range(m + 1, n):
            targets: set[int] = set()
            while len(targets) < m:
                targets.add(repeated[int(rng.integers(len(repeated)))])
            for tgt in sorted(targets):
                undirected.append((tgt, new))
                repeated.append(tgt)
            repeated.extend([new] * m)

    def sample(lo_hi: tuple[float, float]) -> float:
        return float(rng.uniform(lo_hi[0], lo_hi[1]))

    edges = {}
    for u, v in undirected:
        for e in ((u, v), (v, u)):
            edges[e] = LinkMetrics(
                delay_ms=sample(params.delay_range_ms),
                jitter_ms=sample(params.jitter_range_ms),
                capacity_mbps=sample(params.capacity_range_mbps),
                success_prob=1.0 - sample(params.loss_range),
            )
    return OverlayGraph.from_edges(n, edges, [params.node_capacity_mbps] * n)


def reference_demands(params: SyntheticParams, n_nodes: int) -> list[Demand]:
    """``generate_demands`` with ``rng.uniform`` for the QoS bounds."""
    rng = np.random.default_rng([params.seed, 1])
    out = []
    for did in range(params.n_demands):
        s = int(rng.integers(n_nodes))
        t = int(rng.integers(n_nodes - 1))
        if t >= s:
            t += 1
        if params.rate_fixed_mbps is not None:
            rate = params.rate_fixed_mbps
        else:
            rate = max(float(rng.exponential(params.rate_mean_mbps)), 1e-9)
        out.append(
            Demand(
                id=did,
                source=s,
                destination=t,
                rate_mbps=rate,
                max_jitter_ms=float(rng.uniform(*params.jitter_bound_range_ms)),
                min_success_prob=1.0 - float(rng.uniform(*params.loss_bound_range)),
            )
        )
    return out


def reference_telco_trace(n_epochs: int, seed: int, profile: TelcoProfile) -> Trace:
    """``generate_telco_trace`` with one scalar draw per regime test and sample."""
    n = profile.n_nodes
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    rng = np.random.default_rng([seed, 2])
    chosen = sorted(pairs[k] for k in rng.permutation(len(pairs))[: profile.n_links])

    base_delay, high_jitter, heavy_loss = {}, {}, {}
    for e in chosen:
        slow = rng.random() < profile.slow_delay_share
        base_delay[e] = float(rng.uniform(80.0, 200.0) if slow else rng.uniform(5.0, 80.0))
        high_jitter[e] = rng.random() < profile.high_jitter_share
        heavy_loss[e] = rng.random() < profile.heavy_loss_share

    epochs = []
    for k in range(n_epochs):
        edges = {}
        for e in chosen:
            delay = float(np.clip(base_delay[e] + rng.uniform(-3.0, 3.0), 5.0, 250.0))
            if high_jitter[e]:
                jitter = float(rng.uniform(330.0, 5000.0))
            else:
                jitter = float(rng.uniform(1.0, 120.0))
            if heavy_loss[e]:
                loss = float(rng.uniform(0.02, 0.04))
            elif rng.random() < profile.spike_prob:
                loss = float(rng.uniform(0.01, 0.05))
            else:
                loss = float(rng.uniform(0.0001, 0.0025))
            edges[e] = LinkMetrics(
                delay_ms=delay,
                jitter_ms=jitter,
                capacity_mbps=profile.link_capacity_mbps,
                success_prob=1.0 - loss,
            )
        epochs.append(TraceEpoch(k * profile.period_s, MappingProxyType(edges)))
    return Trace(n_nodes=n, epochs=tuple(epochs), node_limits=(profile.node_capacity_mbps,) * n)
