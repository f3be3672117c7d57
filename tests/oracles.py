"""Independent reference implementations used to check the solver stack.

Everything here is deliberately written from first principles (plain
loops, explicit residual tracking) so it shares no code path with the
implementations under test.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from cgroute.model import Demand, OverlayGraph, Path, make_path, qos_feasible


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
