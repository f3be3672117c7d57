"""Output checker for every benchmark op, independent of the solver's internals.

It re-derives everything from the input graph and demands: path metrics
from the link table, loads from the committed rates, and the objective from
the documented convention (accepted demands pay their path delay, rejected
ones the rejection penalty). It shares no code with the solver's residual
bookkeeping, so a bug there cannot hide itself here.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Mapping, Optional, Sequence

#: Rejection penalty = this factor times the artificial-edge delay
#: 2 * |demands| * (largest real link delay) + 1 ms (see cgroute.model).
PENALTY_FACTOR = 10.0
#: Loads may exceed a capacity by this much: the solver commits a path when
#: the rate fits within 1e-9 of the residual, and residuals drift by float
#: rounding as commits accumulate.
LOAD_SLACK_ABS = 1e-6
LOAD_SLACK_REL = 1e-9
#: Recomputed sums may differ from reported ones only by summation order.
REL_TOL = 1e-9

Route = Optional[tuple]  # node sequence (s, t) or (s, relay, t); None = rejected


def rejection_penalty(graph, demands: Sequence) -> float:
    real = [m.delay_ms for e, m in graph.edges.items() if e not in graph.artificial]
    return PENALTY_FACTOR * (2.0 * len(demands) * max(real, default=0.0) + 1.0)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-9)


def _path_metrics(graph, nodes: tuple) -> tuple[float, float, float]:
    delay, jitter, success = 0.0, 0.0, 1.0
    for e in zip(nodes, nodes[1:]):
        m = graph.edges[e]
        delay += m.delay_ms
        jitter += m.jitter_ms
        success *= m.success_prob
    return delay, jitter, success


def check_routes(
    graph,
    demands: Sequence,
    routes: Mapping[int, Route],
    objective: float,
    direct_only: bool = False,
    reported: Optional[Mapping[int, tuple]] = None,
) -> list[str]:
    """Violations of one routing of ``demands`` on the (unaugmented) ``graph``.

    ``reported`` optionally maps accepted demand ids to the (delay, jitter,
    success) the program attached to the route, or a prefix of it; each
    value is compared with a recomputation from the link table.
    """
    problems: list[str] = []
    by_id = {d.id: d for d in demands}
    if set(routes) != set(by_id) or len(routes) != len(by_id):
        missing = sorted(set(by_id) - set(routes))
        extra = sorted(set(routes) - set(by_id))
        problems.append(f"outcomes do not match demands: missing {missing[:5]}, extra {extra[:5]}")
    edge_load: dict = defaultdict(float)
    node_load: dict = defaultdict(float)
    total = 0.0
    penalty = rejection_penalty(graph, demands)
    for did in sorted(by_id):
        d = by_id[did]
        nodes = routes.get(did)
        if nodes is None:
            total += penalty
            continue
        nodes = tuple(nodes)
        if len(nodes) not in (2, 3) or (direct_only and len(nodes) != 2):
            problems.append(f"demand {did}: route {nodes} has a bad hop count")
            continue
        if nodes[0] != d.source or nodes[-1] != d.destination or len(set(nodes)) != len(nodes):
            problems.append(f"demand {did}: route {nodes} does not join {d.source}->{d.destination}")
            continue
        hops = list(zip(nodes, nodes[1:]))
        bad = [e for e in hops if e not in graph.edges or e in graph.artificial]
        if bad:
            problems.append(f"demand {did}: route uses non-existent or artificial edge {bad[0]}")
            continue
        delay, jitter, success = _path_metrics(graph, nodes)
        if jitter > d.max_jitter_ms:
            problems.append(f"demand {did}: jitter {jitter} exceeds bound {d.max_jitter_ms}")
        if success < d.min_success_prob:
            problems.append(f"demand {did}: success {success} below bound {d.min_success_prob}")
        if reported is not None and did in reported:
            got = reported[did]
            if not all(_close(a, b) for a, b in zip(got, (delay, jitter, success))):
                problems.append(f"demand {did}: reported metrics {got} != recomputed {(delay, jitter, success)}")
        for e in hops:
            edge_load[e] += d.rate_mbps
        for i in nodes:
            node_load[i] += d.rate_mbps
        total += delay
    for e, load in edge_load.items():
        cap = graph.edges[e].capacity_mbps
        if load > cap + LOAD_SLACK_ABS + LOAD_SLACK_REL * cap:
            problems.append(f"edge {e}: load {load} exceeds capacity {cap}")
    for i, load in node_load.items():
        cap = graph.node_limits[i]
        if load > cap + LOAD_SLACK_ABS + LOAD_SLACK_REL * cap:
            problems.append(f"node {i}: load {load} exceeds limit {cap}")
    if not _close(objective, total):
        problems.append(f"objective {objective!r} != recomputed {total!r}")
    return problems


def check_solution(graph, demands: Sequence, solution, direct_only: bool = False) -> list[str]:
    """Check a RoutingSolution or ExactSolution (outcomes hold Path objects)."""
    routes: dict[int, Route] = {}
    reported: dict[int, tuple] = {}
    problems: list[str] = []
    for did, path in solution.outcomes.items():
        if path is None:
            routes[did] = None
            continue
        if path.demand_id != did or path.is_dummy or path.uses_artificial:
            problems.append(f"demand {did}: committed path is foreign, dummy or artificial")
        if tuple(zip(path.nodes, path.nodes[1:])) != tuple(path.edges):
            problems.append(f"demand {did}: path edges {path.edges} do not follow nodes {path.nodes}")
        routes[did] = tuple(path.nodes)
        reported[did] = (path.total_delay_ms, path.total_jitter_ms, path.success_prob)
    return problems + check_routes(graph, demands, routes, solution.objective, direct_only, reported)


def check_report(graph, demands: Sequence, report, direct_only: bool) -> list[str]:
    """Check one EpochReport through the per-demand rows it would serialize."""
    if report.error is not None:
        return [f"epoch {report.epoch_ts} {report.mode}: {report.error}"]
    routes: dict[int, Route] = {}
    reported: dict[int, tuple] = {}
    problems: list[str] = []
    delays = []
    for row in report.outcomes:
        did = row["demand"]
        if did in routes:
            problems.append(f"demand {did}: reported twice")
        if row["accepted"]:
            routes[did] = tuple(row["path"])
            reported[did] = (row["delay_ms"],)
            delays.append(row["delay_ms"])
        else:
            routes[did] = None
    problems += check_routes(graph, demands, routes, report.objective, direct_only, reported)
    if report.n_accepted != len(delays) or report.n_demands != len(demands):
        problems.append("report counts do not match its rows")
    mean = sum(delays) / len(delays) if delays else None
    if (mean is None) != (report.mean_delay_ms is None) or (
        mean is not None and not _close(mean, report.mean_delay_ms)
    ):
        problems.append(f"mean delay {report.mean_delay_ms} != recomputed {mean}")
    return problems
