"""Tests for the benchmark's own machinery: the checker must flag corrupted
solutions, and tracing must neither change results nor lose time.

Run from the root of a checkout: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from benchenv import load_cgroute  # noqa: E402
from checker import check_report, check_routes, check_solution, rejection_penalty  # noqa: E402
from spans import CountingRng, Tracer, installed  # noqa: E402

cg = load_cgroute()
LinkMetrics = cg.model.LinkMetrics
Demand = cg.model.Demand


def square(capacity: float = 100.0, jitter: float = 5.0):
    """Four nodes, a directed ring 0->1->2->3->0 plus the chord 0->2."""
    edges = {
        e: LinkMetrics(delay_ms=10.0 * (k + 1), jitter_ms=jitter, capacity_mbps=capacity, success_prob=0.99)
        for k, e in enumerate([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    }
    return cg.model.OverlayGraph.from_edges(4, edges, [1000.0] * 4)


def demand(did, s, t, rate=60.0, jitter=100.0, success=0.9):
    return Demand(did, s, t, rate, jitter, success)


def objective(graph, demands, routes):
    penalty = rejection_penalty(graph, demands)
    total = 0.0
    for d in demands:
        nodes = routes[d.id]
        total += penalty if nodes is None else sum(graph.edges[e].delay_ms for e in zip(nodes, nodes[1:]))
    return total


def test_valid_routing_passes():
    g = square()
    ds = [demand(0, 0, 1), demand(1, 0, 2), demand(2, 0, 2, rate=30.0)]
    routes = {0: (0, 1), 1: (0, 2), 2: (0, 1, 2)}  # 90 of 100 Mbps on (0, 1)
    assert check_routes(g, ds, routes, objective(g, ds, routes)) == []


def test_flags_edge_over_capacity():
    g = square()
    ds = [demand(0, 0, 1), demand(1, 0, 2)]
    routes = {0: (0, 1), 1: (0, 1, 2)}  # 120 Mbps on edge (0, 1) of capacity 100
    problems = check_routes(g, ds, routes, objective(g, ds, routes))
    assert any("edge (0, 1)" in p and "exceeds capacity" in p for p in problems)


def test_flags_node_over_limit():
    g = square(capacity=1000.0)
    g = dataclasses.replace(g, node_limits=(100.0, 1000.0, 1000.0, 1000.0))
    ds = [demand(0, 0, 1), demand(1, 0, 2)]
    routes = {0: (0, 1), 1: (0, 2)}
    problems = check_routes(g, ds, routes, objective(g, ds, routes))
    assert any(p.startswith("node 0") for p in problems)


def test_flags_qos_violations():
    g = square(jitter=30.0)
    ds = [demand(0, 0, 2, jitter=50.0), demand(1, 0, 1, rate=1.0, success=0.995)]
    routes = {0: (0, 1, 2), 1: (0, 1)}  # jitter 60 > 50; success 0.99 < 0.995
    problems = check_routes(g, ds, routes, objective(g, ds, routes))
    assert any("demand 0: jitter" in p for p in problems)
    assert any("demand 1: success" in p for p in problems)


def test_flags_missing_edges_and_outcomes():
    g = square()
    ds = [demand(0, 1, 0, rate=1.0), demand(1, 0, 1, rate=1.0)]
    routes = {0: (1, 0)}  # no edge (1, 0); demand 1 has no outcome
    problems = check_routes(g, ds, routes, 0.0)
    assert any("non-existent or artificial edge (1, 0)" in p for p in problems)
    assert any("missing [1]" in p for p in problems)


def test_flags_wrong_objective():
    g = square()
    ds = [demand(0, 0, 1), demand(1, 2, 0, rate=1.0)]
    routes = {0: (0, 1), 1: None}
    good = objective(g, ds, routes)
    assert check_routes(g, ds, routes, good) == []
    assert any("objective" in p for p in check_routes(g, ds, routes, good + 1.0))


def test_real_solutions_pass_and_corruptions_are_caught():
    g = square()
    ds = [demand(0, 0, 1), demand(1, 0, 2), demand(2, 1, 3, rate=10.0), demand(3, 3, 1, rate=5.0)]
    routed = cg.solver.solve(g, ds)
    assert check_solution(g, ds, routed) == []
    best = cg.exact.solve_exact(g, ds)
    assert check_solution(g, ds, best) == []

    assert check_solution(g, ds, dataclasses.replace(routed, objective=routed.objective * 1.01))
    accepted = next(did for did, p in routed.outcomes.items() if p is not None)
    path = routed.outcomes[accepted]
    lying = dict(routed.outcomes)
    lying[accepted] = dataclasses.replace(path, total_jitter_ms=path.total_jitter_ms - 1.0)
    assert any("reported metrics" in p for p in check_solution(g, ds, dataclasses.replace(routed, outcomes=lying)))


def test_report_rows_are_checked():
    g = square()
    ds = [demand(0, 0, 1), demand(1, 0, 2, rate=10.0)]
    report = cg.harness.solve_epoch(g, ds, "overlay", cg.solver.SolverConfig())
    assert check_report(g, ds, report, direct_only=False) == []
    rows = [dict(r) for r in report.outcomes]
    row = next(r for r in rows if r["accepted"])
    row["delay_ms"] += 1.0
    broken = dataclasses.replace(report, outcomes=tuple(rows))
    assert any("reported metrics" in p for p in check_report(g, ds, broken, direct_only=False))
    relayed = dataclasses.replace(
        report,
        outcomes=({"demand": 0, "accepted": True, "path": [0, 1], "delay_ms": 10.0},
                  {"demand": 1, "accepted": True, "path": [0, 1, 2], "delay_ms": 30.0}),
    )
    assert any("hop count" in p for p in check_report(g, ds, relayed, direct_only=True))


def test_self_time_subtracts_children():
    t = Tracer()
    t.spans = [
        [1, "solver.solve", 0.0, 10.0, -1],
        [1, "solver.cg", 1.0, 7.0, 0],
        [1, "rmp.lp", 2.0, 5.0, 1],
        [1, "rmp.highs", 3.0, 4.0, 2],
        [1, "solver.round", 8.0, 9.0, 0],
    ]
    assert t.self_times() == [3.0, 3.0, 2.0, 1.0, 1.0]
    assert sum(t.self_times()) == 10.0
    assert t.inclusive()["rmp.lp"] == 3.0


def test_counting_rng_keeps_every_draw():
    plain, counted = np.random.default_rng(7), CountingRng(np.random.default_rng(7))
    p = [0.2, 0.5, 0.3]
    assert [plain.choice(3, p=p) for _ in range(20)] == [counted.choice(3, p=p) for _ in range(20)]
    assert counted.draws == 20


def test_tracing_changes_nothing_and_restores_modules():
    g = square()
    ds = [demand(0, 0, 1), demand(1, 0, 2), demand(2, 1, 3, rate=10.0)]
    before = (cg.solver.price_demand, cg.rmp.linprog, cg.rmp.RestrictedMaster.__dict__["solve"])
    plain = cg.solver.solve(g, ds, cg.solver.SolverConfig(seed=3))
    tracer = Tracer()
    with installed(tracer, cg):
        traced = cg.solver.solve(g, ds, cg.solver.SolverConfig(seed=3))
    assert (cg.solver.price_demand, cg.rmp.linprog, cg.rmp.RestrictedMaster.__dict__["solve"]) == before
    assert traced.outcomes == plain.outcomes and traced.objective == plain.objective
    names = {s[1] for s in tracer.spans}
    assert {"solver.solve", "model.augment", "solver.cg", "pricing.price", "rmp.lp", "rmp.highs", "solver.round"} <= names
    assert tracer.counts["rmp.lp_solves"] == tracer.counts["solver.cg_iterations"]


@pytest.mark.parametrize("bad", [{0: (0, 1, 0)}, {0: (0,)}, {0: (1, 2)}])
def test_flags_malformed_routes(bad):
    g = square()
    ds = [demand(0, 0, 1, rate=1.0)]
    assert check_routes(g, ds, bad, 20.0)
