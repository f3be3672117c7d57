"""Seeded random instances shared by the property and acceptance suites,
helpers that read a candidate table back as paths or pack one from
hand-picked paths, and the zero dual point."""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping, Sequence

import numpy as np

from cgroute.errors import ContractError
from cgroute.model import Demand, LinkMetrics, OverlayGraph, Path
from cgroute.pricing import CandidateTable, enumerate_candidates
from cgroute.rmp import DualPoint
from cgroute.scenario import SyntheticParams, generate_demands, generate_topology


def gap_suite_instance(seed: int) -> tuple[OverlayGraph, list[Demand]]:
    """Scaled-down synthetic instance: 8-12 nodes, 15-30 demands.

    Distributions follow the synthetic evaluation profile with the node
    count and edge density reduced to keep the exact benchmark fast while
    still producing both QoS rejections and capacity contention.
    """
    rng = np.random.default_rng([seed, 9])
    n = int(rng.integers(8, 13))
    k = int(rng.integers(15, 31))
    params = SyntheticParams(
        n_nodes=n,
        n_edges=4 * (n - 2),
        n_demands=k,
        capacity_range_mbps=(300.0, 500.0),
        delay_range_ms=(1.0, 500.0),
        jitter_range_ms=(0.0, 50.0),
        loss_range=(0.0, 0.2),
        node_capacity_mbps=400.0,
        rate_mean_mbps=50.0,
        jitter_bound_range_ms=(25.0, 200.0),
        loss_bound_range=(0.1, 0.8),
        seed=seed,
    )
    graph = generate_topology(params)
    return graph, generate_demands(params, graph)


def scaled_cost_instance() -> tuple[OverlayGraph, list[Demand]]:
    """Gap-suite distributions on 12 nodes with 600 demands: a small master
    (1157 columns in full, node limits binding) whose rejection penalty,
    5.9e6, is over the 1e6 at which the master scales its costs (by 2**-3).
    """
    params = SyntheticParams(
        n_nodes=12,
        n_edges=40,
        n_demands=600,
        capacity_range_mbps=(300.0, 500.0),
        delay_range_ms=(1.0, 500.0),
        jitter_range_ms=(0.0, 50.0),
        loss_range=(0.0, 0.2),
        node_capacity_mbps=400.0,
        rate_mean_mbps=50.0,
        jitter_bound_range_ms=(25.0, 200.0),
        loss_bound_range=(0.1, 0.8),
        seed=0,
    )
    graph = generate_topology(params)
    return graph, generate_demands(params, graph)


def tiny_instance(seed: int) -> tuple[OverlayGraph, list[Demand]]:
    """At most 6 nodes and 8 demands: exhaustive enumeration stays cheap."""
    rng = np.random.default_rng([seed, 11])
    n = int(rng.integers(4, 7))
    k = int(rng.integers(3, 9))
    params = SyntheticParams(
        n_nodes=n,
        n_edges=4 * (n - 2),
        n_demands=k,
        capacity_range_mbps=(60.0, 160.0),
        delay_range_ms=(1.0, 500.0),
        jitter_range_ms=(0.0, 50.0),
        loss_range=(0.0, 0.2),
        node_capacity_mbps=120.0,
        rate_mean_mbps=40.0,
        jitter_bound_range_ms=(25.0, 200.0),
        loss_bound_range=(0.1, 0.8),
        seed=seed,
    )
    graph = generate_topology(params)
    return graph, generate_demands(params, graph)


def feasibility_instance(seed: int) -> tuple[OverlayGraph, list[Demand]]:
    """Small but congested: exercises the rounding capacity guard hard."""
    rng = np.random.default_rng([seed, 13])
    n = int(rng.integers(6, 11))
    k = int(rng.integers(8, 25))
    params = SyntheticParams(
        n_nodes=n,
        n_edges=4 * (n - 2),
        n_demands=k,
        capacity_range_mbps=(80.0, 250.0),
        delay_range_ms=(1.0, 500.0),
        jitter_range_ms=(0.0, 50.0),
        loss_range=(0.0, 0.2),
        node_capacity_mbps=200.0,
        rate_mean_mbps=50.0,
        jitter_bound_range_ms=(25.0, 200.0),
        loss_bound_range=(0.1, 0.8),
        seed=seed,
    )
    graph = generate_topology(params)
    return graph, generate_demands(params, graph)


def hand_graph() -> OverlayGraph:
    """Four nodes, dense real edges, roomy metrics; for example-level tests."""
    edges = {}
    delays = {
        (0, 1): 12.0, (1, 0): 14.0,
        (0, 2): 30.0, (2, 0): 28.0,
        (0, 3): 50.0, (3, 0): 55.0,
        (1, 2): 30.0, (2, 1): 25.0,
        (1, 3): 22.0, (3, 1): 21.0,
        (2, 3): 18.0, (3, 2): 16.0,
    }
    for e, d in delays.items():
        edges[e] = LinkMetrics(
            delay_ms=d, jitter_ms=5.0, capacity_mbps=1000.0, success_prob=0.999
        )
    return OverlayGraph.from_edges(4, edges, [500.0] * 4)


def candidate_lists(table) -> dict[int, list[Path]]:
    """Each demand's candidates as paths, in table order, by demand id."""
    return {
        d.id: [table.path(i) for i in range(table.offsets[r], table.offsets[r + 1])]
        for r, d in enumerate(table.demands)
    }


def candidates_of(graph: OverlayGraph, demand: Demand, build=enumerate_candidates) -> list[Path]:
    """One demand's candidates as paths, from a table built for it alone."""
    return candidate_lists(build(graph, [demand]))[demand.id]


def pack_table(
    graph: OverlayGraph,
    demands: Sequence[Demand],
    candidates: Mapping[int, Sequence[Path]],
) -> CandidateTable:
    """The rows of :func:`enumerate_candidates` that ``candidates[d.id]``
    lists for each demand, in that order.

    For sets the enumerator does not make, such as a subset or another
    order. A listed path that is not one of the demand's QoS-feasible
    routes, such as a rejection or another demand's route, raises
    :class:`ContractError`: only the master creates rejection columns.
    """
    full = enumerate_candidates(graph, demands)
    picked = []
    for r, d in enumerate(full.demands):
        own = range(full.offsets[r], full.offsets[r + 1])
        routes = [full.path(i) for i in own]
        for p in candidates[d.id]:
            if p not in routes:
                raise ContractError(f"candidate of demand {d.id} is not a QoS-feasible route")
            picked.append(own[routes.index(p)])
    picked = np.array(picked, dtype=np.int64)
    counts = np.bincount(full.demand[picked], minlength=len(full.demands))
    return replace(
        full,
        offsets=np.concatenate(([0], np.cumsum(counts))),
        **{f: getattr(full, f)[picked] for f in ("demand", "delay", "rate", "rows")},
    )


def zero_duals(graph: OverlayGraph, demands: Sequence[Demand]) -> DualPoint:
    """The dual point that prices nothing: every capacity and convexity dual 0."""
    return DualPoint(np.zeros(len(graph.edges) + graph.n_nodes), np.zeros(len(demands)))
