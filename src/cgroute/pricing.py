"""Candidate-path enumeration and the column-generation pricing step.

With at most one relay per route, the feasible path set of a demand is
small enough to enumerate outright: the direct edge plus one dogleg per
relay node. Pricing therefore scans the full candidate list and returns an
exact minimizer of the dual-adjusted length, with no approximation gap.
The candidate lists of all demands are packed once into a flat table, so
one pricing pass over every demand is a handful of array operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ContractError
from .model import Demand, OverlayGraph, Path, make_path, qos_feasible
from .rmp import DualPoint

#: Absolute reduced-cost tolerance: a column must beat its convexity price
#: by more than this to be worth adding.
EPS_REDUCED_COST = 1e-7


def enumerate_candidates(graph: OverlayGraph, demand: Demand) -> list[Path]:
    """All QoS-feasible routes for the demand, direct edge first.

    Relay routes are ordered by relay node id. An empty list means the
    demand can never be routed.
    """
    s, t = demand.source, demand.destination
    out: list[Path] = []
    heads = graph.out_neighbours.get(s, frozenset())
    if t in heads:
        p = make_path(graph, demand)
        if qos_feasible(p, demand):
            out.append(p)
    for relay in sorted(heads & graph.in_neighbours.get(t, frozenset())):
        p = make_path(graph, demand, relay)
        if qos_feasible(p, demand):
            out.append(p)
    return out


@dataclass(frozen=True, eq=False)
class CandidateTable:
    """Every demand's candidate paths in flat arrays, compressed by demand.

    Demand ``demands[i]`` (ascending id, the convexity-row order) owns the
    candidates ``offsets[i]:offsets[i + 1]``, in its candidate-list order.
    Per candidate the table holds the path's total delay, the demand's
    rate, the dual rows of its edges (``e1``, ``e2``) and of its nodes
    (``s``, ``k``, ``t``). A direct path pads ``e2`` and ``k`` with the row
    one past the last, which pricing maps to a zero dual.
    """

    demands: tuple[Demand, ...]
    paths: tuple[Path, ...]
    offsets: np.ndarray
    delay: np.ndarray
    rate: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    s: np.ndarray
    k: np.ndarray
    t: np.ndarray
    n_edges: int
    n_nodes: int

    @classmethod
    def pack(
        cls,
        graph: OverlayGraph,
        demands: Sequence[Demand],
        candidates: Mapping[int, Sequence[Path]],
    ) -> "CandidateTable":
        """Pack ``candidates[d.id]`` of every demand; edges must be in ``graph``."""
        demands = tuple(sorted(demands, key=lambda d: d.id))
        edge_row = {e: r for r, e in enumerate(graph.edges)}
        n_edges, n_nodes = len(edge_row), graph.n_nodes
        paths: list[Path] = []
        offsets = [0]
        rate: list[float] = []
        for d in demands:
            own = candidates[d.id]
            paths.extend(own)
            offsets.append(len(paths))
            rate.extend([d.rate_mbps] * len(own))
        two_hop = [len(p.edges) == 2 for p in paths]
        return cls(
            demands=demands,
            paths=tuple(paths),
            offsets=np.array(offsets),
            delay=np.array([p.total_delay_ms for p in paths], dtype=float),
            rate=np.array(rate, dtype=float),
            e1=np.array([edge_row[p.edges[0]] for p in paths], dtype=np.intp),
            e2=np.array(
                [edge_row[p.edges[1]] if two else n_edges for p, two in zip(paths, two_hop)],
                dtype=np.intp,
            ),
            s=np.array([p.nodes[0] for p in paths], dtype=np.intp),
            k=np.array(
                [p.nodes[1] if two else n_nodes for p, two in zip(paths, two_hop)],
                dtype=np.intp,
            ),
            t=np.array([p.nodes[-1] for p in paths], dtype=np.intp),
            n_edges=n_edges,
            n_nodes=n_nodes,
        )

    def priced_lengths(self, duals: DualPoint) -> np.ndarray:
        """Every candidate's delay plus the capacity rent it would pay.

        Summed in a fixed order (edges, then nodes in path order), so each
        entry is bit-identical to a per-candidate scalar loop.
        """
        if (
            len(duals.edge_duals) != self.n_edges
            or len(duals.node_duals) != self.n_nodes
            or len(duals.convexity_duals) != len(self.demands)
        ):
            raise ContractError("dual point does not match the candidate table")
        lam = np.append(duals.edge_duals, 0.0)
        nu = np.append(duals.node_duals, 0.0)
        rent = (lam[self.e1] + lam[self.e2]) + ((nu[self.s] + nu[self.k]) + nu[self.t])
        return self.delay + self.rate * rent


def price_demand(
    table: CandidateTable,
    duals: DualPoint,
    eps_rc: float = EPS_REDUCED_COST,
) -> dict[int, tuple[Path, float]]:
    """Exact pricing of every demand at once: the columns that would enter.

    Returns ``{demand id: (path, reduced_cost)}`` for each demand whose
    cheapest candidate undercuts its convexity price by more than
    ``eps_rc``, in ascending demand id order; demands whose duals are
    already feasible, or that have no candidate, are absent. Ties keep the
    first candidate in list order, so results are deterministic.
    """
    priced = table.priced_lengths(duals)
    if not len(priced):
        return {}
    # Segmented argmin over the demands that have candidates at all.
    counts = np.diff(table.offsets)
    rows = np.flatnonzero(counts)
    starts = table.offsets[rows]
    lows = np.minimum.reduceat(priced, starts)
    at_low = priced == np.repeat(lows, counts[rows])
    first = np.minimum.reduceat(
        np.where(at_low, np.arange(len(priced)), len(priced)), starts
    )
    best = priced[first]
    sigma = duals.convexity_duals[rows]
    enter = np.flatnonzero(best < sigma - eps_rc)
    reduced = best[enter] - sigma[enter]
    return {
        table.demands[r].id: (table.paths[c], rc)
        for r, c, rc in zip(rows[enter].tolist(), first[enter].tolist(), reduced.tolist())
    }
