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

    This is the column universe of the restricted master, which names a
    candidate by its index here. Demand ``demands[i]`` (ascending id, the
    convexity-row order) owns the candidates ``offsets[i]:offsets[i + 1]``,
    in its candidate-list order, and ``demand`` holds that ``i`` per
    candidate. Per candidate the table also holds the path's total delay,
    the demand's rate and ``rows``, its five capacity rows in the master's
    row space (edges first, in ``graph.edges`` order, then nodes): first
    edge, second edge, ``n_edges + s``, ``n_edges + k``, ``n_edges + t``
    for source, relay and destination. A direct path pads its second edge
    and its relay with the row one past the last, ``n_edges + n_nodes``,
    which carries a zero dual and an unlimited capacity.
    """

    demands: tuple[Demand, ...]
    paths: tuple[Path, ...]
    offsets: np.ndarray
    demand: np.ndarray
    delay: np.ndarray
    rate: np.ndarray
    rows: np.ndarray
    n_edges: int
    n_nodes: int

    @classmethod
    def pack(
        cls,
        graph: OverlayGraph,
        demands: Sequence[Demand],
        candidates: Mapping[int, Sequence[Path]],
    ) -> "CandidateTable":
        """Pack ``candidates[d.id]`` of every demand; edges must be in ``graph``.

        Every candidate must be a QoS-feasible, non-dummy route of the
        demand it is listed under, else :class:`ContractError`: only the
        master creates rejection columns.
        """
        demands = tuple(sorted(demands, key=lambda d: d.id))
        edge_row = {e: r for r, e in enumerate(graph.edges)}
        n_edges, n_nodes = len(edge_row), graph.n_nodes
        paths: list[Path] = []
        offsets = [0]
        for d in demands:
            own = candidates[d.id]
            for p in own:
                if p.is_dummy:
                    raise ContractError("dummy columns are created by the master only")
                if not qos_feasible(p, d):
                    raise ContractError(f"candidate of demand {d.id} violates its QoS bounds")
            paths.extend(own)
            offsets.append(len(paths))
        counts = np.diff(offsets)
        demand = np.repeat(np.arange(len(demands)), counts)
        pad = n_edges + n_nodes
        rows: list[int] = []
        for p in paths:
            e, n = p.edges, p.nodes
            rows += (
                (edge_row[e[0]], edge_row[e[1]], n_edges + n[0], n_edges + n[1], n_edges + n[2])
                if len(e) == 2
                else (edge_row[e[0]], pad, n_edges + n[0], pad, n_edges + n[1])
            )
        return cls(
            demands=demands,
            paths=tuple(paths),
            offsets=np.array(offsets),
            demand=demand,
            delay=np.array([p.total_delay_ms for p in paths], dtype=float),
            rate=np.repeat(np.array([d.rate_mbps for d in demands], dtype=float), counts),
            rows=np.array(rows, dtype=np.intp).reshape(len(paths), 5),
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
        v = np.concatenate((duals.edge_duals, duals.node_duals, [0.0]))[self.rows]
        rent = (v[:, 0] + v[:, 1]) + ((v[:, 2] + v[:, 3]) + v[:, 4])
        return self.delay + self.rate * rent


def price_demand(
    table: CandidateTable,
    duals: DualPoint,
    eps_rc: float = EPS_REDUCED_COST,
) -> dict[int, tuple[int, float]]:
    """Exact pricing of every demand at once: the columns that would enter.

    Returns ``{demand id: (candidate index, reduced_cost)}`` for each
    demand whose cheapest candidate undercuts its convexity price by more
    than ``eps_rc``, in ascending demand id order; demands whose duals are
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
        table.demands[r].id: (c, rc)
        for r, c, rc in zip(rows[enter].tolist(), first[enter].tolist(), reduced.tolist())
    }
