"""Candidate-path enumeration and the column-generation pricing step.

With at most one relay per route, the feasible path set of a demand is
small enough to enumerate outright: the direct edge plus one dogleg per
relay node. Enumeration takes two steps. :meth:`RouteGeometry.find` finds
which routes exist for a demand set on an edge set, from the edges alone;
:meth:`RouteGeometry.table` reads one graph's metrics for those routes and
keeps the QoS-feasible ones, in one flat :class:`CandidateTable`.
:func:`enumerate_candidates` is the two steps on one graph; a trace replay,
whose epochs share one edge set, finds its routes once and reads each
epoch's metrics for them. Both steps are array operations over the graph's
edge arrays: no per-candidate Python object is made, and a
:class:`~cgroute.model.Path` exists only for a candidate a caller reads.
Pricing scans the whole table, so it returns an exact minimizer of the
dual-adjusted length with no approximation gap, and one pricing pass over
every demand is a handful of array operations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .errors import ContractError
from .model import Demand, OverlayGraph, Path, check_endpoints
from .rmp import DualPoint

#: Absolute reduced-cost tolerance: a column must beat its convexity price
#: by more than this to be worth adding.
EPS_REDUCED_COST = 1e-7


def enumerate_candidates(graph: OverlayGraph, demands: Sequence[Demand]) -> CandidateTable:
    """All QoS-feasible routes of every demand: direct edge first, then
    relay routes by relay node id. A demand without one is never routable.
    """
    return CandidateTable.build(graph, demands, relays=True)


def _find(key: np.ndarray, wanted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Position of each ``wanted`` value in the ascending ``key``, and whether it is there."""
    pos = np.searchsorted(key, wanted)
    found = pos < len(key)
    found[found] = key[pos[found]] == wanted[found]
    return pos, found


@dataclass(frozen=True, eq=False)
class RouteGeometry:
    """Every route a demand set has on an edge set, whatever the metrics.

    A route is a demand's direct edge, or a relay ``k`` with edges
    ``s -> k`` and ``k -> t``. The routes are grouped by ``owner``, the
    demand's index in ``demands`` (ascending id), each demand's direct
    route first and its relays ascending: the candidate-list order.
    ``rows`` holds each route's five capacity rows, as
    :class:`CandidateTable` does. ``first`` is each route's first edge;
    ``relayed`` indexes the relayed routes and ``second`` holds their
    second edges. ``max_jitter``, ``min_success`` and ``rate`` are the
    owner's bounds and rate, per route. ``key`` is the edge keys the
    routes were found on (:attr:`OverlayGraph.arrays`); any graph with
    the same keys, such as every epoch of a trace, can read its metrics
    for them.
    """

    demands: tuple[Demand, ...]
    key: np.ndarray
    n_nodes: int
    owner: np.ndarray
    rows: np.ndarray
    first: np.ndarray
    relayed: np.ndarray
    second: np.ndarray
    max_jitter: np.ndarray
    min_success: np.ndarray
    rate: np.ndarray

    @classmethod
    def find(
        cls, graph: OverlayGraph, demands: Sequence[Demand], relays: bool = True
    ) -> RouteGeometry:
        """The routes of ``demands`` on ``graph``'s edges, in one pass over its
        arrays; only the direct routes, without searching for relays, when
        ``relays`` is false.

        A relay is the head of an out-edge of the source with an edge on to
        the destination. A demand endpoint outside the graph raises
        :class:`~cgroute.errors.InputError`.
        """
        demands = tuple(sorted(demands, key=lambda d: d.id))
        a, n, n_edges = graph.arrays, graph.n_nodes, len(graph.edges)
        ends = np.array([(d.source, d.destination) for d in demands], dtype=np.int64).reshape(-1, 2)
        if not ((0 <= ends) & (ends < n)).all():
            check_endpoints(n, demands)  # raises, naming the first such demand
        src, dst = ends.T
        bound = np.array(
            [(d.max_jitter_ms, d.min_success_prob, d.rate_mbps) for d in demands], dtype=float
        ).reshape(-1, 3)
        pos, found = _find(a.key, src * n + dst)
        with_edge = np.flatnonzero(found)  # the demands with a direct edge
        # Every out-edge of each demand's source is a first hop, or none
        # without relays.
        start = np.searchsorted(a.key, np.arange(n + 1) * n)
        fan = (start[1:] - start[:-1])[src] * relays
        q = np.repeat(np.arange(len(demands)), fan)
        hop1 = np.arange(len(q)) + np.repeat(start[src] - np.cumsum(fan) + fan, fan)
        k = a.head[hop1]
        # k == t would need a self-loop t -> t, which no graph has.
        hop2, found = _find(a.key, k * n + dst[q])
        q, hop1, hop2, k = q[found], hop1[found], hop2[found], k[found]
        owner = np.concatenate((with_edge, q))
        # Stable: direct routes stay ahead of relay routes, and relays ascending.
        order = np.argsort(owner, kind="stable")
        owner = owner[order]
        first = np.concatenate((pos[with_edge], hop1))[order]
        second = np.concatenate((np.full(len(with_edge), n_edges + n), hop2))[order]
        relay = np.concatenate((np.full(len(with_edge), n), k))[order]
        relayed = np.flatnonzero(relay < n)
        return cls(
            demands=demands,
            key=a.key,
            n_nodes=n,
            owner=owner,
            rows=np.stack((first, second, src[owner], relay, dst[owner]), axis=1)
            + np.array([0, 0, n_edges, n_edges, n_edges]),
            first=first,
            relayed=relayed,
            second=second[relayed],
            max_jitter=bound[owner, 0],
            min_success=bound[owner, 1],
            rate=bound[owner, 2],
        )

    def table(self, graph: OverlayGraph, relays: bool) -> CandidateTable:
        """The QoS-feasible routes on ``graph``, or only the direct ones when
        ``relays`` is false, as a candidate table.

        ``graph`` must have the edges the routes were found on, else
        :class:`~cgroute.errors.ContractError`. Delay and jitter are summed
        and success multiplied in edge order, starting from 0.0 as
        ``make_path`` does, so every aggregate is bit-equal to the path's.
        """
        a = graph.arrays
        if not np.array_equal(a.key, self.key):
            raise ContractError("graph has other edges than the routes were found on")
        first = self.first
        delay, jitter, success = 0.0 + a.delay[first], a.jitter[first], a.success[first]
        delay[self.relayed] += a.delay[self.second]
        jitter[self.relayed] += a.jitter[self.second]
        success[self.relayed] *= a.success[self.second]
        keep = (jitter <= self.max_jitter) & (success >= self.min_success)
        if not relays:
            keep[self.relayed] = False
        keep = np.flatnonzero(keep)
        owner = self.owner[keep]
        return CandidateTable(
            graph=graph,
            demands=self.demands,
            offsets=np.searchsorted(owner, np.arange(len(self.demands) + 1)),
            demand=owner,
            delay=delay[keep],
            rate=self.rate[keep],
            rows=self.rows[keep],
            n_edges=len(self.key),
            n_nodes=self.n_nodes,
        )


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
    which carries a zero dual and an unlimited capacity. :meth:`path`
    makes a candidate's :class:`~cgroute.model.Path` when one is needed.
    """

    graph: OverlayGraph
    demands: tuple[Demand, ...]
    offsets: np.ndarray
    demand: np.ndarray
    delay: np.ndarray
    rate: np.ndarray
    rows: np.ndarray
    n_edges: int
    n_nodes: int

    def __len__(self) -> int:
        return len(self.delay)

    @classmethod
    def build(cls, graph: OverlayGraph, demands: Sequence[Demand], relays: bool) -> CandidateTable:
        """The table of :func:`enumerate_candidates`, or only its direct
        routes when ``relays`` is false: :meth:`RouteGeometry.find`, then
        :meth:`RouteGeometry.table` on the same graph.
        """
        return RouteGeometry.find(graph, demands, relays).table(graph, relays)

    @classmethod
    def pack(
        cls,
        graph: OverlayGraph,
        demands: Sequence[Demand],
        candidates: Mapping[int, Sequence[Path]],
    ) -> CandidateTable:
        """The rows of :func:`enumerate_candidates` that ``candidates[d.id]``
        lists for each demand, in that order.

        Tests use it for sets the enumerator does not make, such as a
        subset or another order. A listed path that is not one of the
        demand's QoS-feasible routes, such as a rejection or another
        demand's route, raises :class:`ContractError`: only the master
        creates rejection columns.
        """
        full = cls.build(graph, demands, relays=True)
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

    def path(self, i: int) -> Path:
        """Candidate ``i`` as a :class:`~cgroute.model.Path`, made by :meth:`paths`."""
        return self.paths(np.array([i]))[0]

    def ends(self, index: np.ndarray) -> list[list[int]]:
        """Source, relay and destination node of candidates ``index``, as
        three lists; a direct route's relay is ``n_nodes``.
        """
        return (self.rows[index, 2:] - self.n_edges).T.tolist()

    def paths(self, index: np.ndarray) -> list[Path]:
        """Candidates ``index`` as paths equal to ``make_path``'s, made in one pass.

        Jitter and success are summed and multiplied in edge order from
        0.0 and 1.0, as ``make_path`` does; the delay is the table's, which
        is built the same way.
        """
        a, rows = self.graph.arrays, self.rows[index]
        relayed = rows[:, 3] < self.n_edges + self.n_nodes
        jitter = 0.0 + a.jitter[rows[:, 0]]
        success = 1.0 * a.success[rows[:, 0]]
        jitter[relayed] += a.jitter[rows[relayed, 1]]
        success[relayed] *= a.success[rows[relayed, 1]]
        ids = [self.demands[r].id for r in self.demand[index].tolist()]
        src, relay, dst = self.ends(index)
        return [
            Path(did, ((s, k), (k, t)), (s, k, t), delay, j, p)
            if k < self.n_nodes
            else Path(did, ((s, t),), (s, t), delay, j, p)
            for did, s, k, t, delay, j, p in zip(
                ids, src, relay, dst, self.delay[index].tolist(), jitter.tolist(), success.tolist()
            )
        ]

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


def price_demand(table: CandidateTable, duals: DualPoint) -> dict[int, tuple[int, float]]:
    """Exact pricing of every demand at once: the columns that would enter.

    Returns ``{demand id: (candidate index, reduced_cost)}`` for each
    demand whose cheapest candidate undercuts its convexity price by more
    than :data:`EPS_REDUCED_COST`, in ascending demand id order; demands
    whose duals are already feasible, or that have no candidate, are
    absent. Ties keep the first candidate in list order, so results are
    deterministic.
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
    enter = np.flatnonzero(best < sigma - EPS_REDUCED_COST)
    reduced = best[enter] - sigma[enter]
    return {
        table.demands[r].id: (c, rc)
        for r, c, rc in zip(rows[enter].tolist(), first[enter].tolist(), reduced.tolist())
    }
