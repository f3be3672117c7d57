"""Candidate-path enumeration and the column-generation pricing step.

With at most one relay per route, the feasible path set of a demand is
small enough to enumerate outright: the direct edge plus one dogleg per
relay node. Enumeration takes two steps. :meth:`RouteGeometry.find` finds
which routes exist for a demand set on an edge set, from the edges alone;
:meth:`RouteGeometry.table` reads one graph's metrics for those routes and
keeps the QoS-feasible ones, in one flat :class:`CandidateTable`.
:func:`enumerate_candidates` is the two steps on one graph; a trace replay,
whose epochs share one edge set, finds its routes once and reads each
epoch's metrics for them. A route is held as its capacity rows alone, and
:func:`route_metrics` is the one place its delay, jitter and success are
computed from them: for the QoS mask, for a :class:`~cgroute.model.Path`
and for a report's throughput. Both steps are array operations over the
graph's edge arrays: no per-candidate Python object is made, and a
:class:`~cgroute.model.Path` exists only for a candidate a caller reads.
Pricing scans the whole table, so it returns an exact minimizer of the
dual-adjusted length with no approximation gap, and one pricing pass over
every demand is a handful of array operations. The first pass of column
generation comes before any master solve: it prices the all-rejection
master, whose duals make each demand's cheapest candidate the one to
enter, and :func:`price_rejections` reads it from the table's delays,
through the segmented argmin :func:`price_demand` uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ContractError
from .model import Demand, EdgeArrays, OverlayGraph, Path, check_endpoints
from .rmp import DualPoint, first_least

#: Absolute reduced-cost tolerance: a column must beat its convexity price
#: by more than this to be worth adding.
EPS_REDUCED_COST = 1e-7


def enumerate_candidates(graph: OverlayGraph, demands: Sequence[Demand]) -> CandidateTable:
    """All QoS-feasible routes of every demand: direct edge first, then
    relay routes by relay node id. A demand without one is never routable.
    """
    return RouteGeometry.find(graph, demands).table(graph, relays=True)


def route_metrics(arrays: EdgeArrays, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Delay, jitter and success probability of the routes with capacity
    ``rows`` (:class:`CandidateTable`'s row layout) on edges ``arrays``.

    Delay and jitter are summed from 0.0 and success multiplied from 1.0,
    first edge then second, as the tests' scalar ``make_path`` does, so each
    is bit-equal to the path's. A direct route's second edge is the pad
    row, read as a hop of delay and jitter 0.0 and success 1.0, which
    changes no bit.
    """
    n_edges = len(arrays.key)
    first, second = rows[:, 0], np.minimum(rows[:, 1], n_edges)
    delay = (0.0 + arrays.delay[first]) + np.concatenate((arrays.delay, [0.0]))[second]
    jitter = (0.0 + arrays.jitter[first]) + np.concatenate((arrays.jitter, [0.0]))[second]
    success = (1.0 * arrays.success[first]) * np.concatenate((arrays.success, [1.0]))[second]
    return delay, jitter, success


@dataclass(frozen=True, eq=False)
class RouteGeometry:
    """Every route a demand set has on an edge set, whatever the metrics.

    A route is a demand's direct edge, or a relay ``k`` with edges
    ``s -> k`` and ``k -> t``. The routes are grouped by ``owner``, the
    demand's index in ``demands`` (ascending id), each demand's direct
    route first and its relays ascending: the candidate-list order.
    ``rows`` holds each route's five capacity rows, as
    :class:`CandidateTable` does; they name its edges, so they are all a
    graph needs to give the route's metrics (:func:`route_metrics`).
    ``max_jitter``, ``min_success`` and ``rate`` are the owner's bounds
    and rate, per route. ``key`` is the edge keys the routes were found on
    (:attr:`OverlayGraph.arrays`); any graph with the same keys, such as
    every epoch of a trace, can read its metrics for them.
    """

    demands: tuple[Demand, ...]
    key: np.ndarray
    n_nodes: int
    owner: np.ndarray
    rows: np.ndarray
    max_jitter: np.ndarray
    min_success: np.ndarray
    rate: np.ndarray

    @classmethod
    def find(cls, graph: OverlayGraph, demands: Sequence[Demand]) -> RouteGeometry:
        """The routes of ``demands`` on ``graph``'s edges, in one pass over its arrays.

        A relay is the head of an out-edge of the source with an edge on to
        the destination; the graph's edge-index matrix
        (:attr:`~cgroute.model.EdgeArrays.index`) finds that edge and the
        direct one. A demand endpoint outside the graph raises
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
        pos = a.index[src, dst]
        with_edge = np.flatnonzero(pos >= 0)  # the demands with a direct edge
        # Every out-edge of each demand's source is a first hop.
        start = np.searchsorted(a.key, np.arange(n + 1) * n)
        fan = (start[1:] - start[:-1])[src]
        q = np.repeat(np.arange(len(demands)), fan)
        hop1 = np.arange(len(q)) + np.repeat(start[src] - np.cumsum(fan) + fan, fan)
        k = a.head[hop1]
        # k == t would need a self-loop t -> t, which no graph has.
        hop2 = a.index[k, dst[q]]
        found = hop2 >= 0
        q, hop1, hop2, k = q[found], hop1[found], hop2[found], k[found]
        owner = np.concatenate((with_edge, q))
        # Stable: direct routes stay ahead of relay routes, and relays ascending.
        order = np.argsort(owner, kind="stable")
        owner = owner[order]
        first = np.concatenate((pos[with_edge], hop1))[order]
        second = np.concatenate((np.full(len(with_edge), n_edges + n), hop2))[order]
        relay = np.concatenate((np.full(len(with_edge), n), k))[order]
        return cls(
            demands=demands,
            key=a.key,
            n_nodes=n,
            owner=owner,
            rows=np.stack((first, second, src[owner], relay, dst[owner]), axis=1)
            + np.array([0, 0, n_edges, n_edges, n_edges]),
            max_jitter=bound[owner, 0],
            min_success=bound[owner, 1],
            rate=bound[owner, 2],
        )

    def table(self, graph: OverlayGraph, relays: bool) -> CandidateTable:
        """The QoS-feasible routes on ``graph``, or only the direct ones when
        ``relays`` is false, as a candidate table; delays are
        :func:`route_metrics`'.

        A direct table selects the direct routes, whose second edge is the
        pad row, before it reads any metric; the overlay table reads every
        route, through views of the geometry's arrays. ``graph`` must have
        the edges the routes were found on, else
        :class:`~cgroute.errors.ContractError`.
        """
        a = graph.arrays
        if not np.array_equal(a.key, self.key):
            raise ContractError("graph has other edges than the routes were found on")
        routes = slice(None) if relays else np.flatnonzero(self.rows[:, 1] >= len(self.key))
        rows = self.rows[routes]
        delay, jitter, success = route_metrics(a, rows)
        keep = np.flatnonzero(
            (jitter <= self.max_jitter[routes]) & (success >= self.min_success[routes])
        )
        owner = self.owner[routes][keep]
        return CandidateTable(
            graph=graph,
            demands=self.demands,
            offsets=np.searchsorted(owner, np.arange(len(self.demands) + 1)),
            demand=owner,
            delay=delay[keep],
            rate=self.rate[routes][keep],
            rows=rows[keep],
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
    which carries a zero dual and an unlimited capacity. A candidate's
    jitter and success are not kept: :func:`route_metrics` reads them from
    ``graph`` and ``rows``, and :meth:`path` makes a candidate's
    :class:`~cgroute.model.Path` when one is needed.
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

    def path(self, i: int) -> Path:
        """Candidate ``i`` as a :class:`~cgroute.model.Path`, made by :meth:`paths`."""
        return self.paths(np.array([i]))[0]

    def paths(self, index: np.ndarray) -> list[Path]:
        """Candidates ``index`` as paths, made in one pass from
        :func:`route_metrics`.
        """
        rows = self.rows[index]
        delay, jitter, success = route_metrics(self.graph.arrays, rows)
        ids = [self.demands[r].id for r in self.demand[index].tolist()]
        src, relay, dst = (rows[:, 2:] - self.n_edges).T.tolist()
        return [
            Path(did, ((s, k), (k, t)), (s, k, t), d, j, p)
            if k < self.n_nodes
            else Path(did, ((s, t),), (s, t), d, j, p)
            for did, s, k, t, d, j, p in zip(
                ids, src, relay, dst, delay.tolist(), jitter.tolist(), success.tolist()
            )
        ]

    def priced_lengths(self, duals: DualPoint) -> np.ndarray:
        """Every candidate's delay plus the capacity rent it would pay.

        ``duals.capacity`` is in the table's row space; the pad row is
        priced 0.0. Summed in a fixed order (edges, then nodes in path
        order), so each entry is bit-identical to a per-candidate scalar loop.
        """
        shape = (len(duals.capacity), len(duals.convexity))
        if shape != (self.n_edges + self.n_nodes, len(self.demands)):
            raise ContractError("dual point does not match the candidate table")
        v = np.append(duals.capacity, 0.0)[self.rows]
        rent = (v[:, 0] + v[:, 1]) + ((v[:, 2] + v[:, 3]) + v[:, 4])
        return self.delay + self.rate * rent


def _cheapest(table: CandidateTable, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Segmented argmin of ``lengths``, one entry per candidate of ``table``.

    Returns the demands that have candidates at all, as rows of
    ``table.demands``, and each one's candidate of least length by
    :func:`~cgroute.rmp.first_least`: ties keep the first in list order.
    """
    counts = np.diff(table.offsets)
    rows = np.flatnonzero(counts)
    if not len(rows):
        return rows, rows
    return rows, first_least(lengths, table.offsets[rows], counts[rows])


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
    rows, first = _cheapest(table, priced)
    best = priced[first]
    sigma = duals.convexity[rows]
    enter = np.flatnonzero(best < sigma - EPS_REDUCED_COST)
    reduced = best[enter] - sigma[enter]
    return {
        table.demands[r].id: (c, rc)
        for r, c, rc in zip(rows[enter].tolist(), first[enter].tolist(), reduced.tolist())
    }


def price_rejections(table: CandidateTable, penalty: float) -> np.ndarray:
    """:func:`price_demand` at the all-rejection master's duals, read from
    the table alone, so that master is never solved: the entering
    candidates' indices, in ascending demand id.

    Those duals price no capacity and every convexity row at the rejection
    ``penalty``, so a candidate's priced length is its delay, bit for bit,
    and each demand's entering column is its cheapest candidate (the first
    on ties), if it undercuts ``penalty`` by more than
    :data:`EPS_REDUCED_COST`. The penalty exceeds every route's delay, so
    every demand with a candidate has one.
    """
    _, first = _cheapest(table, table.delay)
    return first[table.delay[first] < penalty - EPS_REDUCED_COST]
