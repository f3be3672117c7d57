"""Domain model for QoS-constrained overlay routing.

The overlay is a directed graph whose edges carry measured delay, jitter,
capacity and success-probability metrics, and whose nodes have a processing
rate limit. A demand asks to move a fixed rate between two nodes while
respecting bounds on jitter and end-to-end success probability. Routes use
at most one relay, so a path is either the direct edge or a two-edge dogleg
through a single intermediate node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ContractError, InputError

NodeId = int
Edge = tuple[NodeId, NodeId]

#: Rejected demands are priced at this multiple of the largest possible
#: total delay of a routing (see :func:`dummy_penalty`), so a rejection is
#: always strictly worse than any routable alternative.
DUMMY_PENALTY_FACTOR = 10.0


@dataclass(frozen=True)
class LinkMetrics:
    """Measured QoS metrics of one directed overlay link."""

    delay_ms: float
    jitter_ms: float
    capacity_mbps: float
    success_prob: float

    def __post_init__(self):
        if not (math.isfinite(self.delay_ms) and self.delay_ms >= 0.0):
            raise InputError(f"delay must be finite and >= 0, got {self.delay_ms}")
        if not (math.isfinite(self.jitter_ms) and self.jitter_ms >= 0.0):
            raise InputError(f"jitter must be finite and >= 0, got {self.jitter_ms}")
        if not (math.isfinite(self.capacity_mbps) and self.capacity_mbps > 0.0):
            raise InputError(f"capacity must be finite and > 0, got {self.capacity_mbps}")
        if not (0.0 < self.success_prob <= 1.0):
            raise InputError(
                f"success probability must be in (0, 1], got {self.success_prob}"
            )


@dataclass(frozen=True)
class Demand:
    """A video transfer request: rate plus jitter and reliability bounds."""

    id: int
    source: NodeId
    destination: NodeId
    rate_mbps: float
    max_jitter_ms: float
    min_success_prob: float

    def __post_init__(self):
        if self.id < 0:
            raise InputError(f"demand {self.id}: id must be >= 0")
        if self.source == self.destination:
            raise InputError(f"demand {self.id}: source equals destination")
        if not (math.isfinite(self.rate_mbps) and self.rate_mbps > 0.0):
            raise InputError(f"demand {self.id}: rate must be finite and > 0")
        if not self.max_jitter_ms >= 0.0:
            raise InputError(f"demand {self.id}: jitter bound must be >= 0")
        if not (0.0 < self.min_success_prob <= 1.0):
            raise InputError(f"demand {self.id}: success bound must be in (0, 1]")


@dataclass(frozen=True)
class OverlayGraph:
    """Directed overlay graph. Immutable once built; share freely.

    ``edges`` holds the measured links only, in ascending (tail, head)
    order when built by :meth:`from_edges`; that order is the order of the
    master's edge-capacity rows. The graph knows nothing of demands: the
    rejection penalty, which depends on the demand set, is
    :func:`dummy_penalty`.
    """

    n_nodes: int
    edges: Mapping[Edge, LinkMetrics]
    node_limits: tuple[float, ...]

    # Not a field and always empty; kept only because perfbench/checker.py reads it.
    artificial = frozenset()

    @classmethod
    def from_edges(
        cls,
        n_nodes: int,
        edges: Mapping[Edge, LinkMetrics] | Iterable[tuple[Edge, LinkMetrics]],
        node_limits: Sequence[float],
    ) -> "OverlayGraph":
        if n_nodes < 1:
            raise InputError("graph needs at least one node")
        if len(node_limits) != n_nodes:
            raise InputError(
                f"expected {n_nodes} node limits, got {len(node_limits)}"
            )
        limits = tuple(float(x) for x in node_limits)
        if any(not (math.isfinite(x) and x >= 0.0) for x in limits):
            raise InputError("node processing limits must be finite and >= 0")
        items = dict(edges)
        for (i, j) in items:
            if i == j:
                raise InputError(f"self-loop ({i},{j}) not allowed")
            if not (0 <= i < n_nodes and 0 <= j < n_nodes):
                raise InputError(f"edge ({i},{j}) references unknown node")
        ordered = {e: items[e] for e in sorted(items)}
        return cls(n_nodes, MappingProxyType(ordered), limits)

    @cached_property
    def arrays(self) -> EdgeArrays:
        """The edges as read-only arrays in ``edges`` order (the master's
        edge rows), built on first use.

        ``key`` is ``tail * n_nodes + head`` and ascends, as
        :meth:`from_edges` sorts the edges, so each node's out-edges are
        one slice, ascending by head. ``index[tail, head]`` is the edge's
        row, or -1 where there is no edge: an ``n_nodes`` by ``n_nodes``
        int32 matrix, 160 KB at 200 nodes.
        """
        n = self.n_nodes
        ends = np.array(list(self.edges), dtype=np.int64).reshape(-1, 2)
        key = ends[:, 0] * n + ends[:, 1]
        if (np.diff(key) <= 0).any():
            raise ContractError("graph edges are not in ascending (tail, head) order")
        metrics = np.array(
            [(m.delay_ms, m.jitter_ms, m.success_prob, m.capacity_mbps) for m in self.edges.values()],
            dtype=float,
        ).reshape(-1, 4)
        index = np.full((n, n), -1, dtype=np.int32)
        index[ends[:, 0], ends[:, 1]] = np.arange(len(ends))
        columns = [ends[:, 1].copy(), key, index, *metrics.T.copy()]
        for c in columns:
            c.flags.writeable = False
        return EdgeArrays(*columns)


@dataclass(frozen=True, eq=False)
class EdgeArrays:
    """Per-edge columns of an :class:`OverlayGraph`; see :attr:`OverlayGraph.arrays`."""

    head: np.ndarray
    key: np.ndarray
    index: np.ndarray
    delay: np.ndarray
    jitter: np.ndarray
    success: np.ndarray
    capacity: np.ndarray


@dataclass(frozen=True)
class Path:
    """A concrete route for one demand, with cached aggregate metrics.

    Aggregates are computed once, in edge order, when the path is built;
    they must always equal a recomputation from the edge list. A dummy path
    has no edges and stands for rejecting the demand.
    """

    demand_id: int
    edges: tuple[Edge, ...]
    nodes: tuple[NodeId, ...]
    total_delay_ms: float
    total_jitter_ms: float
    success_prob: float
    is_dummy: bool = False

    # Not a field and always False; kept only because perfbench/checker.py reads it.
    uses_artificial = False


def make_dummy_path(demand: Demand, penalty: float) -> Path:
    """The rejection placeholder: no edges, no QoS checks, penalty delay."""
    return Path(
        demand_id=demand.id,
        edges=(),
        nodes=(),
        total_delay_ms=float(penalty),
        total_jitter_ms=0.0,
        success_prob=1.0,
        is_dummy=True,
    )


# The name is kept although no clique is built: perfbench/spans.py and
# perfbench/workloads.py look the function up under it.
def augment_clique(graph: OverlayGraph, demands: Sequence[Demand]) -> OverlayGraph:
    """Check that ``demands`` can be routed on ``graph``; return ``graph``.

    This is the one input check the heuristic and the exact benchmark
    share: at least two nodes, a nonempty demand set, and every demand
    endpoint a node of the graph. The graph is returned unchanged.
    """
    if graph.n_nodes < 2:
        raise InputError("routing needs at least two nodes")
    if not demands:
        raise InputError("routing needs a nonempty demand set")
    check_endpoints(graph.n_nodes, demands)
    return graph


def check_endpoints(n_nodes: int, demands: Iterable[Demand]):
    """Raise :class:`InputError` naming the first demand with an endpoint
    that is not one of the nodes ``0 .. n_nodes - 1``.
    """
    for d in demands:
        if not (0 <= d.source < n_nodes and 0 <= d.destination < n_nodes):
            raise InputError(
                f"demand {d.id}: endpoint outside the graph's nodes 0..{n_nodes - 1}"
            )


def dummy_penalty(graph: OverlayGraph, demands: Sequence[Demand]) -> float:
    """Cost of rejecting one demand of ``demands`` on ``graph``.

    ``DUMMY_PENALTY_FACTOR`` times 2 * |demands| * (max edge delay) + 1 ms.
    The second factor strictly exceeds the total delay of any routing of
    all demands, so accepting one more demand always beats any delay
    saving.

    Rejecting every demand costs the most of any routing, so when that
    cost is too large for a float, :class:`InputError` is raised: the
    penalty is at least 20 times the largest link delay, so it overflows
    before any route's delay does.
    """
    max_delay = float(graph.arrays.delay.max(initial=0.0))
    penalty = DUMMY_PENALTY_FACTOR * (2.0 * len(demands) * max_delay + 1.0)
    if not math.isfinite(penalty * len(demands)):
        raise InputError(
            f"rejecting all {len(demands)} demands costs more than a float holds: "
            f"the largest link delay, {max_delay!r} ms, is too large"
        )
    return penalty

