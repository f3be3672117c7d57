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
from dataclasses import dataclass, replace
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

from .errors import ContractError, InputError

NodeId = int
Edge = tuple[NodeId, NodeId]

#: Rejected demands are priced at this multiple of ``OverlayGraph.big_m``,
#: so a rejection is always strictly worse than any routable alternative.
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
    master's edge-capacity rows. ``big_m`` is the rejection penalty delay,
    set by :func:`augment_clique`.
    """

    n_nodes: int
    edges: Mapping[Edge, LinkMetrics]
    node_limits: tuple[float, ...]
    big_m: Optional[float] = None

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
    def out_neighbours(self) -> Mapping[NodeId, frozenset[NodeId]]:
        """Heads of each node's out-edges; nodes without any are absent."""
        return _neighbours(self.edges, 0)

    @cached_property
    def in_neighbours(self) -> Mapping[NodeId, frozenset[NodeId]]:
        """Tails of each node's in-edges; nodes without any are absent."""
        return _neighbours(self.edges, 1)

    def metrics(self, edge: Edge) -> LinkMetrics:
        return self.edges[edge]


def _neighbours(edges: Iterable[Edge], side: int) -> Mapping[NodeId, frozenset[NodeId]]:
    index: dict[NodeId, set[NodeId]] = {}
    for e in edges:
        index.setdefault(e[side], set()).add(e[1 - side])
    return MappingProxyType({i: frozenset(nbrs) for i, nbrs in index.items()})


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


def make_path(graph: OverlayGraph, demand: Demand, relay: NodeId | None = None) -> Path:
    """Build the direct path for ``demand``, or the dogleg through ``relay``."""
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
    """Check ``demands`` against ``graph`` and set the rejection penalty.

    Returns the same graph, edges untouched, with ``big_m`` set to
    2 * |demands| * (max edge delay) + 1 ms. That strictly exceeds the
    total delay of any routing of all demands, so accepting one more demand
    always beats any delay saving. Idempotent. This is the one input check
    the heuristic and the exact benchmark share: every demand endpoint must
    be a node of the graph.
    """
    if graph.n_nodes < 2:
        raise InputError("routing needs at least two nodes")
    if not demands:
        raise InputError("routing needs a nonempty demand set")
    for d in demands:
        if not (0 <= d.source < graph.n_nodes and 0 <= d.destination < graph.n_nodes):
            raise InputError(
                f"demand {d.id}: endpoint outside the graph's nodes 0..{graph.n_nodes - 1}"
            )
    max_delay = max((m.delay_ms for m in graph.edges.values()), default=0.0)
    return replace(graph, big_m=2.0 * len(demands) * max_delay + 1.0)


def dummy_penalty(graph: OverlayGraph) -> float:
    """Cost of rejecting a demand; requires ``big_m`` from :func:`augment_clique`."""
    if graph.big_m is None:
        raise ContractError("graph must go through augment_clique first")
    return DUMMY_PENALTY_FACTOR * graph.big_m


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
