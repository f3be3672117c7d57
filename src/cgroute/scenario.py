"""Scenario inputs: trace replay files and synthetic network generation.

File formats (all comma-separated, floats written with full round-trip
precision so save/load is bit-exact):

* graph file, one directed edge per line:
  ``src,dst,delay_ms,jitter_ms,capacity_mbps,success_prob``
* node limits file, one node per line: ``node,processing_mbps``
* demands file, one demand per line:
  ``id,src,dst,rate_mbps,max_jitter_ms,min_success_prob``
* trace file, with header, epochs grouped by timestamp:
  ``epoch_ts,src,dst,delay_ms,jitter_ms,capacity_mbps,success_prob``
* synthetic-parameters file: ``key = value`` lines mirroring
  :class:`SyntheticParams` field names, ranges as ``lo,hi``.

A bad row raises :class:`~cgroute.errors.FormatError` reading
``<path>: line <N>: <reason>``.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path as FsPath
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

import numpy as np
import numpy.random  # NumPy loads it lazily: load it with the package, not in the first draw

from .errors import FormatError, InputError
from .model import Demand, Edge, LinkMetrics, OverlayGraph, check_endpoints


@dataclass(frozen=True)
class TraceEpoch:
    """One monitoring snapshot: fresh metrics for every overlay link."""

    timestamp: float
    edges: Mapping[Edge, LinkMetrics]


@dataclass(frozen=True)
class Trace:
    """An ordered sequence of epochs over a fixed edge set and node limits.

    Every epoch must list the first epoch's edges in the same order, so a
    replay can find the demands' routes once for all of them; another
    edge set raises :class:`~cgroute.errors.InputError` naming the epoch.
    """

    n_nodes: int
    epochs: tuple[TraceEpoch, ...]
    node_limits: tuple[float, ...]

    def __post_init__(self):
        if self.epochs:
            edges = tuple(self.epochs[0].edges)
            for epoch in self.epochs[1:]:
                if tuple(epoch.edges) != edges:
                    raise InputError(
                        f"epoch {epoch.timestamp!r} has other edges than the first epoch"
                    )

    def graph_for(self, epoch: TraceEpoch) -> OverlayGraph:
        return OverlayGraph.from_edges(self.n_nodes, epoch.edges, self.node_limits)


@dataclass(frozen=True)
class SyntheticParams:
    """Knobs for the random-network generator.

    Defaults follow the synthetic CDN evaluation setup: a 50-node
    preferential-attachment overlay with 450 directed links, uniform link
    metrics, exponential demand rates, and uniform per-demand QoS bounds
    expressed as maximum end-to-end loss.
    """

    n_nodes: int = 50
    n_edges: int = 450  # directed
    capacity_range_mbps: tuple[float, float] = (300.0, 500.0)
    delay_range_ms: tuple[float, float] = (1.0, 500.0)
    jitter_range_ms: tuple[float, float] = (0.0, 50.0)
    loss_range: tuple[float, float] = (0.0, 0.2)
    node_capacity_mbps: float = 400.0
    n_demands: int = 90
    rate_mean_mbps: float = 50.0
    rate_fixed_mbps: Optional[float] = None
    jitter_bound_range_ms: tuple[float, float] = (25.0, 200.0)
    loss_bound_range: tuple[float, float] = (0.1, 0.8)
    seed: int = 0

    def __post_init__(self):
        for name in (
            "capacity_range_mbps",
            "delay_range_ms",
            "jitter_range_ms",
            "loss_range",
            "jitter_bound_range_ms",
            "loss_bound_range",
        ):
            lo, hi = getattr(self, name)
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                raise InputError(f"{name} must be a nonempty finite range")
        if self.capacity_range_mbps[0] <= 0.0:
            raise InputError("capacity_range_mbps must stay above 0")
        for name in ("delay_range_ms", "jitter_range_ms", "jitter_bound_range_ms"):
            if getattr(self, name)[0] < 0.0:
                raise InputError(f"{name} must stay at or above 0")
        for name in ("loss_range", "loss_bound_range"):
            lo, hi = getattr(self, name)
            if lo < 0.0 or hi >= 1.0:
                raise InputError(f"{name} must stay within [0, 1)")
        for name, least in (("n_nodes", 2), ("n_edges", 0), ("n_demands", 0)):
            if getattr(self, name) < least:
                raise InputError(f"{name} must be at least {least}")
        if not (math.isfinite(self.rate_mean_mbps) and self.rate_mean_mbps > 0.0):
            raise InputError("rate_mean_mbps must be finite and > 0")
        rate = self.rate_fixed_mbps
        if rate is not None and not (math.isfinite(rate) and rate > 0.0):
            raise InputError("rate_fixed_mbps must be finite and > 0")
        if not (math.isfinite(self.node_capacity_mbps) and self.node_capacity_mbps >= 0.0):
            raise InputError("node_capacity_mbps must be finite and >= 0")
        if self.seed < 0:
            raise InputError("seed must be nonnegative")


# -- parsing helpers ----------------------------------------------------------


def _parse_fields(line: str, n: int, lineno: int) -> list[str]:
    parts = [p.strip() for p in line.split(",")]
    if len(parts) != n:
        raise FormatError(f"expected {n} comma-separated fields, got {len(parts)}", lineno)
    return parts


def _parse_float(text: str, what: str, lineno: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise FormatError(f"bad {what} value {text!r}", lineno) from None


def _parse_int(text: str, what: str, lineno: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise FormatError(f"bad {what} value {text!r}", lineno) from None


@contextmanager
def _naming(path: FsPath):
    """Put ``path`` into every :class:`FormatError` raised inside that has none."""
    try:
        yield
    except FormatError as exc:
        if exc.path is not None:
            raise
        raise FormatError(exc.reason, exc.line, path) from None


def _data_lines(path: FsPath) -> list[tuple[int, str]]:
    try:
        raw = FsPath(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    out = []
    for lineno, line in enumerate(raw.splitlines(), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            out.append((lineno, stripped))
    return out


def _metrics_from(parts: list[str], lineno: int) -> LinkMetrics:
    vals = [
        _parse_float(parts[0], "delay", lineno),
        _parse_float(parts[1], "jitter", lineno),
        _parse_float(parts[2], "capacity", lineno),
        _parse_float(parts[3], "success_prob", lineno),
    ]
    try:
        return LinkMetrics(*vals)
    except InputError as exc:
        raise FormatError(str(exc), lineno) from None


def _edge_from(
    parts: list[str], n_nodes: int, seen: Mapping[Edge, LinkMetrics], lineno: int
) -> Edge:
    """The edge a graph or trace row names: two distinct nodes below
    ``n_nodes``, not already in ``seen`` (the file's or the epoch's edges).
    """
    i = _parse_int(parts[0], "src", lineno)
    j = _parse_int(parts[1], "dst", lineno)
    if not (0 <= i < n_nodes and 0 <= j < n_nodes):
        raise FormatError(f"edge ({i},{j}) references unknown node", lineno)
    if i == j:
        raise FormatError(f"self-loop ({i},{j}) not allowed", lineno)
    if (i, j) in seen:
        raise FormatError(f"duplicate edge ({i},{j})", lineno)
    return i, j


# -- node limits ---------------------------------------------------------------


def load_node_limits(path: FsPath) -> tuple[float, ...]:
    limits: dict[int, float] = {}
    with _naming(path):
        for lineno, line in _data_lines(path):
            parts = _parse_fields(line, 2, lineno)
            node = _parse_int(parts[0], "node id", lineno)
            if node < 0:
                raise FormatError("node id must be >= 0", lineno)
            if node in limits:
                raise FormatError(f"duplicate node {node}", lineno)
            limit = _parse_float(parts[1], "processing limit", lineno)
            if not (math.isfinite(limit) and limit >= 0.0):
                raise FormatError(f"node {node}: processing limit must be finite and >= 0", lineno)
            limits[node] = limit
        if not limits:
            raise FormatError("no node limits found")
        # Distinct ids >= 0 are 0..n-1 exactly when the largest is n - 1.
        if max(limits) != len(limits) - 1:
            missing = min(set(range(len(limits))) - set(limits))
            raise FormatError(f"node ids must be dense 0..{len(limits) - 1}: no node {missing}")
    return tuple(limits[i] for i in range(len(limits)))


def save_node_limits(limits: Sequence[float], path: FsPath):
    text = "".join(f"{i},{float(x)!r}\n" for i, x in enumerate(limits))
    FsPath(path).write_text(text)


# -- static graph ---------------------------------------------------------------


def load_graph(graph_path: FsPath, limits_path: FsPath) -> OverlayGraph:
    limits = load_node_limits(limits_path)
    edges: dict[Edge, LinkMetrics] = {}
    with _naming(graph_path):
        for lineno, line in _data_lines(graph_path):
            parts = _parse_fields(line, 6, lineno)
            edge = _edge_from(parts, len(limits), edges, lineno)
            edges[edge] = _metrics_from(parts[2:], lineno)
    return OverlayGraph.from_edges(len(limits), edges, limits)


def save_graph(graph: OverlayGraph, path: FsPath):
    lines = []
    for (i, j), m in graph.edges.items():
        lines.append(
            f"{i},{j},{m.delay_ms!r},{m.jitter_ms!r},{m.capacity_mbps!r},{m.success_prob!r}\n"
        )
    FsPath(path).write_text("".join(lines))


# -- demands --------------------------------------------------------------------


def load_demands(path: FsPath, n_nodes: Optional[int] = None) -> list[Demand]:
    """The demands of ``path``; with ``n_nodes``, each endpoint must be one
    of the nodes ``0 .. n_nodes - 1``, checked on the demand's own line.
    """
    demands: list[Demand] = []
    seen: set[int] = set()
    with _naming(path):
        for lineno, line in _data_lines(path):
            parts = _parse_fields(line, 6, lineno)
            did = _parse_int(parts[0], "demand id", lineno)
            if did in seen:
                raise FormatError(f"duplicate demand id {did}", lineno)
            seen.add(did)
            values = (
                did,
                _parse_int(parts[1], "src", lineno),
                _parse_int(parts[2], "dst", lineno),
                _parse_float(parts[3], "rate", lineno),
                _parse_float(parts[4], "jitter bound", lineno),
                _parse_float(parts[5], "success bound", lineno),
            )
            try:
                demand = Demand(*values)
                if n_nodes is not None:
                    check_endpoints(n_nodes, [demand])
            except InputError as exc:
                raise FormatError(str(exc), lineno) from None
            demands.append(demand)
    return demands


def save_demands(demands: Sequence[Demand], path: FsPath):
    lines = [
        f"{d.id},{d.source},{d.destination},{d.rate_mbps!r},"
        f"{d.max_jitter_ms!r},{d.min_success_prob!r}\n"
        for d in demands
    ]
    FsPath(path).write_text("".join(lines))


# -- traces ---------------------------------------------------------------------

TRACE_HEADER = "epoch_ts,src,dst,delay_ms,jitter_ms,capacity_mbps,success_prob"


def load_trace(trace_path: FsPath, limits_path: FsPath) -> Trace:
    """Strictly parse a metric time series; epochs must share one edge set."""
    limits = load_node_limits(limits_path)
    lines = _data_lines(trace_path)
    if not lines or lines[0][1] != TRACE_HEADER:
        raise FormatError(f"first line must be '{TRACE_HEADER}'", path=trace_path)
    epochs: list[TraceEpoch] = []
    current_ts: Optional[float] = None
    current: dict[Edge, LinkMetrics] = {}
    reference: Optional[frozenset[Edge]] = None

    def flush(lineno: int):
        nonlocal current_ts, current, reference
        if current_ts is None:
            return
        edge_set = frozenset(current)
        if reference is None:
            reference = edge_set
        elif edge_set != reference:
            raise FormatError(
                f"epoch {current_ts!r} covers a different edge set than the first epoch",
                lineno,
            )
        epochs.append(TraceEpoch(current_ts, MappingProxyType(dict(sorted(current.items())))))
        current = {}

    with _naming(trace_path):
        for lineno, line in lines[1:]:
            parts = _parse_fields(line, 7, lineno)
            ts = _parse_float(parts[0], "epoch timestamp", lineno)
            if current_ts is None or ts != current_ts:
                if current_ts is not None and ts < current_ts:
                    raise FormatError("epoch timestamps must be nondecreasing", lineno)
                flush(lineno)
                current_ts = ts
            edge = _edge_from(parts[1:], len(limits), current, lineno)
            current[edge] = _metrics_from(parts[3:], lineno)
        flush(lines[-1][0])
        if not epochs:
            raise FormatError("trace contains no epochs")
    return Trace(n_nodes=len(limits), epochs=tuple(epochs), node_limits=limits)


def save_trace(trace: Trace, path: FsPath):
    out = [TRACE_HEADER + "\n"]
    for epoch in trace.epochs:
        for (i, j), m in epoch.edges.items():
            out.append(
                f"{epoch.timestamp!r},{i},{j},{m.delay_ms!r},{m.jitter_ms!r},"
                f"{m.capacity_mbps!r},{m.success_prob!r}\n"
            )
    FsPath(path).write_text("".join(out))


# -- synthetic parameter files ----------------------------------------------------


def save_params(params: SyntheticParams, path: FsPath):
    lines = []
    for f in fields(params):
        v = getattr(params, f.name)
        if v is None:
            lines.append(f"{f.name} = none\n")
        elif isinstance(v, tuple):
            lines.append(f"{f.name} = {v[0]!r},{v[1]!r}\n")
        else:
            lines.append(f"{f.name} = {v!r}\n")
    FsPath(path).write_text("".join(lines))


def load_params(path: FsPath) -> SyntheticParams:
    known = {f.name: f for f in fields(SyntheticParams)}
    kwargs = {}
    with _naming(path):
        for lineno, line in _data_lines(path):
            if "=" not in line:
                raise FormatError("expected 'key = value'", lineno)
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in known:
                raise FormatError(f"unknown parameter {key!r}", lineno)
            if key in kwargs:
                raise FormatError(f"repeated parameter {key!r}", lineno)
            if value.lower() == "none":
                kwargs[key] = None
            elif "," in value:
                lo, _, hi = value.partition(",")
                kwargs[key] = (
                    _parse_float(lo.strip(), key, lineno),
                    _parse_float(hi.strip(), key, lineno),
                )
            elif key in ("n_nodes", "n_edges", "n_demands", "seed"):
                kwargs[key] = _parse_int(value, key, lineno)
            else:
                kwargs[key] = _parse_float(value, key, lineno)
        try:
            return SyntheticParams(**kwargs)
        except (TypeError, InputError) as exc:
            raise FormatError(str(exc)) from None


# -- synthetic topology ------------------------------------------------------------


def _attachment_degree(n: int, target_undirected: int) -> int:
    """Attachment degree whose grown-graph edge count lands closest to target."""
    best_m, best_err = 1, None
    for m in range(1, n):
        achieved = n * (n - 1) // 2 if m == n - 1 else m * (n - m)
        err = abs(achieved - target_undirected)
        if best_err is None or err < best_err:
            best_m, best_err = m, err
    return best_m


def _preferential_targets(
    repeated: list[int], m: int, rng: np.random.Generator
) -> list[int]:
    targets: set[int] = set()
    while len(targets) < m:
        targets.add(repeated[int(rng.integers(len(repeated)))])
    return sorted(targets)


def _uniform(lo, hi, u):
    """What ``rng.uniform(lo, hi)`` returns when the double it draws is ``u``."""
    return lo + (hi - lo) * u


def generate_topology(params: SyntheticParams) -> OverlayGraph:
    """Preferential-attachment overlay with independently sampled directions.

    Grows a star seed by attaching each new node to ``m`` degree-weighted
    existing nodes, ``m`` chosen to approximate the requested directed edge
    count (saturating to the complete graph). Every undirected attachment
    becomes two directed edges whose metrics are sampled independently:
    after the attachment draws, four uniform doubles per directed edge, in
    (delay, jitter, capacity, loss) order, ``(u, v)`` before ``(v, u)``.
    Connected by construction and deterministic per seed.
    """
    n = params.n_nodes
    target_und, rem = divmod(params.n_edges, 2)
    if rem or target_und < n - 1 or target_und > n * (n - 1) // 2:
        raise InputError(
            f"cannot realize {params.n_edges} directed edges on {n} nodes: "
            f"need an even count in [{2 * (n - 1)}, {n * (n - 1)}]"
        )
    rng = np.random.default_rng([params.seed, 0])
    m = _attachment_degree(n, target_und)
    undirected: list[tuple[int, int]] = []
    if m == n - 1:
        undirected = [(u, v) for u in range(n) for v in range(u + 1, n)]
    else:
        undirected = [(0, leaf) for leaf in range(1, m + 1)]
        repeated = [0] * m + list(range(1, m + 1))
        for new in range(m + 1, n):
            for tgt in _preferential_targets(repeated, m, rng):
                undirected.append((tgt, new))
                repeated.append(tgt)
            repeated.extend([new] * m)

    ranges = (params.delay_range_ms, params.jitter_range_ms, params.capacity_range_mbps, params.loss_range)
    lo, hi = np.array(ranges, dtype=float).T
    metrics = _uniform(lo, hi, rng.random((2 * len(undirected), 4))).tolist()
    ends = [e for u, v in undirected for e in ((u, v), (v, u))]
    edges = {e: LinkMetrics(d, j, c, 1.0 - x) for e, (d, j, c, x) in zip(ends, metrics)}
    limits = [params.node_capacity_mbps] * n
    return OverlayGraph.from_edges(n, edges, limits)


def generate_demands(params: SyntheticParams, graph: OverlayGraph) -> list[Demand]:
    """Random demands: uniform distinct endpoints, exponential rates.

    QoS bounds are drawn uniformly; the loss bound is stored as a minimum
    success probability (one minus the sampled maximum loss). A fixed rate
    overrides the exponential draw when configured.
    """
    if graph.n_nodes < 2:
        raise InputError("demand generation needs at least two nodes")
    # Bounded integers and exponentials are interleaved with the uniforms,
    # so the draws stay scalar; each uniform is :func:`_uniform` inlined.
    rng = np.random.default_rng([params.seed, 1])
    integers, exponential, random = rng.integers, rng.exponential, rng.random
    n, fixed, mean = graph.n_nodes, params.rate_fixed_mbps, params.rate_mean_mbps
    (jitter_lo, jitter_hi), (loss_lo, loss_hi) = params.jitter_bound_range_ms, params.loss_bound_range
    jitter_span, loss_span = jitter_hi - jitter_lo, loss_hi - loss_lo
    out: list[Demand] = []
    for did in range(params.n_demands):
        s = int(integers(n))
        t = int(integers(n - 1))
        if t >= s:
            t += 1
        rate = fixed if fixed is not None else max(exponential(mean), 1e-9)
        jitter = jitter_lo + jitter_span * random()
        loss = loss_lo + loss_span * random()
        out.append(Demand(did, s, t, rate, jitter, 1.0 - loss))
    return out


# -- telco-style trace synthesis -----------------------------------------------------


@dataclass(frozen=True)
class TelcoProfile:
    """Shape parameters for synthesizing telco-CDN-like traces.

    Marginals target the operator-trace summaries: delays essentially
    within 5-80 ms with a few slower links, 90% of jitter samples under
    330 ms, and link loss mostly under 0.3% with a small heavy-loss share
    around 3%. Occasional per-epoch loss spikes model transient
    perturbations.

    ``node_capacity_mbps`` deliberately departs from the published 150
    Mbps: with 50 Mbps demands charging every visited node, 150 Mbps caps
    acceptance near 20% in every mode, which would flatten the
    overlay-vs-direct comparison this profile exists to exercise.
    """

    n_nodes: int = 11
    n_links: int = 82
    n_demands: int = 82
    link_capacity_mbps: float = 50000.0
    node_capacity_mbps: float = 1500.0
    rate_mbps: float = 50.0
    max_jitter_ms: float = 2000.0
    min_success_prob: float = 0.99
    slow_delay_share: float = 0.03
    high_jitter_share: float = 0.10
    heavy_loss_share: float = 0.06
    spike_prob: float = 0.05
    period_s: float = 300.0


def generate_telco_trace(
    n_epochs: int, seed: int, profile: TelcoProfile = TelcoProfile()
) -> Trace:
    """Synthetic operator-like trace: fixed link set, per-epoch metric draws.

    Each link gets a persistent regime (base delay, jitter class, loss
    class) and every epoch resamples metrics within that regime, so
    time-aggregated statistics match the profile while individual epochs
    fluctuate. Deterministic per seed.
    """
    if n_epochs < 1:
        raise InputError("need at least one epoch")
    if seed < 0:
        raise InputError("seed must be nonnegative")
    n = profile.n_nodes
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    if profile.n_links > len(pairs):
        raise InputError(f"at most {len(pairs)} links fit on {n} nodes")
    rng = np.random.default_rng([seed, 2])
    chosen = [pairs[k] for k in rng.permutation(len(pairs))[: profile.n_links]]
    chosen.sort()

    # Per link: slow-delay test, base delay, jitter class, loss class.
    slow, base, jitter_class, loss_class = rng.random((len(chosen), 4)).T
    base_delay = np.where(
        slow < profile.slow_delay_share, _uniform(80.0, 200.0, base), _uniform(5.0, 80.0, base)
    )
    high_jitter = jitter_class < profile.high_jitter_share
    heavy_loss = loss_class < profile.heavy_loss_share

    # Each epoch, link after link: delay, jitter, then the loss, which a link
    # outside the heavy-loss class follows a spike test with. Epochs follow
    # one another in the stream, one row each.
    width = np.where(heavy_loss, 3, 4)
    first = np.cumsum(width) - width
    draws = rng.random((n_epochs, int(width.sum())))
    delay = np.clip(base_delay + _uniform(-3.0, 3.0, draws[:, first]), 5.0, 250.0)
    jitter_u = draws[:, first + 1]
    jitter = np.where(high_jitter, _uniform(330.0, 5000.0, jitter_u), _uniform(1.0, 120.0, jitter_u))
    loss_u, spike = draws[:, first + width - 1], draws[:, first + 2] < profile.spike_prob
    loss = np.where(
        heavy_loss,
        _uniform(0.02, 0.04, loss_u),
        np.where(spike, _uniform(0.01, 0.05, loss_u), _uniform(0.0001, 0.0025, loss_u)),
    )
    capacity, epochs = profile.link_capacity_mbps, []
    for k, row in enumerate(zip(delay.tolist(), jitter.tolist(), loss.tolist())):
        edges = {e: LinkMetrics(d, j, capacity, 1.0 - x) for e, d, j, x in zip(chosen, *row)}
        epochs.append(TraceEpoch(k * profile.period_s, MappingProxyType(edges)))
    return Trace(
        n_nodes=n,
        epochs=tuple(epochs),
        node_limits=(profile.node_capacity_mbps,) * n,
    )


def telco_demands(seed: int, profile: TelcoProfile = TelcoProfile()) -> list[Demand]:
    """Fixed-rate demand set matching the telco evaluation profile."""
    params = SyntheticParams(
        n_nodes=profile.n_nodes,
        n_edges=profile.n_links if profile.n_links % 2 == 0 else profile.n_links + 1,
        n_demands=profile.n_demands,
        rate_fixed_mbps=profile.rate_mbps,
        jitter_bound_range_ms=(profile.max_jitter_ms, profile.max_jitter_ms),
        loss_bound_range=(
            1.0 - profile.min_success_prob,
            1.0 - profile.min_success_prob,
        ),
        seed=seed,
    )
    shim = OverlayGraph.from_edges(profile.n_nodes, {}, (0.0,) * profile.n_nodes)
    return generate_demands(params, shim)
