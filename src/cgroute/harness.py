"""Experiment runner: replay traces, compare routing modes, emit reports.

An epoch report captures one (epoch, mode) solve: acceptance, runtime,
mean delay over accepted demands, the full per-demand outcomes, and
optionally the gap against the exact benchmark and per-demand TCP
throughput estimates. A routing mode picks which of a demand set's
routes enter the candidate table: the overlay mode keeps the direct and
one-relay routes, the direct mode only the direct ones, of the same
:class:`~cgroute.pricing.RouteGeometry`, which a replay finds once per
trace. The outcomes are always an :class:`Outcomes`: a few arrays
copied from the routing, which make a row dict only for a caller that
reads one. Reports serialize to a flat CSV and a nested JSON that also
carries plot-ready series (metric vs time, metric vs demand count). The
JSON is ``json.dumps(payload, indent=2)``'s text, byte for byte, but
written in one pass from fixed layouts, the rows straight from the
arrays: ``indent`` would make ``json`` use its pure-Python encoder, and
no payload dict is built. ``json.dumps`` only escapes strings.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path as FsPath
from typing import Optional, Sequence

import numpy as np

from .errors import ContractError, InputError, SolverError
from .exact import ExactLimits, solve_exact
from .model import Demand, OverlayGraph, check_endpoints
# perfbench/spans.py wraps ``harness.enumerate_candidates``, which nothing here calls.
from .pricing import CandidateTable, RouteGeometry, enumerate_candidates, route_metrics
from .rmp import RestrictedMaster, ordered_sum
from .solver import RoutingSolution, SolverConfig, solve
from .scenario import Trace

CSV_HEADER = (
    "epoch_ts,mode,n_demands,n_accepted,acceptance_pct,runtime_ms,"
    "mean_delay_ms,objective,gap_pct"
)

MODES = ("overlay", "direct")

#: TCP throughput model: segment size, the model constant C, RTT as a
#: multiple of the one-way path delay, and the throughput reported where
#: the model diverges (no loss, or no delay).
MSS_BYTES = 1460
THROUGHPUT_C = 1.0
RTT_FACTOR = 2.0
LOSS_FREE_CAP_MBPS = 10000.0


@dataclass(frozen=True)
class EpochReport:
    """Aggregated outcome of solving one epoch in one mode.

    ``outcomes`` is an :class:`Outcomes`, one row per demand in ascending
    id, which holds arrays and makes a row dict on each read, keeping
    none; or it is empty, as in a failed epoch's report.
    :func:`reports_to_json` writes no other sequence. ``master`` is the
    restricted master the heuristic solved, kept for ``cgroute solve
    --dump-lp``; it is not part of any serialized report, and
    :func:`run_timeseries` drops it.
    """

    epoch_ts: float
    mode: str
    n_demands: int
    n_accepted: int
    runtime_ms: float
    mean_delay_ms: Optional[float]
    objective: float
    gap_pct: Optional[float] = None
    outcomes: Outcomes | tuple[()] = ()
    error: Optional[str] = None
    master: Optional[RestrictedMaster] = field(default=None, repr=False, compare=False)

    @property
    def acceptance_pct(self) -> float:
        if self.n_demands == 0:
            return 100.0
        return 100.0 * self.n_accepted / self.n_demands


def direct_mode_candidates(graph: OverlayGraph, demands: Sequence[Demand]) -> CandidateTable:
    """Underlay-style candidates: each demand's direct edge and nothing else."""
    return RouteGeometry.find(graph, demands).table(graph, relays=False)


def mode_relays(mode: str) -> bool:
    """Whether a routing mode's table keeps the relay routes: the overlay
    mode's does, the direct mode's does not. Any other mode raises
    :class:`~cgroute.errors.InputError`.
    """
    if mode not in MODES:
        raise InputError(f"unknown mode {mode!r}")
    return mode == "overlay"


def _throughput(success: np.ndarray, delay: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """TCP throughput of routes, MSS * C / (RTT * sqrt(loss)): the Mbps and
    loss-free flag of each, given its success probability and one-way delay.

    RTT is taken as ``RTT_FACTOR`` times the one-way delay. The model
    diverges as loss approaches zero, so loss-free routes get
    ``LOSS_FREE_CAP_MBPS`` instead, flagged. It diverges at zero RTT too,
    so zero-delay routes also get the cap, flagged as lossy.
    """
    p = 1.0 - success
    rtt_s = RTT_FACTOR * delay / 1000.0
    with np.errstate(divide="ignore", invalid="ignore"):
        mbps = MSS_BYTES * 8.0 * THROUGHPUT_C / (rtt_s * np.sqrt(p)) / 1e6
    loss_free = p <= 0.0
    mbps[loss_free | (rtt_s <= 0.0)] = LOSS_FREE_CAP_MBPS
    return mbps, loss_free


class Outcomes(Sequence[dict]):
    """An epoch's outcome rows, one per demand in ascending id, held as
    arrays. Read-only.

    Row ``i`` is a dict made afresh on each read and kept nowhere. It holds
    ``demand`` and ``accepted``; for an accepted demand also ``path``, its
    node list, and ``delay_ms``; and, where throughput was asked for,
    ``throughput_mbps`` and ``throughput_loss_free``: the three shapes
    :func:`reports_to_json` lays out, which it reads from the arrays
    without making a row. ``ids`` and ``accepted`` hold one entry per
    demand; ``ends`` (source, relay and destination, the relay
    ``n_nodes`` on a direct route) and ``delay``, and ``mbps`` and
    ``loss_free`` unless they are ``None``, one per accepted demand, in
    the same order.
    """

    def __init__(
        self,
        ids: np.ndarray,
        accepted: np.ndarray,
        ends: np.ndarray,
        delay: np.ndarray,
        n_nodes: int,
        mbps: Optional[np.ndarray] = None,
        loss_free: Optional[np.ndarray] = None,
    ):
        self.ids, self.accepted, self.ends, self.delay = ids, accepted, ends, delay
        self.n_nodes, self.mbps, self.loss_free = n_nodes, mbps, loss_free
        # Each demand's position among the accepted ones.
        self._slot = np.cumsum(accepted) - 1
        for a in (ids, accepted, ends, delay, mbps, loss_free, self._slot):
            if a is not None:
                a.flags.writeable = False

    def _row(self, i: int) -> dict:
        """Row ``i``, made from the arrays: the one place a row dict is made."""
        row = {"demand": int(self.ids[i]), "accepted": bool(self.accepted[i])}
        if row["accepted"]:
            j = self._slot[i]
            s, k, t = self.ends[j].tolist()
            row["path"] = [s, k, t] if k < self.n_nodes else [s, t]
            row["delay_ms"] = float(self.delay[j])
            if self.mbps is not None:
                row["throughput_mbps"] = float(self.mbps[j])
                row["throughput_loss_free"] = bool(self.loss_free[j])
        return row

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._row(j) for j in range(len(self))[i]]
        return self._row(range(len(self))[i])

    def __iter__(self):
        return map(self._row, range(len(self)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return f"Outcomes({list(self)!r})"


def _outcomes(routed: RoutingSolution, with_throughput: bool) -> Outcomes:
    """The routing's rows, read from its arrays and its table; no path is made."""
    routing = routed.outcomes
    table, picked = routing.table, routing.picked
    delay = table.delay[picked]
    mbps = loss_free = None
    if with_throughput:
        _, _, success = route_metrics(table.graph.arrays, table.rows[picked])
        mbps, loss_free = _throughput(success, delay)
    return Outcomes(
        np.fromiter(routing, dtype=np.int64, count=len(routing)),
        routing.accepted,
        table.rows[picked, 2:] - table.n_edges,
        delay,
        table.n_nodes,
        mbps,
        loss_free,
    )


def _mean_delay(outcomes: Outcomes) -> Optional[float]:
    delays = outcomes.delay.tolist()
    return ordered_sum(delays) / len(delays) if delays else None


def solve_epoch(
    graph: OverlayGraph,
    demands: Sequence[Demand],
    mode: str,
    config: SolverConfig,
    epoch_ts: float = 0.0,
    oracle: bool = False,
    oracle_limits: ExactLimits = ExactLimits(),
    with_throughput: bool = False,
    geometry: Optional[RouteGeometry] = None,
) -> EpochReport:
    """Solve one snapshot in one mode and package the report.

    The heuristic and the oracle share one candidate table, read from
    ``geometry``: ``RouteGeometry.find`` of ``demands`` on a graph with
    ``graph``'s edges, such as another epoch of the same trace, or found
    here when not given. The runtime covers the table and the heuristic,
    not the oracle.
    """
    relays = mode_relays(mode)
    started = time.perf_counter()
    if geometry is None:
        geometry = RouteGeometry.find(graph, demands)
    table = geometry.table(graph, relays)

    def candidate_fn(g: OverlayGraph, ds: Sequence[Demand]) -> CandidateTable:
        return table

    routed = solve(graph, demands, config, candidate_fn)
    runtime_ms = (time.perf_counter() - started) * 1000.0
    gap = None
    if oracle:
        benchmark = solve_exact(graph, demands, oracle_limits, candidate_fn)
        # After a budget cut there is no proven optimum to measure against.
        if benchmark.optimal:
            best = benchmark.objective
            gap = 100.0 * (routed.objective - best) / best if best > 0.0 else 0.0
    outcomes = _outcomes(routed, with_throughput)
    return EpochReport(
        epoch_ts=epoch_ts,
        mode=mode,
        n_demands=len(demands),
        n_accepted=routed.n_accepted,
        runtime_ms=runtime_ms,
        mean_delay_ms=_mean_delay(outcomes),
        objective=routed.objective,
        gap_pct=gap,
        outcomes=outcomes,
        master=routed.master,
    )


def run_timeseries(
    trace: Trace,
    demands: Sequence[Demand],
    modes: Sequence[str] = MODES,
    config: SolverConfig = SolverConfig(),
    oracle: bool = False,
) -> list[EpochReport]:
    """Solve every demand afresh on each epoch snapshot, in each mode.

    The epochs share one edge set (:class:`~cgroute.scenario.Trace`
    checks this), so the demands' routes are found once, on the first
    epoch (:meth:`~cgroute.pricing.RouteGeometry.find`), and each (epoch,
    mode) solve only reads its epoch's metrics for them. Each report
    equals :func:`solve_epoch`'s on that epoch's graph, runtime aside.

    Bad input (an unknown mode, a demand endpoint outside the trace's
    nodes) raises :class:`InputError` before any epoch is solved. Solver
    failures are recorded in the affected report and the replay continues
    with the remaining epochs.
    """
    for mode in modes:
        mode_relays(mode)
    # Every epoch has the trace's node set, so one check covers them all.
    check_endpoints(trace.n_nodes, demands)
    reports: list[EpochReport] = []
    geometry = None
    for epoch in trace.epochs:
        graph = trace.graph_for(epoch)
        if geometry is None:
            geometry = RouteGeometry.find(graph, demands)
        for mode in modes:
            try:
                report = solve_epoch(
                    graph,
                    demands,
                    mode,
                    config,
                    epoch_ts=epoch.timestamp,
                    oracle=oracle,
                    geometry=geometry,
                )
                # A replay keeps every report; a master would keep its
                # epoch's graph and candidate table alive with it.
                reports.append(replace(report, master=None))
            except SolverError as exc:
                reports.append(
                    EpochReport(
                        epoch_ts=epoch.timestamp,
                        mode=mode,
                        n_demands=len(demands),
                        n_accepted=0,
                        runtime_ms=0.0,
                        mean_delay_ms=None,
                        objective=math.inf,
                        error=str(exc),
                    )
                )
    return reports


# -- serialization ------------------------------------------------------------


def _fields(r: EpochReport, include_timing: bool) -> tuple:
    """The report's scalar fields, as :data:`CSV_HEADER` names them; runtime 0.0 without timing."""
    return (
        r.epoch_ts, r.mode, r.n_demands, r.n_accepted, r.acceptance_pct,
        r.runtime_ms if include_timing else 0.0, r.mean_delay_ms, r.objective, r.gap_pct,
    )


def reports_to_csv(reports: Sequence[EpochReport], include_timing: bool = True) -> str:
    lines = [CSV_HEADER]
    for r in reports:
        lines.append(",".join(["" if v is None else str(v) for v in _fields(r, include_timing)]))
    return "\n".join(lines) + "\n"


#: The JSON report's note, as it is written.
_NOTE = json.dumps(
    "mean_delay_ms averages accepted demands only; acceptance counts "
    "differ across modes, so delay comparisons between modes are not "
    "like-for-like"
)

# The JSON report, laid out as ``json.dumps(payload, indent=2)`` lays it
# out: one layout per report, per outcome row shape and per series point,
# indented to its depth (a report at 4 spaces, its keys at 6, its rows at
# 8, their keys at 10 and path nodes at 12; a series at 4, a mode at 6, a
# point at 8 and its coordinates at 10).
_REPORT = "    {\n%s      \"outcomes\": %%s\n    }" % "".join(
    f'      "{name}": %s,\n' for name in (*CSV_HEADER.split(","), "error")
)
#: The three outcome row shapes: rejected, accepted, accepted with throughput.
_REJECTED = '        {\n          "demand": %s,\n          "accepted": %s\n        }'
_ACCEPTED_ROW = (
    '        {\n          "demand": %s,\n          "accepted": %s,\n'
    '          "path": [\n            %s\n          ],\n          "delay_ms": %s'
)
_ACCEPTED = _ACCEPTED_ROW + "\n        }"
_WITH_THROUGHPUT = (
    _ACCEPTED_ROW
    + ',\n          "throughput_mbps": %s,\n          "throughput_loss_free": %s\n        }'
)
_PATH_SEP = ",\n            "
_POINT = "        [\n          %s,\n          %s\n        ]"
#: Each plot-ready series: its name, and its x and y as positions in a
#: report's :func:`_fields`.
_SERIES = (
    ("acceptance_pct_vs_time", 0, 4),
    ("runtime_ms_vs_time", 0, 5),
    ("mean_delay_ms_vs_time", 0, 6),
    ("acceptance_pct_vs_demands", 2, 4),
    ("runtime_ms_vs_demands", 2, 5),
)


def _json_value(value) -> str:
    """A scalar as ``json.dumps(value, allow_nan=False)`` writes it; only
    strings go through ``json.dumps``, which escapes them.
    """
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return float.__repr__(value)
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_floats(values: np.ndarray) -> list[str]:
    """Finite floats as ``json.dumps`` writes them."""
    if not np.isfinite(values).all():
        raise ValueError("Out of range float values are not JSON compliant")
    return [float.__repr__(x) for x in values.tolist()]


def _outcomes_json(o: Outcomes | tuple[()]) -> str:
    """A report's ``outcomes`` list, each row in its shape's layout, read
    from the arrays; any other nonempty sequence raises
    :class:`~cgroute.errors.ContractError`.
    """
    if not len(o):
        return "[]"
    if not isinstance(o, Outcomes):
        raise ContractError(f"report outcomes are a {type(o).__name__}, not Outcomes")
    src, relay, dst = o.ends.T.tolist()
    paths = [
        f"{s}{_PATH_SEP}{k}{_PATH_SEP}{t}" if k < o.n_nodes else f"{s}{_PATH_SEP}{t}"
        for s, k, t in zip(src, relay, dst)
    ]
    routed = zip(o.ids[o.accepted].tolist(), paths, _json_floats(o.delay))
    if o.mbps is None:
        accepted = iter([_ACCEPTED % (did, "true", p, y) for did, p, y in routed])
    else:
        flags = map(_json_value, o.loss_free.tolist())
        accepted = iter(
            [
                _WITH_THROUGHPUT % (did, "true", p, y, m, f)
                for (did, p, y), m, f in zip(routed, _json_floats(o.mbps), flags)
            ]
        )
    rows = [
        next(accepted) if a else _REJECTED % (did, "false")
        for did, a in zip(o.ids.tolist(), o.accepted.tolist())
    ]
    return "[\n" + ",\n".join(rows) + "\n      ]"


def _report_json(r: EpochReport, include_timing: bool) -> str:
    *head, objective, gap = _fields(r, include_timing)
    # A failed epoch's objective is inf, which JSON cannot hold.
    values = (*head, objective if math.isfinite(objective) else None, gap, r.error)
    return _REPORT % (*map(_json_value, values), _outcomes_json(r.outcomes))


def _series_json(reports: Sequence[EpochReport], include_timing: bool) -> str:
    """Plot-ready series keyed the way the evaluation figures are drawn:
    per series and mode, a point per report of that mode.
    """
    modes = sorted({r.mode for r in reports})
    cells = {m: [] for m in modes}
    for r in reports:
        cells[r.mode].append(_fields(r, include_timing))
    blocks = []
    for name, x, y in _SERIES:
        lines = [
            f"      {_json_value(m)}: [\n"
            + ",\n".join(_POINT % (_json_value(c[x]), _json_value(c[y])) for c in cs)
            + "\n      ]"
            for m, cs in cells.items()
        ]
        body = "{\n" + ",\n".join(lines) + "\n    }" if lines else "{}"
        blocks.append(f'    "{name}": {body}')
    return "{\n" + ",\n".join(blocks) + "\n  }"


def reports_to_json(reports: Sequence[EpochReport], include_timing: bool = True) -> str:
    """The reports as ``json.dumps(payload, indent=2, allow_nan=False)``
    would write them, in one pass from fixed layouts.

    The payload holds the note, each report's fields and rows, and the
    plot-ready series. ``json.dumps`` only escapes strings; every other
    value is written as it would write it, and a non-finite float raises
    ``ValueError`` as it would. A report's rows are written from its
    :class:`Outcomes` arrays; any other nonempty sequence of rows raises
    :class:`~cgroute.errors.ContractError`.
    """
    body = ",\n".join(_report_json(r, include_timing) for r in reports)
    listed = "[\n" + body + "\n  ]" if reports else "[]"
    series = _series_json(reports, include_timing)
    return f'{{\n  "note": {_NOTE},\n  "reports": {listed},\n  "series": {series}\n}}\n'


def format_reports(
    reports: Sequence[EpochReport], fmt: str, include_timing: bool = True
) -> str:
    """The reports as CSV (``fmt="csv"``) or JSON (``"json"``).

    Any other ``fmt`` raises :class:`~cgroute.errors.InputError`.
    """
    if fmt == "csv":
        return reports_to_csv(reports, include_timing)
    if fmt == "json":
        return reports_to_json(reports, include_timing)
    raise InputError(f"unknown report format {fmt!r}")


def emit_reports(
    reports: Sequence[EpochReport],
    fmt: str,
    destination: FsPath,
    include_timing: bool = True,
):
    """Write reports to ``destination`` in :func:`format_reports`' format.

    No reports, any other ``fmt`` or a failed write raises
    :class:`~cgroute.errors.InputError`.
    """
    if not reports:
        raise InputError("no reports to emit")
    text = format_reports(reports, fmt, include_timing)
    dest = FsPath(destination)
    try:
        dest.write_text(text)
    except OSError as exc:
        raise InputError(f"cannot write {dest}: {exc}") from None
