"""Experiment runner: replay traces, compare routing modes, emit reports.

An epoch report captures one (epoch, mode) solve: acceptance, runtime,
mean delay over accepted demands, the full per-demand outcomes, and
optionally the gap against the exact benchmark and per-demand TCP
throughput estimates. A routing mode picks how the candidate table is
built: the overlay mode builds direct and one-relay routes, the direct
mode only the direct-edge rows of the same build. Reports serialize to a flat CSV and a
nested JSON that also carries plot-ready series (metric vs time, metric
vs demand count). The JSON is ``json.dumps(payload, indent=2)``'s text,
byte for byte, but only the envelope goes through ``json.dumps``: the
outcome rows, most of the text, are written from one fixed template per
row shape, since ``indent`` makes ``json`` use its pure-Python encoder.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path as FsPath
from typing import Optional, Sequence

from .errors import ContractError, InputError, SolverError
from .exact import ExactLimits, solve_exact
from .model import Demand, OverlayGraph, Path, check_endpoints
from .pricing import CandidateTable, enumerate_candidates
from .rmp import RestrictedMaster
from .solver import CandidateFn, RoutingSolution, SolverConfig, solve
from .scenario import Trace

CSV_HEADER = (
    "epoch_ts,mode,n_demands,n_accepted,acceptance_pct,runtime_ms,"
    "mean_delay_ms,objective,gap_pct"
)

MODES = ("overlay", "direct")

#: TCP throughput model: segment size, the model constant C, and RTT as a
#: multiple of the one-way path delay.
MSS_BYTES = 1460
THROUGHPUT_C = 1.0
RTT_FACTOR = 2.0


@dataclass(frozen=True)
class ThroughputEstimate:
    """TCP throughput estimate; flagged when the loss-free cap applies."""

    mbps: float
    loss_free: bool


@dataclass(frozen=True)
class EpochReport:
    """Aggregated outcome of solving one epoch in one mode.

    ``outcomes`` holds one row per demand, in ascending id, in one of the
    three shapes :func:`reports_to_json` lays out (rejected; accepted;
    accepted with throughput). ``master`` is the restricted master the
    heuristic solved, kept for ``cgroute solve --dump-lp``; it is not part
    of any serialized report, and :func:`run_timeseries` drops it.
    """

    epoch_ts: float
    mode: str
    n_demands: int
    n_accepted: int
    runtime_ms: float
    mean_delay_ms: Optional[float]
    objective: float
    gap_pct: Optional[float] = None
    outcomes: tuple[dict, ...] = ()
    error: Optional[str] = None
    master: Optional[RestrictedMaster] = field(default=None, repr=False, compare=False)

    @property
    def acceptance_pct(self) -> float:
        if self.n_demands == 0:
            return 100.0
        return 100.0 * self.n_accepted / self.n_demands


def direct_mode_candidates(graph: OverlayGraph, demands: Sequence[Demand]) -> CandidateTable:
    """Underlay-style candidates: each demand's direct edge and nothing else."""
    return CandidateTable.build(graph, demands, relays=False)


def mode_candidates(mode: str) -> CandidateFn:
    """The candidate function of a routing mode."""
    if mode not in MODES:
        raise InputError(f"unknown mode {mode!r}")
    return enumerate_candidates if mode == "overlay" else direct_mode_candidates


def estimate_throughput(path: Path, loss_free_cap_mbps: float = 10000.0) -> ThroughputEstimate:
    """TCP throughput of a path: MSS * C / (RTT * sqrt(loss)).

    RTT is taken as ``RTT_FACTOR`` times the one-way path delay. The model
    diverges as loss approaches zero, so loss-free paths return the
    configured cap instead, flagged. It diverges at zero RTT too, so
    zero-delay paths also return the cap, flagged as lossy.
    """
    p = 1.0 - path.success_prob
    if p <= 0.0:
        return ThroughputEstimate(loss_free_cap_mbps, loss_free=True)
    rtt_s = RTT_FACTOR * path.total_delay_ms / 1000.0
    if rtt_s <= 0.0:
        return ThroughputEstimate(loss_free_cap_mbps, loss_free=False)
    bps = MSS_BYTES * 8.0 * THROUGHPUT_C / (rtt_s * math.sqrt(p))
    return ThroughputEstimate(bps / 1e6, loss_free=False)


def _outcome_rows(
    demands: Sequence[Demand],
    routed: RoutingSolution,
    with_throughput: bool,
) -> tuple[dict, ...]:
    rows = []
    for d in sorted(demands, key=lambda x: x.id):
        path = routed.outcomes[d.id]
        row: dict = {"demand": d.id, "accepted": path is not None}
        if path is not None:
            row["path"] = list(path.nodes)
            row["delay_ms"] = path.total_delay_ms
            if with_throughput:
                est = estimate_throughput(path)
                row["throughput_mbps"] = est.mbps
                row["throughput_loss_free"] = est.loss_free
        rows.append(row)
    return tuple(rows)


def _mean_delay(routed: RoutingSolution) -> Optional[float]:
    delays = [p.total_delay_ms for p in routed.outcomes.values() if p is not None]
    if not delays:
        return None
    return sum(delays) / len(delays)


def solve_epoch(
    graph: OverlayGraph,
    demands: Sequence[Demand],
    mode: str,
    config: SolverConfig,
    epoch_ts: float = 0.0,
    oracle: bool = False,
    oracle_limits: ExactLimits = ExactLimits(),
    with_throughput: bool = False,
) -> EpochReport:
    """Solve one snapshot in one mode and package the report.

    The candidate table is built once; the heuristic and the oracle share
    it. The runtime covers the build and the heuristic, not the oracle.
    """
    enumerate_fn = mode_candidates(mode)
    started = time.perf_counter()
    table = enumerate_fn(graph, demands)

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
    return EpochReport(
        epoch_ts=epoch_ts,
        mode=mode,
        n_demands=len(demands),
        n_accepted=routed.n_accepted,
        runtime_ms=runtime_ms,
        mean_delay_ms=_mean_delay(routed),
        objective=routed.objective,
        gap_pct=gap,
        outcomes=_outcome_rows(demands, routed, with_throughput),
        master=routed.master,
    )


def run_timeseries(
    trace: Trace,
    demands: Sequence[Demand],
    modes: Sequence[str] = MODES,
    config: SolverConfig = SolverConfig(),
    oracle: bool = False,
    oracle_limits: ExactLimits = ExactLimits(),
    with_throughput: bool = False,
) -> list[EpochReport]:
    """Re-allocate every demand from scratch on each epoch snapshot.

    Bad input (an unknown mode, a demand endpoint outside the trace's
    nodes) raises :class:`InputError` before any epoch is solved. Solver
    failures are recorded in the affected report and the replay continues
    with the remaining epochs.
    """
    for mode in modes:
        mode_candidates(mode)
    # Every epoch has the trace's node set, so one check covers them all.
    check_endpoints(trace.n_nodes, demands)
    reports: list[EpochReport] = []
    for epoch in trace.epochs:
        graph = trace.graph_for(epoch)
        for mode in modes:
            try:
                report = solve_epoch(
                    graph,
                    demands,
                    mode,
                    config,
                    epoch_ts=epoch.timestamp,
                    oracle=oracle,
                    oracle_limits=oracle_limits,
                    with_throughput=with_throughput,
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


def _fmt(value, include_timing: bool, is_timing: bool = False) -> str:
    if value is None:
        return ""
    if is_timing and not include_timing:
        return "0.0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def reports_to_csv(reports: Sequence[EpochReport], include_timing: bool = True) -> str:
    lines = [CSV_HEADER]
    for r in reports:
        lines.append(
            ",".join(
                (
                    _fmt(r.epoch_ts, include_timing),
                    r.mode,
                    str(r.n_demands),
                    str(r.n_accepted),
                    _fmt(r.acceptance_pct, include_timing),
                    _fmt(r.runtime_ms, include_timing, is_timing=True),
                    _fmt(r.mean_delay_ms, include_timing),
                    _fmt(r.objective, include_timing),
                    _fmt(r.gap_pct, include_timing),
                )
            )
        )
    return "\n".join(lines) + "\n"


def _series(reports: Sequence[EpochReport], include_timing: bool) -> dict:
    """Plot-ready series keyed the way the evaluation figures are drawn."""
    modes = sorted({r.mode for r in reports})
    by_mode = {m: [r for r in reports if r.mode == m] for m in modes}
    out: dict = {
        "acceptance_pct_vs_time": {
            m: [[r.epoch_ts, r.acceptance_pct] for r in rs] for m, rs in by_mode.items()
        },
        "runtime_ms_vs_time": {
            m: [[r.epoch_ts, r.runtime_ms if include_timing else 0.0] for r in rs]
            for m, rs in by_mode.items()
        },
        "mean_delay_ms_vs_time": {
            m: [[r.epoch_ts, r.mean_delay_ms] for r in rs] for m, rs in by_mode.items()
        },
        "acceptance_pct_vs_demands": {
            m: [[r.n_demands, r.acceptance_pct] for r in rs] for m, rs in by_mode.items()
        },
        "runtime_ms_vs_demands": {
            m: [[r.n_demands, r.runtime_ms if include_timing else 0.0] for r in rs]
            for m, rs in by_mode.items()
        },
    }
    return out


def _payload(reports: Sequence[EpochReport], include_timing: bool) -> dict:
    """The JSON report as a dict, outcome rows included."""
    return {
        "note": "mean_delay_ms averages accepted demands only; acceptance counts "
        "differ across modes, so delay comparisons between modes are not "
        "like-for-like",
        "reports": [
            {
                "epoch_ts": r.epoch_ts,
                "mode": r.mode,
                "n_demands": r.n_demands,
                "n_accepted": r.n_accepted,
                "acceptance_pct": r.acceptance_pct,
                "runtime_ms": r.runtime_ms if include_timing else 0.0,
                "mean_delay_ms": r.mean_delay_ms,
                # A failed epoch's objective is inf, which JSON cannot hold.
                "objective": r.objective if math.isfinite(r.objective) else None,
                "gap_pct": r.gap_pct,
                "error": r.error,
                "outcomes": list(r.outcomes),
            }
            for r in reports
        ],
        "series": _series(reports, include_timing),
    }


# The outcome rows ``_outcome_rows`` makes, one template per shape, as
# ``json.dumps(..., indent=2)`` lays them out at their depth in the report:
# the row at 8 spaces, its keys at 10, path nodes at 12.
_REJECTED_ROW = '        {\n          "demand": %d,\n          "accepted": %s\n        }'
_ACCEPTED_ROW = (
    '        {\n          "demand": %d,\n          "accepted": %s,\n'
    '          "path": [\n            %s\n          ],\n          "delay_ms": %s'
)
_ROW_TEMPLATES = {
    ("demand", "accepted"): _REJECTED_ROW,
    ("demand", "accepted", "path", "delay_ms"): _ACCEPTED_ROW + "\n        }",
    ("demand", "accepted", "path", "delay_ms", "throughput_mbps", "throughput_loss_free"): (
        _ACCEPTED_ROW
        + ',\n          "throughput_mbps": %s,\n          "throughput_loss_free": %s\n        }'
    ),
}
_PATH_SEP = ",\n            "


def _json_float(x: float) -> str:
    """``x`` as ``json.dumps(..., allow_nan=False)`` writes it."""
    if not math.isfinite(x):
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    return float.__repr__(x)


def _json_bool(b: bool) -> str:
    return "true" if b else "false"


def _outcomes_json(rows: Sequence[dict]) -> str:
    """A report's ``outcomes`` list, byte for byte as ``json.dumps`` lays it out."""
    if not rows:
        return "[]"
    out = []
    for row in rows:
        keys = tuple(row)
        template = _ROW_TEMPLATES.get(keys)
        if template is None:
            raise ContractError(f"outcome row with keys {keys} has no report layout")
        values: tuple = (row["demand"], _json_bool(row["accepted"]))
        if len(keys) > 2:
            path = _PATH_SEP.join(map(str, row["path"]))
            values += (path, _json_float(row["delay_ms"]))
            if len(keys) > 4:
                values += (
                    _json_float(row["throughput_mbps"]),
                    _json_bool(row["throughput_loss_free"]),
                )
        out.append(template % values)
    return "[\n" + ",\n".join(out) + "\n      ]"


def reports_to_json(reports: Sequence[EpochReport], include_timing: bool = True) -> str:
    """The reports as ``json.dumps(payload, indent=2, allow_nan=False)``.

    ``json.dumps`` encodes the payload with every ``outcomes`` list empty;
    each report's rows are then written from :data:`_ROW_TEMPLATES` into
    its ``"outcomes": []``. ``json.dumps`` escapes every ``"`` inside a
    string, so that text can only be the key.
    """
    payload = _payload(reports, include_timing)
    blocks = []
    for entry in payload["reports"]:
        blocks.append(_outcomes_json(entry["outcomes"]))
        entry["outcomes"] = []
    pieces = json.dumps(payload, indent=2, allow_nan=False).split('"outcomes": []')
    assert len(pieces) == len(blocks) + 1, "outcomes key found outside the reports"
    spliced = "".join(f'{piece}"outcomes": {block}' for piece, block in zip(pieces, blocks))
    return spliced + pieces[-1] + "\n"


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
