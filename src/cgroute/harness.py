"""Experiment runner: replay traces, compare routing modes, emit reports.

An epoch report captures one (epoch, mode) solve: acceptance, runtime,
mean delay over accepted demands, the full per-demand outcomes, and
optionally the gap against the exact benchmark and per-demand TCP
throughput estimates. Reports serialize to a flat CSV and a nested JSON
that also carries plot-ready series (metric vs time, metric vs demand
count).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path as FsPath
from typing import Optional, Sequence

from .errors import CgRouteError, InputError
from .exact import ExactLimits, solve_exact
from .model import Demand, OverlayGraph, Path, make_path, qos_feasible
from .pricing import enumerate_candidates
from .solver import CandidateFn, RoutingSolution, SolverConfig, solve
from .scenario import Trace

CSV_HEADER = (
    "epoch_ts,mode,n_demands,n_accepted,acceptance_pct,runtime_ms,"
    "mean_delay_ms,objective,gap_pct"
)

MODES = ("overlay", "direct")


@dataclass(frozen=True)
class ThroughputEstimate:
    """TCP throughput estimate; flagged when the loss-free cap applies."""

    mbps: float
    loss_free: bool


@dataclass(frozen=True)
class EpochReport:
    """Aggregated outcome of solving one epoch in one mode."""

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

    @property
    def acceptance_pct(self) -> float:
        if self.n_demands == 0:
            return 100.0
        return 100.0 * self.n_accepted / self.n_demands


def direct_mode_candidates(graph: OverlayGraph, demand: Demand) -> list[Path]:
    """Underlay-style candidates: the direct edge and nothing else."""
    if (demand.source, demand.destination) not in graph.edges:
        return []
    p = make_path(graph, demand)
    return [p] if qos_feasible(p, demand) else []


def mode_candidates(mode: str) -> CandidateFn:
    """The candidate function of a routing mode."""
    if mode not in MODES:
        raise InputError(f"unknown mode {mode!r}")
    return enumerate_candidates if mode == "overlay" else direct_mode_candidates


def estimate_throughput(
    path: Path,
    mss_bytes: int = 1460,
    c: float = 1.0,
    rtt_factor: float = 2.0,
    loss_free_cap_mbps: float = 10000.0,
) -> ThroughputEstimate:
    """TCP throughput of a path: MSS * C / (RTT * sqrt(loss)).

    RTT is taken as ``rtt_factor`` times the one-way path delay. The model
    diverges as loss approaches zero, so loss-free paths return the
    configured cap instead, flagged. It diverges at zero RTT too, so
    zero-delay paths also return the cap, flagged as lossy.
    """
    p = 1.0 - path.success_prob
    if p <= 0.0:
        return ThroughputEstimate(loss_free_cap_mbps, loss_free=True)
    rtt_s = rtt_factor * path.total_delay_ms / 1000.0
    if rtt_s <= 0.0:
        return ThroughputEstimate(loss_free_cap_mbps, loss_free=False)
    bps = mss_bytes * 8.0 * c / (rtt_s * math.sqrt(p))
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
    """Solve one snapshot in one mode and package the report."""
    candidate_fn = mode_candidates(mode)
    started = time.perf_counter()
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

    Solver failures are recorded in the affected report and the replay
    continues with the remaining epochs.
    """
    for mode in modes:
        if mode not in MODES:
            raise InputError(f"unknown mode {mode!r}")
    reports: list[EpochReport] = []
    for epoch in trace.epochs:
        graph = trace.graph_for(epoch)
        for mode in modes:
            try:
                reports.append(
                    solve_epoch(
                        graph,
                        demands,
                        mode,
                        config,
                        epoch_ts=epoch.timestamp,
                        oracle=oracle,
                        oracle_limits=oracle_limits,
                        with_throughput=with_throughput,
                    )
                )
            except CgRouteError as exc:
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


def reports_to_json(reports: Sequence[EpochReport], include_timing: bool = True) -> str:
    payload = {
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
                "objective": r.objective,
                "gap_pct": r.gap_pct,
                "error": r.error,
                "outcomes": list(r.outcomes),
            }
            for r in reports
        ],
        "series": _series(reports, include_timing),
    }
    return json.dumps(payload, indent=2) + "\n"


def emit_reports(
    reports: Sequence[EpochReport],
    fmt: str,
    destination: FsPath,
    include_timing: bool = True,
):
    """Write reports to ``destination`` as CSV or JSON (or both)."""
    if not reports:
        raise InputError("no reports to emit")
    dest = FsPath(destination)
    try:
        if fmt == "csv":
            dest.write_text(reports_to_csv(reports, include_timing))
        elif fmt == "json":
            dest.write_text(reports_to_json(reports, include_timing))
        else:
            raise InputError(f"unknown report format {fmt!r}")
    except OSError as exc:
        raise InputError(f"cannot write {dest}: {exc}") from None
