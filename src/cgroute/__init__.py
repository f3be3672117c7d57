"""Minimum-delay, QoS-constrained overlay routing for CDN video transfers.

Library entry points: build or load an :class:`~cgroute.model.OverlayGraph`
and a demand set, then call :func:`~cgroute.solver.solve` for the column
generation heuristic or :func:`~cgroute.exact.solve_exact` for the integer
benchmark. The :mod:`~cgroute.harness` module replays traces and emits
evaluation reports; ``cgroute`` on the command line wraps it all.
"""

from .errors import (
    CgRouteError,
    ContractError,
    FormatError,
    InputError,
    SolverError,
)
from .exact import ExactLimits, ExactSolution, solve_exact
from .harness import (
    EpochReport,
    ThroughputEstimate,
    direct_mode_candidates,
    emit_reports,
    estimate_throughput,
    run_timeseries,
    solve_epoch,
)
from .model import (
    Demand,
    LinkMetrics,
    OverlayGraph,
    Path,
    augment_clique,
    dummy_penalty,
    make_dummy_path,
    make_path,
    qos_feasible,
)
from .pricing import CandidateTable, enumerate_candidates, price_demand
from .rmp import (
    Column,
    DualPoint,
    RestrictedMaster,
    RmpSolution,
    dual_objective,
)
from .scenario import (
    SyntheticParams,
    TelcoProfile,
    Trace,
    TraceEpoch,
    generate_demands,
    generate_telco_trace,
    generate_topology,
    load_demands,
    load_graph,
    load_node_limits,
    load_params,
    load_trace,
    save_demands,
    save_graph,
    save_node_limits,
    save_params,
    save_trace,
    telco_demands,
)
from .solver import (
    CgResult,
    RoutingSolution,
    SolverConfig,
    column_generation,
    randomized_round,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "CgRouteError",
    "ContractError",
    "FormatError",
    "InputError",
    "SolverError",
    "ExactLimits",
    "ExactSolution",
    "solve_exact",
    "EpochReport",
    "ThroughputEstimate",
    "direct_mode_candidates",
    "emit_reports",
    "estimate_throughput",
    "run_timeseries",
    "solve_epoch",
    "Demand",
    "LinkMetrics",
    "OverlayGraph",
    "Path",
    "augment_clique",
    "dummy_penalty",
    "make_dummy_path",
    "make_path",
    "qos_feasible",
    "CandidateTable",
    "enumerate_candidates",
    "price_demand",
    "Column",
    "DualPoint",
    "RestrictedMaster",
    "RmpSolution",
    "dual_objective",
    "SyntheticParams",
    "TelcoProfile",
    "Trace",
    "TraceEpoch",
    "generate_demands",
    "generate_telco_trace",
    "generate_topology",
    "load_demands",
    "load_graph",
    "load_node_limits",
    "load_params",
    "load_trace",
    "save_demands",
    "save_graph",
    "save_node_limits",
    "save_params",
    "save_trace",
    "telco_demands",
    "CgResult",
    "RoutingSolution",
    "SolverConfig",
    "column_generation",
    "randomized_round",
    "solve",
]
