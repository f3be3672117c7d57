"""Minimum-delay, QoS-constrained overlay routing for CDN video transfers.

Library entry points: build or load an :class:`~cgroute.model.OverlayGraph`
and a demand set, then call :func:`~cgroute.solver.solve` for the column
generation heuristic or :func:`~cgroute.exact.solve_exact` for the integer
benchmark. The :mod:`~cgroute.harness` module replays traces and emits
evaluation reports; ``cgroute`` on the command line wraps it all.

The package namespace holds only these entry points, their inputs and
results, and the errors. Internals (master LP, pricing, rounding, clique
augmentation) are imported from their modules.
"""

from .errors import (
    CgRouteError,
    ContractError,
    FormatError,
    InputError,
    SolverError,
)
from .exact import ExactLimits, ExactSolution, solve_exact
from .harness import EpochReport, emit_reports, run_timeseries, solve_epoch
from .model import Demand, LinkMetrics, OverlayGraph, Path
from .scenario import (
    SyntheticParams,
    TelcoProfile,
    Trace,
    generate_demands,
    generate_telco_trace,
    generate_topology,
    load_demands,
    load_graph,
    load_params,
    load_trace,
    save_demands,
    save_graph,
    save_node_limits,
    save_params,
    save_trace,
    telco_demands,
)
from .solver import RoutingSolution, SolverConfig, solve

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
    "emit_reports",
    "run_timeseries",
    "solve_epoch",
    "Demand",
    "LinkMetrics",
    "OverlayGraph",
    "Path",
    "SyntheticParams",
    "TelcoProfile",
    "Trace",
    "generate_demands",
    "generate_telco_trace",
    "generate_topology",
    "load_demands",
    "load_graph",
    "load_params",
    "load_trace",
    "save_demands",
    "save_graph",
    "save_node_limits",
    "save_params",
    "save_trace",
    "telco_demands",
    "RoutingSolution",
    "SolverConfig",
    "solve",
]
