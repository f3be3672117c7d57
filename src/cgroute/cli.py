"""Command-line interface.

Exit codes: 0 on success, 2 on input/format errors, 3 on internal solver
failures.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path as FsPath

import click
from click.core import ParameterSource

from .errors import InputError, SolverError
from .exact import ExactLimits
from .harness import MODES, emit_reports, format_reports, run_timeseries, solve_epoch
from .model import dummy_penalty
from .pricing import RouteGeometry
from .scenario import (
    SyntheticParams,
    TelcoProfile,
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
from .solver import SolverConfig

_mode_option = click.option(
    "--mode",
    type=click.Choice(["overlay", "direct", "both"]),
    default="overlay",
    show_default=True,
    help="Candidate policy: full overlay routing, direct edges only, or both.",
)
_seed_option = click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
_format_option = click.option(
    "--format",
    "fmt",
    type=click.Choice(["csv", "json"]),
    default="csv",
    show_default=True,
)
_out_option = click.option(
    "--out", type=click.Path(dir_okay=False, path_type=FsPath), default=None,
    help="Report destination (stdout when omitted).",
)
_timing_option = click.option(
    "--timing/--no-timing",
    default=True,
    show_default=True,
    help="Include wall-clock fields in reports (disable for byte-stable output).",
)


def _expand_modes(mode: str) -> list[str]:
    return list(MODES) if mode == "both" else [mode]


def _solve_modes(graph, demands, mode: str, config: SolverConfig, **kwargs) -> list:
    """A :func:`solve_epoch` report per mode, all read from one route search."""
    geometry = RouteGeometry.find(graph, demands)
    return [
        solve_epoch(graph, demands, m, config, geometry=geometry, **kwargs)
        for m in _expand_modes(mode)
    ]


def _given(name: str) -> bool:
    """Whether the command line gives the option named ``name``."""
    return click.get_current_context().get_parameter_source(name) is not ParameterSource.DEFAULT


def _refuse(why: str, *names: str):
    """Refuse the first option of ``names`` that the command line gives, with
    ``why`` (such as "applies with --oracle only") after its flag.
    """
    for param in click.get_current_context().command.params:
        if param.name in names and _given(param.name):
            raise InputError(f"{param.opts[0]} {why}")


def _params(params_path, seed: int) -> SyntheticParams:
    """The params file's settings, else the defaults, with ``--seed`` in
    place of their seed when it is given on the command line.
    """
    params = load_params(params_path) if params_path else SyntheticParams()
    return replace(params, seed=seed) if _given("seed") else params


def _check_penalty(graphs, demands, path):
    """Refuse a rejection cost too large for a float on any of ``graphs``,
    naming ``path``, the file their links were read from.
    """
    try:
        for graph in graphs:
            dummy_penalty(graph, demands)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def _write(reports, fmt, out, include_timing):
    if out is None:
        click.echo(format_reports(reports, fmt, include_timing), nl=False)
    else:
        emit_reports(reports, fmt, out, include_timing)
        click.echo(f"wrote {out}", err=True)


@click.group()
def cli():
    """Minimum-delay QoS overlay routing: solve, replay, sweep, generate."""


@cli.command("solve")
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True, path_type=FsPath))
@click.option("--node-limits", "limits_path", required=True, type=click.Path(exists=True, path_type=FsPath))
@click.option("--demands", "demands_path", required=True, type=click.Path(exists=True, path_type=FsPath))
@_mode_option
@_seed_option
@click.option("--oracle", is_flag=True, help="Also run the exact benchmark and report the gap.")
@click.option("--time-limit", type=float, default=ExactLimits.time_limit_s, show_default=True,
              help="Seconds of the oracle's MIP call.")
@click.option("--max-nodes", type=int, default=ExactLimits.max_nodes, show_default=True,
              help="Branch-and-bound nodes of the oracle's MIP.")
@_out_option
@_format_option
@click.option(
    "--dump-lp",
    "dump_lp_path",
    type=click.Path(dir_okay=False, path_type=FsPath),
    default=None,
    help="Write the final restricted master in LP text format "
    "(the overlay master under --mode both).",
)
@_timing_option
def solve_cmd(graph_path, limits_path, demands_path, mode, seed, oracle, time_limit, max_nodes, out, fmt,
              dump_lp_path, timing):
    """Solve one static scenario; with --oracle, also its gap to the exact optimum."""
    if not oracle:
        _refuse("applies with --oracle only", "time_limit", "max_nodes")
    graph = load_graph(graph_path, limits_path)
    demands = load_demands(demands_path, graph.n_nodes)
    _check_penalty([graph], demands, graph_path)
    reports = _solve_modes(
        graph, demands, mode, SolverConfig(seed=seed), oracle=oracle,
        oracle_limits=ExactLimits(max_nodes=max_nodes, time_limit_s=time_limit), with_throughput=True,
    )
    if dump_lp_path is not None:
        if not demands:
            raise InputError("--dump-lp needs a nonempty demand set")
        dumped = "overlay" if mode == "both" else mode
        master = next(r.master for r in reports if r.mode == dumped)
        try:
            dump_lp_path.write_text(master.dump_lp())
        except OSError as exc:
            raise InputError(f"cannot write {dump_lp_path}: {exc}") from None
        click.echo(f"wrote {dump_lp_path}", err=True)
    _write(reports, fmt, out, timing)


@cli.command("replay")
@click.option("--trace", "trace_path", required=True, type=click.Path(exists=True, path_type=FsPath))
@click.option("--node-limits", "limits_path", required=True, type=click.Path(exists=True, path_type=FsPath))
@click.option("--demands", "demands_path", required=True, type=click.Path(exists=True, path_type=FsPath))
@_mode_option
@_seed_option
@click.option("--oracle", is_flag=True, help="Run the exact benchmark on every epoch (small instances only).")
@_out_option
@_format_option
@_timing_option
def replay_cmd(trace_path, limits_path, demands_path, mode, seed, oracle, out, fmt, timing):
    """Replay a metric trace epoch by epoch, re-allocating all demands."""
    trace = load_trace(trace_path, limits_path)
    demands = load_demands(demands_path, trace.n_nodes)
    _check_penalty(map(trace.graph_for, trace.epochs), demands, trace_path)
    reports = run_timeseries(
        trace, demands, _expand_modes(mode), SolverConfig(seed=seed), oracle=oracle
    )
    _write(reports, fmt, out, timing)


@cli.command("sweep")
@click.option("--params", "params_path", type=click.Path(exists=True, path_type=FsPath), default=None)
@click.option(
    "--demand-counts",
    default="90,110,130,150,170,190,210",
    show_default=True,
    help="Comma-separated demand counts to sweep.",
)
@_mode_option
@_seed_option
@_out_option
@_format_option
@_timing_option
def sweep_cmd(params_path, demand_counts, mode, seed, out, fmt, timing):
    """Acceptance/runtime as a function of offered load on one synthetic net.

    The params file's seed draws the net and the demands and seeds the
    rounding, unless ``--seed`` is given.
    """
    params = _params(params_path, seed)
    # Digits only, so a negative count is refused here, under the flag's name.
    counts = [x.strip() for x in demand_counts.split(",") if x.strip()]
    if not all(x.isdecimal() for x in counts):
        raise InputError(f"bad --demand-counts {demand_counts!r}")
    if not counts:
        raise InputError("--demand-counts is empty")
    graph = generate_topology(params)
    reports = []
    for k in counts:
        demands = generate_demands(replace(params, n_demands=int(k)), graph)
        reports += _solve_modes(graph, demands, mode, SolverConfig(seed=params.seed))
    _write(reports, fmt, out, timing)


@cli.command("generate")
@click.option(
    "--profile",
    type=click.Choice(["synthetic", "telco"]),
    default="synthetic",
    show_default=True,
)
@click.option("--params", "params_path", type=click.Path(exists=True, path_type=FsPath), default=None)
@click.option("--epochs", type=int, default=20, show_default=True, help="Trace length (telco profile).")
@_seed_option
@click.option(
    "--out-dir",
    required=True,
    type=click.Path(file_okay=False, path_type=FsPath),
)
def generate_cmd(profile, params_path, epochs, seed, out_dir):
    """Write a re-loadable scenario: graph or trace, node limits, demands.

    A synthetic scenario takes the params file's seed unless ``--seed`` is
    given; the telco profile takes no params file.
    """
    # Everything is drawn before the directory is made, so bad input leaves none behind.
    if profile == "telco":
        _refuse("applies to the synthetic profile only", "params_path")
        tp = TelcoProfile()
        trace = generate_telco_trace(epochs, seed, tp)
        files = {
            "trace.csv": (save_trace, trace),
            "node_limits.csv": (save_node_limits, trace.node_limits),
            "demands.csv": (save_demands, telco_demands(seed, tp)),
            "graph.csv": (save_graph, trace.graph_for(trace.epochs[0])),
        }
    else:
        _refuse("applies to the telco profile only", "epochs")
        params = _params(params_path, seed)
        graph = generate_topology(params)
        files = {
            "graph.csv": (save_graph, graph),
            "node_limits.csv": (save_node_limits, graph.node_limits),
            "demands.csv": (save_demands, generate_demands(params, graph)),
            "params.cfg": (save_params, params),
        }
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, (save, value) in files.items():
            save(value, out_dir / name)
    except OSError as exc:
        raise InputError(f"cannot write {out_dir}: {exc}") from None
    click.echo(f"wrote scenario to {out_dir}", err=True)


def main(argv: list[str] | None = None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.ClickException as exc:
        exc.show()
        return 2
    except click.Abort:
        return 1
    except InputError as exc:
        click.echo(f"input error: {exc}", err=True)
        return 2
    except SolverError as exc:
        click.echo(f"solver error: {exc}", err=True)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
