"""The benchmark's workloads: seeded inputs and the ops that run on them.

Every op is one closed-loop call into a public entry point
(``solver.solve``, ``exact.solve_exact`` or ``harness.run_timeseries``);
the next starts only when the previous one returns. Each op's output is
checked by :mod:`checker` after its timed region.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from checker import check_report, check_routes, check_solution
from spans import CountingRng

#: A demand whose LP weight on its committed path reaches 1 - this was
#: committed before rounding drew anything.
INTEGRAL_TOL = 1e-6
#: Gap-suite instances measured by ``exact-gap``: a plain seed range, heavy
#: branch-and-bound cases included (instance 17 alone explores 1655 nodes).
GAP_SUITE = range(0, 50)


@dataclass
class Heuristic:
    """One heuristic solve's inputs and output, as routes by demand id."""

    graph: object
    demands: list
    direct: bool
    objective: float
    routes: dict


@dataclass
class OpResult:
    seconds: float
    heuristic: Optional[Heuristic] = None
    exact: Optional[tuple] = None  # (objective, proven, nodes explored, routes)
    problems: list = field(default_factory=list)

    @property
    def signature(self) -> tuple:
        h = self.heuristic
        head = None if h is None else (h.objective, tuple(sorted(h.routes.items())))
        return head, self.exact


def _routes(solution) -> dict:
    return {did: None if p is None else tuple(p.nodes) for did, p in solution.outcomes.items()}


def _solve_op(cg, graph, demands, config, enumerate_fn) -> tuple[float, object, list]:
    """Time one heuristic solve; a CgRouteError becomes a failed op."""
    t0 = time.perf_counter()
    try:
        routed = cg.solver.solve(graph, demands, config, enumerate_fn)
    except cg.errors.CgRouteError as exc:
        return time.perf_counter() - t0, None, [f"{type(exc).__name__}: {exc}"]
    return time.perf_counter() - t0, routed, []


class Synthetic:
    """``solver.solve`` on ``count`` preferential-attachment instances of one size.

    With ``count`` 1 the instance seed is the run's seed; with more, the
    instance seeds are drawn from it, so each run averages over topologies.
    """

    def __init__(self, name: str, nodes: int, edges: int, demands: int, count: int, why: str, predicted: Optional[str]):
        self.name, self.why, self.predicted = name, why, predicted
        self.size, self.count = (nodes, edges, demands), count

    def build(self, cg, seed: int, out_dir) -> dict:
        n, e, k = self.size
        seeds = [seed] if self.count == 1 else np.random.SeedSequence(seed).generate_state(self.count)
        instances = []
        for sub in seeds:
            params = cg.scenario.SyntheticParams(n_nodes=n, n_edges=e, n_demands=k, seed=int(sub))
            graph = cg.scenario.generate_topology(params)
            instances.append((graph, cg.scenario.generate_demands(params, graph)))
        return {"instances": instances}

    def run_pass(self, cg, inputs, config, enumerate_fn, tracer=None) -> tuple[float, list]:
        ops = []
        for graph, demands in inputs["instances"]:
            if tracer is not None:
                tracer.op += 1
            seconds, routed, problems = _solve_op(cg, graph, demands, config, enumerate_fn)
            op = OpResult(seconds, problems=problems)
            if routed is not None:
                op.problems += check_solution(graph, demands, routed)
                op.heuristic = Heuristic(graph, demands, False, routed.objective, _routes(routed))
            ops.append(op)
        return sum(op.seconds for op in ops), ops


class ExactGap:
    """Heuristic ``solve`` plus ``solve_exact`` on each gap-suite instance.

    The instance set is the fixed gap suite; ``--seed`` is the heuristic's
    rounding seed. Branch-and-bound time is concentrated in a few instances
    (median 46 ms, one at 7-8 s), so a seed-dependent window of instances
    would change ``wall_s`` several-fold from seed to seed.
    """

    def __init__(self, name: str, why: str, predicted: Optional[str]):
        self.name, self.why, self.predicted = name, why, predicted

    def build(self, cg, seed: int, out_dir) -> dict:
        instances = []
        for inst in GAP_SUITE:
            n, k = _gap_shape(inst)
            params = cg.scenario.SyntheticParams(
                n_nodes=n, n_edges=4 * (n - 2), n_demands=k, seed=inst
            )
            graph = cg.scenario.generate_topology(params)
            instances.append((graph, cg.scenario.generate_demands(params, graph)))
        return {"instances": instances}

    def run_pass(self, cg, inputs, config, enumerate_fn, tracer=None) -> tuple[float, list]:
        ops = []
        for graph, demands in inputs["instances"]:
            if tracer is not None:
                tracer.op += 1
            seconds, routed, problems = _solve_op(cg, graph, demands, config, enumerate_fn)
            op = OpResult(seconds, problems=problems)
            ops.append(op)
            if routed is None:
                continue
            t0 = time.perf_counter()
            try:
                best = cg.exact.solve_exact(graph, demands, cg.exact.ExactLimits(), enumerate_fn)
            except cg.errors.CgRouteError as exc:
                op.seconds += time.perf_counter() - t0
                op.problems.append(f"exact: {type(exc).__name__}: {exc}")
                continue
            op.seconds += time.perf_counter() - t0
            op.heuristic = Heuristic(graph, demands, False, routed.objective, _routes(routed))
            op.exact = (best.objective, best.optimal, best.nodes_explored, tuple(sorted(_routes(best).items())))
            op.problems += check_solution(graph, demands, routed)
            op.problems += ["exact: " + p for p in check_solution(graph, demands, best)]
            if best.optimal and best.objective > routed.objective * (1.0 + 1e-9):
                op.problems.append(f"exact objective {best.objective!r} above heuristic {routed.objective!r}")
        return sum(op.seconds for op in ops), ops


def _gap_shape(inst: int) -> tuple[int, int]:
    """Node and demand counts of gap-suite instance ``inst`` (8-12, 15-30)."""
    rng = np.random.default_rng([inst, 9])
    return int(rng.integers(8, 13)), int(rng.integers(15, 31))


class TelcoReplay:
    """CLI-style replays: each trace to disk and back, both modes, both reports.

    One run replays several independent traces, because a trace's link set
    and base delays fix most of its acceptance and delay; averaging over
    traces keeps those figures comparable from seed to seed.
    """

    def __init__(self, name: str, traces: int, epochs: int, why: str, predicted: Optional[str]):
        self.name, self.traces, self.epochs = name, traces, epochs
        self.why, self.predicted = why, predicted

    def build(self, cg, seed: int, out_dir) -> dict:
        s = cg.scenario
        out_dir.mkdir(parents=True, exist_ok=True)
        replays = []
        for k, sub in enumerate(np.random.SeedSequence(seed).generate_state(self.traces)):
            trace = s.generate_telco_trace(self.epochs, seed=int(sub))
            demands = s.telco_demands(seed=int(sub))
            files = {f: out_dir / f"{self.name}-{k}-{f}.csv" for f in ("trace", "limits", "demands")}
            s.save_trace(trace, files["trace"])
            s.save_node_limits(trace.node_limits, files["limits"])
            s.save_demands(demands, files["demands"])
            loaded = s.load_trace(files["trace"], files["limits"])
            loaded_demands = s.load_demands(files["demands"])
            if loaded != trace or loaded_demands != demands:
                raise RuntimeError("trace or demands changed on a save/load round trip")
            replays.append(
                {
                    "trace": loaded,
                    "demands": loaded_demands,
                    "graphs": [loaded.graph_for(ep) for ep in loaded.epochs],
                    "reports": {f: out_dir / f"{self.name}-{k}-replay.{f}" for f in ("json", "csv")},
                }
            )
        return {"replays": replays}

    def run_pass(self, cg, inputs, config, enumerate_fn, tracer=None) -> tuple[float, list]:
        h = cg.harness
        t0 = time.perf_counter()
        results = []
        for replay in inputs["replays"]:
            reports = h.run_timeseries(replay["trace"], replay["demands"], h.MODES, config)
            for fmt, path in replay["reports"].items():
                h.emit_reports(reports, fmt, path)
            results.append(reports)
        wall = time.perf_counter() - t0
        ops = []
        for replay, reports in zip(inputs["replays"], results):
            graphs = [g for g in replay["graphs"] for _ in h.MODES]
            if len(reports) != len(graphs):
                raise RuntimeError(f"replay returned {len(reports)} reports for {len(graphs)} solves")
            for graph, r in zip(graphs, reports):
                direct = r.mode == "direct"
                op = OpResult(r.runtime_ms / 1000.0)
                op.problems = check_report(graph, replay["demands"], r, direct)
                if r.error is None:
                    routes = {row["demand"]: tuple(row["path"]) if row["accepted"] else None for row in r.outcomes}
                    op.heuristic = Heuristic(graph, replay["demands"], direct, r.objective, routes)
                ops.append(op)
        return wall, ops


WORKLOADS = {
    w.name: w
    for w in (
        TelcoReplay(
            "telco-replay",
            traces=24,
            epochs=4,
            why="telco trace replayed in both modes: tiny LPs, so per-solve fixed cost and HiGHS call overhead dominate",
            predicted="rmp",
        ),
        Synthetic(
            "synth-large",
            200,
            3000,
            3000,
            count=3,
            why="200 nodes, 3000 edges, 3000 demands: candidate enumeration and pricing dominate the solve",
            predicted="pricing",
        ),
        Synthetic(
            "dense-lp",
            50,
            450,
            5000,
            count=3,
            why="50 nodes, 5000 demands: one large ill-conditioned master and heavy rounding",
            predicted=None,
        ),
        ExactGap(
            "exact-gap",
            why="fixed 50-instance gap suite, heuristic plus exact branch and bound: measures the exact layer and optimality gap",
            predicted="rmp",
        ),
    )
}


def synthetic_size(spec: str) -> Synthetic:
    """An ad-hoc synthetic workload from ``nodes/edges/demands``."""
    try:
        n, e, k = (int(x) for x in spec.split("/"))
    except ValueError:
        raise ValueError(f"size must be nodes/edges/demands, got {spec!r}") from None
    return Synthetic(f"synth-{n}-{e}-{k}", n, e, k, 1, why="ad-hoc ladder size", predicted="pricing")


def staged(cg, h: Heuristic, config) -> tuple[float, int, int, list]:
    """Re-run ``h`` as augment, column generation, rounding with solve()'s seed.

    Returns the LP bound, the rounding draws, the demands a draw committed,
    and problems if the staged result differs from the original solve.
    """
    enumerate_fn = cg.harness.direct_mode_candidates if h.direct else cg.pricing.enumerate_candidates
    augmented = cg.model.augment_clique(h.graph, h.demands)
    cgr = cg.solver.column_generation(augmented, h.demands, config, enumerate_fn)
    rng = CountingRng(np.random.default_rng(config.seed))
    routed = cg.solver.randomized_round(
        cgr.solution, cgr.master, augmented, h.demands, rng, config.max_rounding_passes
    )
    columns, values = cgr.master.columns, cgr.solution.values
    drawn = 0
    for did, path in routed.outcomes.items():
        if path is not None:
            weight = max(values[j] for j in cgr.master.columns_of(did) if columns[j].path.edges == path.edges)
            drawn += weight < 1.0 - INTEGRAL_TOL
    routes = _routes(routed)
    problems = []
    if routed.objective != h.objective or routes != h.routes:
        problems.append(f"staged objective {routed.objective!r} != solve() objective {h.objective!r}")
    problems += check_routes(h.graph, h.demands, routes, routed.objective, h.direct)
    return cgr.solution.objective, rng.draws, drawn, problems
