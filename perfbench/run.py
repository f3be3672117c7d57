#!/usr/bin/env python3
"""cgroute benchmark: one seeded workload, closed loop, checked outputs.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload synth-large --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --ladder            # the ROADMAP baseline sizes
    python3 perfbench/run.py --ladder 100/1200/1000,200/3000/3000

With ``--trace 0`` the run measures the end-to-end metrics with no
instrumentation; with ``--trace 1`` it alternates untraced and traced passes
and reports the per-layer split. Every metric is printed as
``name = value unit``; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Results, the environment and (when
traced) every span go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from benchenv import OUT_DIR, MissingProgram, environment, load_cgroute  # noqa: E402
from spans import LAYERS, Tracer, installed, layer_of, traced_enumerator  # noqa: E402
from workloads import WORKLOADS, staged, synthetic_size  # noqa: E402

#: Set-up is repeated at least this many times, and for at least this long,
#: and its median reported: some workloads set up in a few milliseconds.
SETUP_REPEATS = 5
SETUP_MIN_S = 1.0
#: The tail percentile is the highest of these with this many samples beyond it.
TAIL_CHOICES = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0)
TAIL_BEYOND = 10

END_TO_END = ("setup_s", "wall_s", "acceptance_pct", "mean_delay_ms", "peak_rss_mb")


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def latency_summary(seconds: list) -> dict:
    """p50 and the tail percentile of per-op latency, when the samples allow."""
    ms = sorted(1000.0 * s for s in seconds)
    n = len(ms)
    out: dict = {"samples": n}
    if n - math.ceil(0.5 * n) < TAIL_BEYOND:
        return out
    out["solve_ms.p50"] = percentile(ms, 50.0)
    for q in TAIL_CHOICES:
        if n - math.ceil(q / 100.0 * n) >= TAIL_BEYOND:
            out["solve_ms.tail"] = percentile(ms, q)
            out["tail_percentile"] = q
            out["beyond_tail"] = n - math.ceil(q / 100.0 * n)
            break
    return out


def warm_up(cg):
    """One tiny solve and exact solve, so lazy imports and HiGHS set-up finish first."""
    params = cg.scenario.SyntheticParams(n_nodes=6, n_edges=16, n_demands=6, seed=0)
    graph = cg.scenario.generate_topology(params)
    demands = cg.scenario.generate_demands(params, graph)
    cg.solver.solve(graph, demands)
    cg.exact.solve_exact(graph, demands)


def quality(ops: list) -> dict:
    """Deterministic answer-quality figures over one pass."""
    offered = accepted = 0
    delay = 0.0
    gaps = []
    for op in ops:
        h = op.heuristic
        if h is None:
            continue
        offered += len(h.demands)
        for d in h.demands:
            nodes = h.routes.get(d.id)
            if nodes is not None:
                accepted += 1
                delay += sum(h.graph.edges[e].delay_ms for e in zip(nodes, nodes[1:]))
        if op.exact is not None:
            gaps.append(100.0 * (h.objective - op.exact[0]) / op.exact[0])
    out = {
        "acceptance_pct": 100.0 * accepted / offered if offered else 0.0,
        "mean_delay_ms": delay / accepted if accepted else 0.0,
    }
    if gaps:
        out["opt_gap_pct"] = statistics.fmean(gaps)
    return out


class Run:
    """Op accounting shared by the traced and untraced modes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: list | None = None

    def record(self, ops: list, compare_to: list | None = None, label: str = "") -> None:
        """Count ops; an op fails on a checker problem or an output that differs from ``compare_to``."""
        if compare_to is not None and len(compare_to) != len(ops):
            self.problems.append(f"{label}: {len(ops)} ops, expected {len(compare_to)}")
            compare_to = None
        for i, op in enumerate(ops):
            self.attempted += 1
            problems = list(op.problems)
            if compare_to is not None and op.signature != compare_to[i].signature:
                problems.append(f"{label}: op {i} output differs")
            if problems:
                self.failed += 1
                self.problems.extend(problems[:3])


def time_left(started: float, passes: int, seconds: float) -> bool:
    """Whether one more pass, as long as the average so far, fits in ``seconds``."""
    elapsed = time.perf_counter() - started
    return elapsed + elapsed / passes <= seconds


def measure(workload, seed: int, seconds: float, trace: bool, cg) -> dict:
    config = cg.solver.SolverConfig(seed=seed)
    run = Run()
    walls: list[float] = []
    result: dict = {"workload": workload.name, "seed": seed, "trace": int(trace)}

    def plain_pass() -> list:
        wall, ops = workload.run_pass(cg, inputs, config, cg.pricing.enumerate_candidates)
        run.record(ops, run.reference, "repeat pass")
        run.reference = run.reference or ops
        walls.append(wall)
        return ops

    if not trace:
        setup = []
        while len(setup) < SETUP_REPEATS or sum(setup) < SETUP_MIN_S:
            t0 = time.perf_counter()
            inputs = workload.build(cg, seed, OUT_DIR)
            setup.append(time.perf_counter() - t0)
        warm_up(cg)
        latencies = []
        started = time.perf_counter()
        while True:
            latencies.extend(op.seconds for op in plain_pass())
            if not time_left(started, len(walls), seconds):
                break
        latency = latency_summary(latencies)
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            **quality(run.reference),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **{k: latency.pop(k) for k in ("solve_ms.p50", "solve_ms.tail") if k in latency},
        }
        result["extra"] = {
            "passes": len(walls),
            "wall_s_passes": walls,
            "setup_s_repeats": setup,
            **latency,
        }
    else:
        inputs = workload.build(cg, seed, OUT_DIR)
        setup_tracer = Tracer()
        with installed(setup_tracer, cg):
            workload.build(cg, seed, OUT_DIR)
        warm_up(cg)
        traced_walls, tracers = [], []
        started = time.perf_counter()
        while True:
            plain_pass()
            tracer = Tracer()
            with installed(tracer, cg):
                enumerate_fn = traced_enumerator(tracer, cg.pricing.enumerate_candidates)
                wall, ops = workload.run_pass(cg, inputs, config, enumerate_fn, tracer)
            run.record(ops, run.reference, "traced pass")
            if tracers and tracer.counts != tracers[0].counts:
                run.problems.append("traced passes disagree on layer counts")
            traced_walls.append(wall)
            tracers.append(tracer)
            if not time_left(started, len(walls), seconds):
                break
        staged_totals = run_staged(cg, run, config)
        if staged_totals["draws"] != tracers[0].counts["solver.round_draws"]:
            run.problems.append("staged rounding draws differ from the traced run")
        metrics = layer_metrics(tracers, setup_tracer, walls, traced_walls, staged_totals)
        write_spans(workload, seed, [setup_tracer] + tracers)
        self_s = {layer: metrics[f"{layer}.self_s"] for layer in LAYERS[1:]}
        dominant = max(self_s, key=self_s.get)
        result["extra"] = {
            "passes": len(walls),
            "dominant_layer": dominant,
            "dominant_share_pct": 100.0 * self_s[dominant] / metrics["trace.wall_s"],
            "predicted_dominant_layer": workload.predicted,
            "prediction_holds": None if workload.predicted is None else dominant == workload.predicted,
        }
    result.update(
        correct=run.failed == 0 and not run.problems,
        attempted=run.attempted,
        failed=run.failed,
        failed_frac=run.failed / run.attempted,
        metrics=metrics,
        problems=run.problems[:20],
        instances=len(inputs.get("instances", inputs.get("replays", []))),
        ops_per_pass=len(run.reference),
        environment=environment(),
    )
    return result


def run_staged(cg, run: Run, config) -> dict:
    """Column generation and rounding in stages for every heuristic op."""
    totals = {"ops": 0, "lp_gap_pct": 0.0, "draws": 0, "drawn_commits": 0}
    for op in run.reference:
        if op.heuristic is None:
            continue
        lp, draws, drawn, problems = staged(cg, op.heuristic, config)
        run.problems.extend(problems[:3])
        totals["ops"] += 1
        totals["lp_gap_pct"] += 100.0 * (op.heuristic.objective - lp) / lp
        totals["draws"] += draws
        totals["drawn_commits"] += drawn
    return totals


def layer_metrics(tracers, setup_tracer, walls, traced_walls, staged_totals) -> dict:
    """Per-layer times (mean per traced pass) and counts (one pass)."""
    n = len(tracers)
    incl, own, by_layer = {}, {}, {}
    for t in tracers:
        for target, values in (
            (incl, t.inclusive()),
            (own, t.self_by(lambda name: name)),
            (by_layer, t.self_by(layer_of)),
        ):
            for k, v in values.items():
                target[k] = target.get(k, 0.0) + v / n
    setup_incl = setup_tracer.inclusive()
    c = tracers[0].counts
    traced_wall = statistics.median(traced_walls)
    m = {
        "scenario.generate_s": setup_incl.get("scenario.generate", 0.0),
        "scenario.load_s": setup_incl.get("scenario.load", 0.0),
        "scenario.save_s": setup_incl.get("scenario.save", 0.0),
        "model.augment_s": incl.get("model.augment", 0.0),
        "model.augment_calls": c["model.augment_calls"],
        "pricing.enumerate_s": incl.get("pricing.enumerate", 0.0),
        "pricing.candidates": c["pricing.candidates"],
        "pricing.price_s": incl.get("pricing.price", 0.0),
        "pricing.price_calls": c["pricing.price_calls"],
        "pricing.hit_ratio": c["pricing.hits"] / c["pricing.price_calls"] if c["pricing.price_calls"] else 0.0,
        "rmp.lp_s": incl.get("rmp.lp", 0.0),
        "rmp.highs_s": incl.get("rmp.highs", 0.0),
        "rmp.assemble_s": own.get("rmp.lp", 0.0),
        "rmp.lp_solves": c["rmp.lp_solves"],
        "rmp.pool_size": c["rmp.pool_size"],
        "solver.cg_s": incl.get("solver.cg", 0.0),
        "solver.cg_self_s": own.get("solver.cg", 0.0),
        "solver.cg_iterations": c["solver.cg_iterations"],
        "solver.uncertified": c["solver.uncertified"],
        "solver.round_s": incl.get("solver.round", 0.0),
        "solver.round_draws": c["solver.round_draws"],
        "solver.round_commit_ratio": (
            staged_totals["drawn_commits"] / staged_totals["draws"] if staged_totals["draws"] else 0.0
        ),
        "solver.lp_gap_pct": (
            staged_totals["lp_gap_pct"] / staged_totals["ops"] if staged_totals["ops"] else 0.0
        ),
        "exact.solve_s": incl.get("exact.solve", 0.0),
        "exact.bb_nodes": c["exact.bb_nodes"],
        "exact.lp_solves": c["exact.lp_solves"],
        "exact.unproven": c["exact.unproven"],
        "harness.epoch_self_s": own.get("harness.solve_epoch", 0.0),
        "harness.report_s": incl.get("harness.report", 0.0),
    }
    for layer in LAYERS[1:]:
        m[f"{layer}.self_s"] = by_layer.get(layer, 0.0)
    m["trace.wall_s"] = traced_wall
    m["trace.untraced_wall_s"] = statistics.median(walls)
    m["trace.overhead_s"] = traced_wall - m["trace.untraced_wall_s"]
    m["trace.unattributed_s"] = statistics.fmean(traced_walls) - sum(m[f"{l}.self_s"] for l in LAYERS[1:])
    return m


def write_spans(workload, seed: int, tracers: list) -> None:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"{workload.name}-seed{seed}-spans.jsonl"
    with path.open("w") as f:
        for k, t in enumerate(tracers):
            phase = "setup" if k == 0 else f"pass{k}"
            for op, name, start, end, parent in t.spans:
                f.write(json.dumps([phase, op, name, start, end, parent]) + "\n")


def unit_of(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_ms", "ms"), ("_pct", "%"), ("_ratio", "ratio"), ("_mb", "MB")):
        if name.endswith(suffix):
            return unit
    return "ms" if name.startswith("solve_ms") else "count"


def print_result(result: dict) -> None:
    for name, value in result["metrics"].items():
        print(f"{name} = {value!r} {unit_of(name)}")
    for name, value in result["extra"].items():
        if not isinstance(value, list):
            print(f"{name} = {value!r}")
    print(f"failed_frac = {result['failed_frac']!r}")
    for p in result["problems"]:
        print(f"problem: {p}")
    print("environment: " + json.dumps(result["environment"]))


def save(result: dict) -> None:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"{result['workload']}-seed{result['seed']}-trace{result['trace']}.json"
    path.write_text(json.dumps(result, indent=2) + "\n")


def ladder(sizes: list[str], seed: int, seconds: float, cg) -> None:
    """Untraced and traced runs of ad-hoc synthetic sizes, one table row each."""
    rows = []
    for spec in sizes:
        w = synthetic_size(spec)
        plain = measure(w, seed, seconds, False, cg)
        save(plain)
        row = {"size": spec, "failed": plain["failed"], "attempted": plain["attempted"]}
        if plain["failed"]:
            row["status"] = plain["problems"][0] if plain["problems"] else "failed"
        else:
            traced = measure(w, seed, seconds, True, cg)
            save(traced)
            row.update(plain["metrics"])
            row.update({k: v for k, v in traced["metrics"].items() if not k.startswith("scenario.")})
            row["dominant_layer"] = traced["extra"]["dominant_layer"]
        rows.append(row)
        print(json.dumps(row), flush=True)
    print(f"\n{'size':>16s} {'wall_s':>8s} {'iters':>5s} {'pool':>7s} {'enum_s':>7s} "
          f"{'price_s':>7s} {'lp_s':>7s} {'highs_s':>7s} {'round_s':>7s} {'acc%':>6s}  status")
    for r in rows:
        if r["failed"]:
            print(f"{r['size']:>16s} {'-':>8s} {'':>5s} {'':>7s} {'':>7s} {'':>7s} {'':>7s} {'':>7s} {'':>7s} {'':>6s}  {r['status']}")
            continue
        print(
            f"{r['size']:>16s} {r['wall_s']:8.3f} {r['solver.cg_iterations']:5d} {r['rmp.pool_size']:7d} "
            f"{r['pricing.enumerate_s']:7.3f} {r['pricing.price_s']:7.3f} {r['rmp.lp_s']:7.3f} "
            f"{r['rmp.highs_s']:7.3f} {r['solver.round_s']:7.3f} {r['acceptance_pct']:6.2f}  ok"
        )
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"ladder-seed{seed}.json").write_text(
        json.dumps({"environment": environment(), "seed": seed, "rows": rows}, indent=2) + "\n"
    )


BASELINE_LADDER = "50/450/210,100/1200/1000,200/3000/3000,300/6000/5000,300/6000/10000,100/1200/20000"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--ladder", nargs="?", const=BASELINE_LADDER, help="nodes/edges/demands,...")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if (args.workload is None) == (args.ladder is None):
        ap.error("give exactly one of --workload and --ladder")
    try:
        cg = load_cgroute()
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.ladder is not None:
        ladder(args.ladder.split(","), args.seed, min(args.seconds, 1.0), cg)
        return 0
    workload = WORKLOADS[args.workload]
    result = measure(workload, args.seed, args.seconds, bool(args.trace), cg)
    save(result)
    print(f"workload = {workload.name} ({workload.why})")
    print_result(result)
    names = END_TO_END if not args.trace else result["metrics"]
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    k: {"value": result["metrics"][k], "unit": unit_of(k)}
                    for k in names
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
