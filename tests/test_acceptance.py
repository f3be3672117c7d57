"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines; each test also asserts, so the suite fails loudly when a criterion
is missed.
"""

import statistics
import time

import numpy as np
import pytest

from cgroute.cli import main as cli_main
from cgroute.exact import solve_exact
from cgroute.model import augment_clique
from cgroute.pricing import enumerate_candidates, price_demand
from cgroute.scenario import (
    SyntheticParams,
    TelcoProfile,
    generate_demands,
    generate_telco_trace,
    generate_topology,
    telco_demands,
)
from cgroute.solver import SolverConfig, column_generation, randomized_round, solve
from cgroute.harness import run_timeseries

from instances import candidate_lists, feasibility_instance, gap_suite_instance, tiny_instance
from oracles import check_routing_feasible, exhaustive_best_assignment
from test_solver import make_split_state

N_GAP_INSTANCES = 50
N_FEASIBILITY_INSTANCES = 500
N_TINY_INSTANCES = 100


def report(number: int, ok: bool, detail: str):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def gap_suite():
    """Shared run of the oracle-gap instances used by criteria 1-3."""
    started = time.perf_counter()
    rows = []
    for seed in range(N_GAP_INSTANCES):
        graph, demands = gap_suite_instance(seed)
        augmented = augment_clique(graph, demands)
        cg = column_generation(augmented, demands, SolverConfig(seed=seed))
        routed = randomized_round(
            cg.solution,
            cg.master,
            augmented,
            demands,
            np.random.default_rng(seed),
        )
        benchmark = solve_exact(graph, demands)
        rows.append(
            {
                "seed": seed,
                "demands": demands,
                "augmented": augmented,
                "cg": cg,
                "lp_obj": cg.solution.objective,
                "rounded_obj": routed.objective,
                "exact_obj": benchmark.objective,
                "exact_proven": benchmark.optimal,
                "accept_gap": benchmark.n_accepted
                - sum(1 for p in routed.outcomes.values() if p is not None),
            }
        )
    return rows, time.perf_counter() - started


def test_criterion_1_oracle_optimality_gap(gap_suite):
    rows, elapsed = gap_suite
    assert all(r["exact_proven"] for r in rows)
    gaps = [(r["rounded_obj"] - r["exact_obj"]) / r["exact_obj"] for r in rows]
    mean_gap = statistics.mean(gaps)
    within_one = sum(1 for r in rows if r["accept_gap"] <= 1)
    ok = (
        len(rows) >= 50
        and mean_gap <= 0.05
        and within_one >= 0.9 * len(rows)
        and elapsed < 120.0
    )
    assert report(
        1,
        ok,
        f"mean objective gap {100 * mean_gap:.2f}% (<=5%), acceptance gap <=1 on "
        f"{within_one}/{len(rows)} (>=90%), suite ran in {elapsed:.1f}s (<120s)",
    )


def test_criterion_2_sandwich(gap_suite):
    rows, _ = gap_suite
    violations = []
    for r in rows:
        tol = 1e-6
        if not r["lp_obj"] <= r["exact_obj"] * (1 + tol) + 1e-9:
            violations.append((r["seed"], "lp>exact"))
        if not r["exact_obj"] <= r["rounded_obj"] * (1 + tol) + 1e-9:
            violations.append((r["seed"], "exact>rounded"))
    assert report(
        2,
        not violations,
        f"LP <= exact <= rounded on {len(rows)} instances at 1e-6 relative "
        f"({len(violations)} violations)",
    )


def test_criterion_3_termination_certificate(gap_suite):
    rows, _ = gap_suite
    violations = 0
    for r in rows:
        if not r["cg"].certified:
            violations += 1
            continue
        augmented, demands = r["augmented"], r["demands"]
        table = enumerate_candidates(augmented, demands)
        violations += len(price_demand(table, r["cg"].solution.duals, eps_rc=1e-7))
    assert report(
        3,
        violations == 0,
        f"exhaustive re-pricing found no reduced cost below -1e-7 on "
        f"{len(rows)} instances ({violations} violations)",
    )


def test_criterion_4_feasibility_suite():
    started = time.perf_counter()
    violations = []
    for seed in range(N_FEASIBILITY_INSTANCES):
        graph, demands = feasibility_instance(seed)
        routed = solve(graph, demands, SolverConfig(seed=seed))
        problems = check_routing_feasible(graph, demands, routed.outcomes)
        if problems:
            violations.append((seed, problems))
    elapsed = time.perf_counter() - started
    ok = not violations and elapsed < 300.0
    assert report(
        4,
        ok,
        f"{N_FEASIBILITY_INSTANCES} instances, {len(violations)} feasibility "
        f"violations, ran in {elapsed:.1f}s (<300s)",
    )


def test_criterion_5_exact_matches_exhaustive():
    from cgroute.model import dummy_penalty

    mismatches = []
    for seed in range(N_TINY_INSTANCES):
        graph, demands = tiny_instance(seed)
        augmented = augment_clique(graph, demands)
        candidates = candidate_lists(enumerate_candidates(augmented, demands))
        want, _ = exhaustive_best_assignment(
            augmented, demands, candidates, dummy_penalty(augmented, demands)
        )
        got = solve_exact(graph, demands)
        if not got.optimal or abs(got.objective - want) > 1e-9:
            mismatches.append((seed, want, got.objective))
    assert report(
        5,
        not mismatches,
        f"branch-and-bound equals exhaustive enumeration on {N_TINY_INSTANCES} "
        f"tiny instances to 1e-9 ({len(mismatches)} mismatches)",
    )


def test_criterion_6_overlay_vs_direct_dominance():
    seed = 7
    profile = TelcoProfile()
    trace = generate_telco_trace(20, seed=seed, profile=profile)
    demands = telco_demands(seed=seed, profile=profile)
    reports = run_timeseries(
        trace, demands, ["overlay", "direct"], SolverConfig(seed=seed)
    )
    overlay = [r for r in reports if r.mode == "overlay"]
    direct = [r for r in reports if r.mode == "direct"]
    per_epoch = all(
        o.acceptance_pct >= d.acceptance_pct for o, d in zip(overlay, direct)
    )
    mean_overlay = statistics.mean(r.acceptance_pct for r in overlay)
    mean_direct = statistics.mean(r.acceptance_pct for r in direct)
    gap = mean_overlay - mean_direct
    ok = per_epoch and gap >= 30.0
    assert report(
        6,
        ok,
        f"telco profile over 20 epochs: overlay {mean_overlay:.1f}% vs direct "
        f"{mean_direct:.1f}% (gap {gap:.1f}pp >= 30pp), per-epoch dominance "
        f"{per_epoch}",
    )


def test_criterion_7_performance():
    profile = TelcoProfile()
    trace = generate_telco_trace(1, seed=0, profile=profile)
    demands = telco_demands(seed=0, profile=profile)
    graph = trace.graph_for(trace.epochs[0])
    started = time.perf_counter()
    solve(graph, demands, SolverConfig(seed=0))
    telco_s = time.perf_counter() - started

    params = SyntheticParams(n_demands=210, seed=0)
    big_graph = generate_topology(params)
    big_demands = generate_demands(params, big_graph)
    started = time.perf_counter()
    solve(big_graph, big_demands, SolverConfig(seed=0))
    synth_s = time.perf_counter() - started

    ok = telco_s < 1.0 and synth_s < 60.0
    assert report(
        7,
        ok,
        f"telco solve {telco_s * 1000:.0f}ms (<1000ms), 50-node/210-demand "
        f"solve {synth_s:.2f}s (<60s)",
    )


def test_criterion_8_rounding_sampling_contract():
    augmented, demand, master, fake, direct, dogleg = make_split_state()
    trials = 10_000
    hits = 0
    for trial in range(trials):
        routed = randomized_round(
            fake, master, augmented, [demand], np.random.default_rng(trial)
        )
        path = routed.outcomes[0]
        assert path is not None
        if path.edges == master.columns[direct].path.edges:
            hits += 1
    freq = hits / trials
    ok = abs(freq - 0.5) <= 0.02
    assert report(
        8,
        ok,
        f"0.5/0.5 split selected the direct path with frequency {freq:.4f} "
        f"over {trials} seeded trials (0.5 +/- 0.02)",
    )


def test_criterion_9_byte_identical_reports(tmp_path):
    scenario = tmp_path / "scenario"
    code = cli_main(
        ["generate", "--profile", "telco", "--epochs", "3", "--seed", "11",
         "--out-dir", str(scenario)]
    )
    assert code == 0
    digests = {}
    for fmt in ("csv", "json"):
        outputs = []
        for attempt in ("one", "two"):
            dest = tmp_path / f"{fmt}-{attempt}.{fmt}"
            code = cli_main(
                [
                    "replay",
                    "--trace", str(scenario / "trace.csv"),
                    "--node-limits", str(scenario / "node_limits.csv"),
                    "--demands", str(scenario / "demands.csv"),
                    "--mode", "both",
                    "--seed", "11",
                    "--format", fmt,
                    "--no-timing",
                    "--out", str(dest),
                ]
            )
            assert code == 0
            outputs.append(dest.read_bytes())
        digests[fmt] = outputs[0] == outputs[1]
    ok = all(digests.values())
    assert report(
        9,
        ok,
        f"two replays produced byte-identical reports (csv={digests['csv']}, "
        f"json={digests['json']})",
    )
