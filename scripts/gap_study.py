#!/usr/bin/env python3
"""Optimality-gap study: heuristic vs exact on small random instances.

Generates seeded scaled-down instances, solves each with the column
generation heuristic and the exact MIP benchmark, and summarizes
the objective and acceptance gaps.

Usage: python scripts/gap_study.py [--instances 50] [--seed0 0]
"""

import argparse
import json
import statistics
from pathlib import Path

import numpy as np

from cgroute.exact import solve_exact
from cgroute.scenario import SyntheticParams, generate_demands, generate_topology
from cgroute.solver import SolverConfig, solve


def make_instance(seed: int):
    rng = np.random.default_rng([seed, 9])
    n = int(rng.integers(8, 13))
    k = int(rng.integers(15, 31))
    params = SyntheticParams(
        n_nodes=n,
        n_edges=4 * (n - 2),
        n_demands=k,
        capacity_range_mbps=(300.0, 500.0),
        node_capacity_mbps=400.0,
        rate_mean_mbps=50.0,
        seed=seed,
    )
    graph = generate_topology(params)
    return graph, generate_demands(params, graph)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--instances", type=int, default=50)
    ap.add_argument("--seed0", type=int, default=0)
    ap.add_argument("--out", type=Path, default=Path("results/gap_study.json"))
    args = ap.parse_args()

    rows = []
    for seed in range(args.seed0, args.seed0 + args.instances):
        graph, demands = make_instance(seed)
        heuristic = solve(graph, demands, SolverConfig(seed=seed))
        benchmark = solve_exact(graph, demands)
        rows.append(
            {
                "seed": seed,
                "n_demands": len(demands),
                "heuristic_objective": heuristic.objective,
                "exact_objective": benchmark.objective,
                "objective_gap_pct": 100.0
                * (heuristic.objective - benchmark.objective)
                / benchmark.objective,
                "heuristic_accepted": heuristic.n_accepted,
                "exact_accepted": benchmark.n_accepted,
                "exact_proven": benchmark.optimal,
                "heuristic_ms": 1000.0 * heuristic.duration_s,
                "exact_ms": 1000.0 * benchmark.duration_s,
            }
        )

    gaps = [r["objective_gap_pct"] for r in rows]
    acc_gaps = [r["exact_accepted"] - r["heuristic_accepted"] for r in rows]
    speedups = [r["exact_ms"] / r["heuristic_ms"] for r in rows if r["heuristic_ms"] > 0]
    print(f"instances          : {len(rows)}")
    print(f"mean objective gap : {statistics.mean(gaps):.2f}%")
    print(f"max objective gap  : {max(gaps):.2f}%")
    print(f"acceptance gap <=1 : {sum(1 for a in acc_gaps if a <= 1)}/{len(rows)}")
    print(f"median speedup     : {statistics.median(speedups):.1f}x over exact")

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(rows, indent=2) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
