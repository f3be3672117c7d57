import math
from dataclasses import replace

import numpy as np
import pytest

from cgroute.errors import InputError
from cgroute.model import (
    Demand,
    LinkMetrics,
    OverlayGraph,
    augment_clique,
    make_path,
)
from cgroute.pricing import CandidateTable, enumerate_candidates, price_demand
from cgroute.rmp import Column, DualPoint, RestrictedMaster, RmpSolution
from cgroute.solver import (
    SolverConfig,
    column_generation,
    randomized_round,
    solve,
)
from cgroute.exact import solve_exact

from instances import feasibility_instance, gap_suite_instance, hand_graph
from oracles import check_routing_feasible


class TestConfig:
    def test_rejects_nonpositive_limits(self):
        with pytest.raises(InputError):
            SolverConfig(max_cg_iterations=0)
        with pytest.raises(InputError):
            SolverConfig(max_rounding_passes=0)
        with pytest.raises(InputError):
            SolverConfig(eps_reduced_cost=0.0)


class TestColumnGeneration:
    def test_uncongested_instance_goes_integral(self):
        g = hand_graph()
        demands = [
            Demand(0, 0, 3, 5.0, 1e6, 0.5),
            Demand(1, 1, 2, 5.0, 1e6, 0.5),
            Demand(2, 2, 0, 5.0, 1e6, 0.5),
        ]
        augmented = augment_clique(g, demands)
        cg = column_generation(augmented, demands)
        assert cg.certified
        best = sum(
            min(p.total_delay_ms for p in enumerate_candidates(augmented, d))
            for d in demands
        )
        assert cg.solution.objective == pytest.approx(best, rel=1e-9)
        assert all(
            v == pytest.approx(0.0, abs=1e-9) or v == pytest.approx(1.0, abs=1e-9)
            for v in cg.solution.values
        )

    def test_unroutable_demand_stays_on_dummy(self):
        g = hand_graph()
        d = Demand(0, 0, 3, 5.0, 1.0, 0.5)  # jitter bound below any edge jitter
        augmented = augment_clique(g, [d])
        cg = column_generation(augmented, [d])
        assert cg.certified
        assert cg.master.pool_size == 1
        assert cg.solution.values[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_one_shot_full_lp(self, seed):
        graph, demands = gap_suite_instance(seed)
        augmented = augment_clique(graph, demands)
        cg = column_generation(augmented, demands)
        assert cg.certified
        full = RestrictedMaster(augmented, demands)
        for d in full.demands:
            for p in enumerate_candidates(augmented, d):
                full.add_column(Column.from_path(p, d))
        want = full.solve().objective
        assert cg.solution.objective == pytest.approx(want, rel=1e-9, abs=1e-6)

    @pytest.mark.parametrize("seed", range(10))
    def test_termination_certificate(self, seed):
        graph, demands = gap_suite_instance(seed)
        augmented = augment_clique(graph, demands)
        cg = column_generation(augmented, demands)
        assert cg.certified
        table = CandidateTable.pack(
            augmented, demands, {d.id: enumerate_candidates(augmented, d) for d in demands}
        )
        assert price_demand(table, cg.solution.duals, eps_rc=1e-7) == {}

    def test_iteration_cap_flags_uncertified(self):
        graph, demands = gap_suite_instance(0)
        augmented = augment_clique(graph, demands)
        cg = column_generation(
            augmented, demands, SolverConfig(max_cg_iterations=1)
        )
        assert cg.iterations == 1
        assert not cg.certified  # one pass cannot both add columns and verify


def make_split_state():
    """One demand split 0.5/0.5 across the direct edge and one dogleg."""
    g = OverlayGraph.from_edges(
        3,
        {
            (0, 2): LinkMetrics(20.0, 1.0, 100.0, 0.999),
            (0, 1): LinkMetrics(9.0, 1.0, 100.0, 0.999),
            (1, 2): LinkMetrics(11.0, 1.0, 100.0, 0.999),
        },
        [1000.0] * 3,
    )
    d = Demand(0, 0, 2, 10.0, 50.0, 0.9)
    augmented = augment_clique(g, [d])
    master = RestrictedMaster(augmented, [d])
    direct = master.add_column(Column.from_path(make_path(augmented, d), d))
    dogleg = master.add_column(Column.from_path(make_path(augmented, d, relay=1), d))
    values = [0.0] * master.pool_size
    values[direct] = 0.5
    values[dogleg] = 0.5
    fake = RmpSolution(
        values=tuple(values),
        objective=0.5 * 20.0 + 0.5 * 20.0,
        duals=DualPoint.zero(augmented, [d]),
        status="optimal",
    )
    return augmented, d, master, fake, direct, dogleg


class TestRandomizedRound:
    def test_integral_input_is_committed_verbatim(self):
        g = hand_graph()
        demands = [Demand(0, 0, 3, 5.0, 1e6, 0.5)]
        augmented = augment_clique(g, demands)
        cg = column_generation(augmented, demands)
        routed = randomized_round(
            cg.solution, cg.master, augmented, demands, np.random.default_rng(0)
        )
        assert routed.outcomes[0].nodes == (0, 1, 3)
        assert routed.objective == pytest.approx(34.0)

    def test_even_split_sampling_frequency(self):
        augmented, d, master, fake, direct, dogleg = make_split_state()
        hits = 0
        trials = 2000
        for trial in range(trials):
            routed = randomized_round(
                fake, master, augmented, [d], np.random.default_rng(trial)
            )
            assert routed.outcomes[0] is not None
            if routed.outcomes[0].edges == master.columns[direct].path.edges:
                hits += 1
        assert abs(hits / trials - 0.5) < 0.05

    def test_capacity_guard_never_double_books(self):
        # Two demands, each split across two routes that share edge (0,1)
        # with room for only one of them.
        g = OverlayGraph.from_edges(
            3,
            {
                (0, 1): LinkMetrics(5.0, 1.0, 10.0, 0.999),
                (1, 2): LinkMetrics(5.0, 1.0, 100.0, 0.999),
                (0, 2): LinkMetrics(40.0, 1.0, 10.0, 0.999),
            },
            [1000.0] * 3,
        )
        demands = [
            Demand(0, 0, 2, 10.0, 50.0, 0.9),
            Demand(1, 0, 2, 10.0, 50.0, 0.9),
        ]
        augmented = augment_clique(g, demands)
        master = RestrictedMaster(augmented, demands)
        cols = {}
        for d in master.demands:
            cols[d.id, "direct"] = master.add_column(
                Column.from_path(make_path(augmented, d), d)
            )
            cols[d.id, "dogleg"] = master.add_column(
                Column.from_path(make_path(augmented, d, relay=1), d)
            )
        values = [0.0] * master.pool_size
        for key, cid in cols.items():
            values[cid] = 0.5
        fake = RmpSolution(
            values=tuple(values),
            objective=0.0,
            duals=DualPoint.zero(augmented, master.demands),
            status="optimal",
        )
        for trial in range(300):
            routed = randomized_round(
                fake, master, augmented, master.demands, np.random.default_rng(trial)
            )
            # direct edge fits one demand, dogleg edge (0,1) fits one too,
            # but never two on the same edge
            assert not check_routing_feasible(augmented, master.demands, routed.outcomes)

    def test_pure_dummy_mass_is_rejected(self):
        g = hand_graph()
        d = Demand(0, 0, 3, 5.0, 1.0, 0.5)
        augmented = augment_clique(g, [d])
        master = RestrictedMaster(augmented, [d])
        sol = master.solve()
        routed = randomized_round(
            sol, master, augmented, [d], np.random.default_rng(0)
        )
        assert routed.outcomes[0] is None
        assert routed.objective == pytest.approx(master.dummy_penalty)


class TestSolve:
    def test_empty_demands(self):
        g = hand_graph()
        routed = solve(g, [])
        assert routed.outcomes == {}
        assert routed.objective == 0.0
        assert routed.certified

    def test_demand_outside_graph_rejected(self):
        g = hand_graph()
        demands = [Demand(0, 0, 1, 5.0, 1e6, 0.5), Demand(3, 1, 7, 5.0, 1e6, 0.5)]
        with pytest.raises(InputError, match="demand 3"):
            solve(g, demands)

    @pytest.mark.parametrize("seed", range(6))
    def test_objective_recomputes_from_outcomes(self, seed):
        graph, demands = feasibility_instance(seed)
        routed = solve(graph, demands, SolverConfig(seed=seed))
        augmented = augment_clique(graph, demands)
        from cgroute.model import dummy_penalty

        penalty = dummy_penalty(augmented)
        recomputed = sum(
            p.total_delay_ms if p is not None else penalty
            for p in routed.outcomes.values()
        )
        assert routed.objective == pytest.approx(recomputed, rel=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_residuals_match_recomputation(self, seed):
        graph, demands = feasibility_instance(seed)
        routed = solve(graph, demands, SolverConfig(seed=seed))
        augmented = augment_clique(graph, demands)
        by_id = {d.id: d for d in demands}
        for e in augmented.edges:
            used = sum(
                by_id[did].rate_mbps
                for did, p in routed.outcomes.items()
                if p is not None and e in p.edges
            )
            cap = augmented.edges[e].capacity_mbps
            assert routed.residual_edge_capacity[e] == pytest.approx(cap - used)

    @pytest.mark.parametrize("seed", range(15))
    def test_feasibility_invariants(self, seed):
        graph, demands = feasibility_instance(seed)
        routed = solve(graph, demands, SolverConfig(seed=seed))
        assert not check_routing_feasible(graph, demands, routed.outcomes)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_deterministic_given_seed(self, seed):
        graph, demands = feasibility_instance(seed)
        a = solve(graph, demands, SolverConfig(seed=seed))
        b = solve(graph, demands, SolverConfig(seed=seed))
        assert a.objective == b.objective
        for did in a.outcomes:
            pa, pb = a.outcomes[did], b.outcomes[did]
            assert (pa is None) == (pb is None)
            if pa is not None:
                assert pa.edges == pb.edges

    @pytest.mark.parametrize("seed", range(8))
    def test_sandwich_against_exact(self, seed):
        graph, demands = gap_suite_instance(seed)
        augmented = augment_clique(graph, demands)
        cg = column_generation(augmented, demands)
        routed = solve(graph, demands, SolverConfig(seed=seed))
        benchmark = solve_exact(graph, demands)
        assert benchmark.optimal
        lp, exact, rounded = cg.solution.objective, benchmark.objective, routed.objective
        assert lp <= exact * (1 + 1e-6) + 1e-9
        assert exact <= rounded * (1 + 1e-6) + 1e-9

    def test_acceptance_count_drives_objective_order(self):
        # With the rejection penalty dominating every routable delay, more
        # acceptances always means a smaller objective.
        graph, demands = gap_suite_instance(1)
        augmented = augment_clique(graph, demands)
        from cgroute.model import dummy_penalty

        penalty = dummy_penalty(augmented)
        max_route_delay = 2 * max(m.delay_ms for m in augmented.edges.values())
        assert penalty > len(demands) * max_route_delay
