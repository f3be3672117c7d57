import math

import numpy as np
import pytest

from cgroute.exact import ExactLimits, solve_exact
from cgroute.model import (
    Demand,
    LinkMetrics,
    OverlayGraph,
    augment_clique,
    dummy_penalty,
)
from cgroute.pricing import enumerate_candidates
from cgroute.rmp import RestrictedMaster, Routing
from cgroute.solver import SolverConfig, column_generation, solve

from instances import candidate_lists, candidates_of, gap_suite_instance, hand_graph, tiny_instance
from oracles import check_routing_feasible, exhaustive_best_assignment, routing_objective


class TestSmallCases:
    def test_compatible_demands_get_min_delay_paths(self):
        g = hand_graph()
        demands = [
            Demand(0, 0, 3, 5.0, 1e6, 0.5),
            Demand(1, 2, 1, 5.0, 1e6, 0.5),
        ]
        augmented = augment_clique(g, demands)
        best = sum(
            min(p.total_delay_ms for p in candidates_of(augmented, d))
            for d in demands
        )
        result = solve_exact(g, demands)
        assert result.optimal
        assert result.n_accepted == 2
        assert result.objective == pytest.approx(best)

    def test_shared_bottleneck_prefers_cheaper_acceptance(self):
        g = OverlayGraph.from_edges(
            2, {(0, 1): LinkMetrics(12.0, 0.0, 40.0, 1.0)}, [10000.0, 10000.0]
        )
        demands = [Demand(0, 0, 1, 40.0, 10.0, 0.5), Demand(1, 0, 1, 40.0, 10.0, 0.5)]
        augmented = augment_clique(g, demands)
        candidates = candidate_lists(enumerate_candidates(augmented, demands))
        want_obj, want_assign = exhaustive_best_assignment(
            augmented, demands, candidates, dummy_penalty(augmented, demands)
        )
        result = solve_exact(g, demands)
        assert result.optimal
        assert result.objective == pytest.approx(want_obj, abs=1e-9)
        assert result.n_accepted == 1

    def test_empty_demands(self):
        result = solve_exact(hand_graph(), [])
        assert result.optimal
        assert result.objective == 0.0
        assert isinstance(result.outcomes, Routing)
        assert result.outcomes == {}
        assert result.n_accepted == 0
        assert result.lp_solves == 0


    def test_demand_outside_graph_rejected(self):
        from cgroute.errors import InputError

        g = hand_graph()
        demands = [Demand(0, 0, 1, 5.0, 1e6, 0.5), Demand(3, 7, 1, 5.0, 1e6, 0.5)]
        with pytest.raises(InputError, match="demand 3"):
            solve_exact(g, demands)


class TestAgainstExhaustiveEnumeration:
    @pytest.mark.parametrize("seed", range(25))
    def test_matches_exhaustive_on_tiny_instances(self, seed):
        graph, demands = tiny_instance(seed)
        augmented = augment_clique(graph, demands)
        candidates = candidate_lists(enumerate_candidates(augmented, demands))
        want_obj, _ = exhaustive_best_assignment(
            augmented, demands, candidates, dummy_penalty(augmented, demands)
        )
        result = solve_exact(graph, demands)
        assert result.optimal
        assert result.objective == pytest.approx(want_obj, abs=1e-9)
        assert not check_routing_feasible(graph, demands, result.outcomes)


class TestOrderingAgainstHeuristic:
    @pytest.mark.parametrize("seed", range(8))
    def test_exact_between_lp_and_rounded(self, seed):
        graph, demands = gap_suite_instance(seed)
        augmented = augment_clique(graph, demands)
        cg = column_generation(augmented, demands)
        heuristic = solve(graph, demands, SolverConfig(seed=seed))
        result = solve_exact(graph, demands)
        assert result.optimal
        scale = max(1.0, abs(result.objective))
        assert result.objective <= heuristic.objective + 1e-6 * scale
        assert result.objective >= cg.solution.objective - 1e-6 * scale
        assert result.n_accepted >= heuristic.n_accepted


class TestReadingTheChoice:
    """The MIP point is read as the per-demand loop over ``columns_of`` reads it."""

    @pytest.mark.parametrize("seed,tied", [(s, False) for s in range(5)] + [(3, True), (8, True)])
    def test_matches_the_loop_reference(self, seed, tied, monkeypatch):
        # ``tied`` replaces the point with values in {0, 0.5, 1}, so most
        # demands have several columns at their top value.
        seen = []
        solve_integer = RestrictedMaster.solve_integer

        def recording(master, *args):
            res = solve_integer(master, *args)
            if tied:
                res.x = np.random.default_rng(seed).integers(0, 3, len(res.x)) / 2.0
            seen.append((master, res.x))
            return res

        monkeypatch.setattr(RestrictedMaster, "solve_integer", recording)
        got = solve_exact(*gap_suite_instance(seed))
        ((master, x),) = seen
        want, objective = {}, 0.0
        for d in master.demands:
            # max keeps the first of equal values: the rejection column,
            # then the candidates in join order.
            chosen = max(master.columns_of(d.id), key=lambda j: x[j])
            want[d.id] = None if chosen < len(master.demands) else master.column(chosen).path
            objective += master.dummy_penalty if want[d.id] is None else want[d.id].total_delay_ms
        assert dict(got.outcomes) == want
        assert got.objective == objective


class TestLimits:
    def test_node_budget_returns_unproven_incumbent(self):
        graph, demands = gap_suite_instance(2)
        result = solve_exact(graph, demands, ExactLimits(max_nodes=1, time_limit_s=60.0))
        assert result.nodes_explored <= 1
        # the fallback/incumbent is still a feasible assignment
        assert not check_routing_feasible(graph, demands, result.outcomes)

    def test_time_budget_returns_unproven_fallback(self):
        # Cut before HiGHS finds any integer point: the all-rejected
        # fallback is returned, unproven and feasible.
        graph, demands = gap_suite_instance(2)
        result = solve_exact(graph, demands, ExactLimits(time_limit_s=1e-9))
        assert not result.optimal
        assert result.n_accepted == 0
        # The penalty added once per demand in ascending id, not penalty * 23.
        rejected = dict.fromkeys(d.id for d in demands)
        assert result.objective == routing_objective(rejected, dummy_penalty(graph, demands))
        assert not check_routing_feasible(graph, demands, result.outcomes)

    def test_limit_validation(self):
        from cgroute.errors import InputError

        with pytest.raises(InputError):
            ExactLimits(max_nodes=0)
        for bad in (0.0, math.nan, math.inf):
            with pytest.raises(InputError):
                ExactLimits(time_limit_s=bad)
