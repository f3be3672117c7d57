import numpy as np
import pytest

from cgroute.errors import InputError
from cgroute.harness import direct_mode_candidates, run_timeseries
from cgroute.model import (
    Demand,
    LinkMetrics,
    OverlayGraph,
    augment_clique,
)
from cgroute.pricing import (
    EPS_REDUCED_COST,
    enumerate_candidates,
    price_demand,
    price_rejections,
)
from cgroute.rmp import RestrictedMaster, RmpSolution, Routing, _cost_exponent
from cgroute import solver
from cgroute.solver import (
    SolverConfig,
    column_generation,
    randomized_round,
    solve,
)
from cgroute.exact import solve_exact
from cgroute.scenario import (
    SyntheticParams,
    generate_demands,
    generate_telco_trace,
    generate_topology,
    telco_demands,
)

from instances import (
    candidates_of,
    feasibility_instance,
    gap_suite_instance,
    hand_graph,
    pack_table,
    zero_duals,
)
from oracles import check_routing_feasible, highs_optimum, make_path, min_reduced_cost, reference_round

#: Each routing mode's candidate function.
CANDIDATES = {"overlay": enumerate_candidates, "direct": direct_mode_candidates}


class TestConfig:
    def test_rejects_nonpositive_limits(self):
        with pytest.raises(InputError):
            SolverConfig(max_rounding_passes=0)

    def test_rejects_negative_seed(self):
        with pytest.raises(InputError, match="seed must be nonnegative"):
            SolverConfig(seed=-1)


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
            min(p.total_delay_ms for p in candidates_of(augmented, d))
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

    @staticmethod
    def _check_matches_one_shot_full_lp(seed, mode):
        graph, demands = gap_suite_instance(seed)
        augmented = augment_clique(graph, demands)
        candidate_fn = CANDIDATES[mode]
        cg = column_generation(augmented, demands, candidate_fn=candidate_fn)
        assert cg.certified
        table = candidate_fn(augmented, demands)
        full = RestrictedMaster(table)
        full.add(range(len(table)))
        want = highs_optimum(full)[1]
        assert cg.solution.objective == pytest.approx(want, rel=1e-9, abs=1e-6)
        return cg

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_one_shot_full_lp(self, seed):
        self._check_matches_one_shot_full_lp(seed, "overlay")

    @pytest.mark.parametrize("seed", range(10))
    def test_direct_mode_matches_one_shot_full_lp(self, seed):
        self._check_matches_one_shot_full_lp(seed, "direct")

    @pytest.mark.parametrize("seed", range(10))
    def test_incremental_cg_matches_one_shot_full_lp(self, seed, monkeypatch):
        # Gap-suite first pools hold 78-95% of their full masters, so these
        # are solved whole; with a share of 1 required, the pool grows by
        # pricing alone, unless the closed form solves it.
        monkeypatch.setattr(solver, "WHOLE_MASTER_MIN_SHARE", 1.0)
        cg = self._check_matches_one_shot_full_lp(seed, "overlay")
        assert cg.regime in ("closed_form", "incremental")

    def test_congested_instance_calls_highs(self, highs_calls):
        # Gap-suite instance 9's cheapest routes overrun a capacity, so the
        # master needs the LP solver; its first pool (44 columns) is 80% of
        # its full master (55), so that one HiGHS call solves the whole
        # table and the next pricing pass certifies.
        # test_matches_one_shot_full_lp checks the optimum it reaches.
        graph, demands = gap_suite_instance(9)
        cg = column_generation(augment_clique(graph, demands), demands)
        assert cg.certified and cg.iterations == 1 and cg.regime == "whole"
        assert len(highs_calls) == 1
        assert cg.master.pool_size == len(cg.master.table) + len(demands)

    def test_first_pool_just_over_a_sixth_is_solved_whole(self):
        # A 16-node full mesh whose first pool is 160 of 958 columns.
        graph, demands = synthetic_instance(16, 240, 80, seed=1)
        assert first_and_full_columns(graph, demands) == (160, 958)
        cg = column_generation(graph, demands)
        assert cg.certified and cg.regime == "whole"

    def test_first_pool_just_under_a_sixth_grows_by_pricing(self):
        # A 17-node full mesh whose first pool is 78 of 469 columns; the
        # pool it grows reaches the whole master's LP optimum.
        graph, demands = synthetic_instance(17, 272, 40)
        assert first_and_full_columns(graph, demands) == (78, 469)
        cg = column_generation(graph, demands)
        assert cg.certified and cg.regime == "incremental" and cg.iterations > 1
        whole = RestrictedMaster(cg.master.table)
        whole.add(range(len(whole.table)))
        want = highs_optimum(whole)[1]
        assert cg.solution.objective == pytest.approx(want, rel=1e-9, abs=1e-6)

    def test_first_pool_at_the_share_is_solved_whole(self, monkeypatch):
        # The rule is >=: a first pool of exactly the set share joins the table.
        graph, demands = synthetic_instance(17, 272, 40)
        monkeypatch.setattr(solver, "WHOLE_MASTER_MIN_SHARE", 78 / 469)
        assert column_generation(graph, demands).regime == "whole"

    def test_dense_lp_size_is_solved_whole(self, highs_calls, monkeypatch):
        # A dense-lp benchmark instance: its first pool is 64-68% of its
        # full master (13,610 columns), so one HiGHS call solves the whole
        # master; growing the pool by pricing instead (a share of 1
        # required) reaches the same LP optimum.
        graph, demands = dense_lp_instance()
        whole = column_generation(graph, demands)
        assert whole.certified and whole.iterations == 1 and whole.regime == "whole"
        assert len(highs_calls) == 1
        assert whole.master.pool_size == len(whole.master.table) + len(demands)
        monkeypatch.setattr(solver, "WHOLE_MASTER_MIN_SHARE", 1.0)
        grown = column_generation(graph, demands)
        assert grown.certified and grown.iterations > 1 and grown.regime == "incremental"
        assert whole.solution.objective == pytest.approx(grown.solution.objective, rel=1e-9)

    def test_uncongested_telco_epoch_skips_highs(self, highs_calls):
        # Every demand's cheapest route fits: the first pricing pass adds
        # them, the closed form solves that pool, and so certifies it.
        trace = generate_telco_trace(1, seed=3)
        graph, demands = trace.graph_for(trace.epochs[0]), telco_demands(seed=3)
        routed = solve(graph, demands)
        assert highs_calls == []
        assert routed.certified
        assert routed.iterations == 1

    @pytest.mark.parametrize("case", ["closed_form", "whole", "incremental"])
    def test_one_master_solve_per_pricing_pass(self, case, monkeypatch):
        # The benchmark's trace counts both (rmp.lp_solves and
        # solver.cg_iterations) and requires them equal on a congested solve:
        # one HiGHS solve after each pass that adds columns, the first pass
        # included. A closed-form master is the one iteration, with no solve.
        if case == "closed_form":  # every cheapest route fits: no HiGHS
            trace = generate_telco_trace(1, seed=3)
            graph, demands = trace.graph_for(trace.epochs[0]), telco_demands(seed=3)
        elif case == "whole":  # gap-suite instance 9: a sparse graph
            graph, demands = gap_suite_instance(9)
        else:  # a full mesh, whose first pool is under a sixth of its master
            graph, demands = synthetic_instance(17, 272, 40)
        solves = []
        plain = RestrictedMaster.solve

        def counting(master, *args, **kwargs):
            solves.append(master)
            return plain(master, *args, **kwargs)

        monkeypatch.setattr(RestrictedMaster, "solve", counting)
        priced = []
        monkeypatch.setattr(
            solver, "price_demand", lambda *args: priced.append(args) or price_demand(*args)
        )
        cg = column_generation(augment_clique(graph, demands), demands)
        assert cg.certified and cg.regime == case
        assert len(solves) == (0 if case == "closed_form" else cg.iterations)
        assert cg.iterations == 1 if case != "incremental" else cg.iterations > 1
        # The first pass reads the table, and the certifying pass prices
        # unless the master is closed-form.
        assert len(priced) == cg.iterations - (1 if case == "closed_form" else 0)

    def test_first_pass_is_pricing_at_the_rejection_duals(self, monkeypatch):
        # Three demands whose cheapest routes tie: 0 -> 3 direct, through 1
        # and through 2 (20 ms each); 0 -> 2 direct and through 1 (12 ms);
        # 1 -> 3 direct and through 2 (11 ms). The first pass must add what
        # price_demand returns at the all-rejection master's duals: on a tie,
        # the first candidate in list order, here each direct route. Those
        # routes fit, so the closed form solves that pool and certifies it,
        # even at an iteration cap of one.
        monkeypatch.setattr(solver, "MAX_CG_ITERATIONS", 1)
        delays = {(0, 3): 20.0, (0, 1): 9.0, (1, 3): 11.0, (0, 2): 12.0, (2, 3): 8.0, (1, 2): 3.0}
        g = OverlayGraph.from_edges(
            4, {e: LinkMetrics(d, 1.0, 100.0, 0.999) for e, d in delays.items()}, [1000.0] * 4
        )
        demands = [Demand(0, 0, 3, 5.0, 50.0, 0.9), Demand(1, 0, 2, 5.0, 50.0, 0.9),
                   Demand(2, 1, 3, 5.0, 50.0, 0.9), Demand(3, 2, 0, 5.0, 50.0, 0.9)]
        augmented = augment_clique(g, demands)
        table = enumerate_candidates(augmented, demands)
        master = RestrictedMaster(table)
        priced = price_demand(table, master.closed_form().duals)
        want = [index for index, _ in priced.values()]
        assert want == table.offsets[:3].tolist()  # demand 3 has no route
        assert np.diff(table.offsets).tolist() == [3, 2, 2, 0]
        tied = [len(set(table.delay[a:b].tolist())) for a, b in zip(want, table.offsets[1:])]
        assert tied == [1, 1, 1]
        assert price_rejections(table, master.dummy_penalty).tolist() == want
        first = column_generation(augmented, demands)
        assert first.master.joined.tolist() == want
        assert first.iterations == 1 and first.certified

    @pytest.mark.parametrize("seed", range(10))
    def test_first_pass_matches_pricing_on_gap_suite(self, seed):
        graph, demands = gap_suite_instance(seed)
        augmented = augment_clique(graph, demands)
        for mode in ("overlay", "direct"):
            table = CANDIDATES[mode](augmented, demands)
            master = RestrictedMaster(table)
            priced = price_demand(table, master.closed_form().duals)
            want = [index for index, _ in priced.values()]
            assert price_rejections(table, master.dummy_penalty).tolist() == want

    @pytest.mark.parametrize("seed", range(10))
    def test_termination_certificate(self, seed):
        graph, demands = gap_suite_instance(seed)
        augmented = augment_clique(graph, demands)
        cg = column_generation(augmented, demands)
        assert cg.certified
        table = enumerate_candidates(augmented, demands)
        assert price_demand(table, cg.solution.duals) == {}

    def test_iteration_cap_flags_uncertified(self, monkeypatch):
        monkeypatch.setattr(solver, "MAX_CG_ITERATIONS", 1)
        graph, demands = gap_suite_instance(0)
        cg = column_generation(augment_clique(graph, demands), demands)
        assert cg.iterations == 1
        assert not cg.certified  # one pass cannot both add columns and verify

    def test_closed_form_certifies_at_an_iteration_cap_of_one(self, highs_calls, monkeypatch):
        # The closed form proves the first pool optimal with no LP; it is
        # the one iteration, so the cap cannot stop it short of certifying.
        monkeypatch.setattr(solver, "MAX_CG_ITERATIONS", 1)
        trace = generate_telco_trace(1, seed=3)
        graph, demands = trace.graph_for(trace.epochs[0]), telco_demands(seed=3)
        cg = column_generation(augment_clique(graph, demands), demands)
        assert highs_calls == []
        assert cg.iterations == 1 and cg.certified and cg.regime == "closed_form"


def synthetic_instance(n_nodes, n_edges, n_demands, seed=0):
    """A synthetic-profile instance of the given size."""
    params = SyntheticParams(n_nodes=n_nodes, n_edges=n_edges, n_demands=n_demands, seed=seed)
    graph = generate_topology(params)
    return graph, generate_demands(params, graph)


def first_and_full_columns(graph, demands):
    """The first pool's columns and the full master's, as column generation sees them."""
    table = enumerate_candidates(augment_clique(graph, demands), demands)
    master = RestrictedMaster(table)
    master.add(price_rejections(table, master.dummy_penalty))
    return master.pool_size, len(table) + len(demands)


class TestClosedFormOnlyOnTheFirstPool:
    """No pool after the first pass's is one the closed form solves.

    The first pass gives every routable demand its cheapest candidate, so a
    column that joins later, by pricing or by a whole-table join, is its
    demand's second. Column generation relies on this to try the closed
    form once and to join the whole table once.
    """

    @pytest.fixture
    def adds(self, monkeypatch):
        """Every ``RestrictedMaster.add``: the count it added and the closed form after it."""
        plain = RestrictedMaster.add
        calls = []

        def add(master, candidates):
            added = plain(master, candidates)
            calls.append((added, master.closed_form()))
            return added

        monkeypatch.setattr(RestrictedMaster, "add", add)
        return calls

    def test_after_every_pricing_pass_on_gap_suite(self, adds, monkeypatch):
        # Gap-suite masters are solved whole; requiring a share of 1 grows
        # them by pricing.
        monkeypatch.setattr(solver, "WHOLE_MASTER_MIN_SHARE", 1.0)
        grown = 0
        for seed in range(10):
            graph, demands = gap_suite_instance(seed)
            adds.clear()
            cg = column_generation(augment_clique(graph, demands), demands)
            assert cg.regime != "whole", seed
            _, *later = adds
            assert all(closed is None for _, closed in later), seed
            grown += sum(added > 0 for added, _ in later)
        assert grown > 0

    @pytest.mark.parametrize("growth", ["whole", "incremental"])
    def test_after_the_join_and_every_pass_on_a_dense_overlay(self, adds, monkeypatch, growth):
        # A full mesh on 100 nodes: its first pool overruns a capacity, and
        # holds 2.8% of its full master (21,423 columns), so it grows by
        # pricing; a share of 0 required joins the whole table instead.
        graph, demands = synthetic_instance(100, 9900, 300)
        if growth == "whole":
            monkeypatch.setattr(solver, "WHOLE_MASTER_MIN_SHARE", 0.0)
        cg = column_generation(augment_clique(graph, demands), demands)
        assert cg.regime == growth
        (first, _), *later = adds
        assert later and all(closed is None for _, closed in later)
        if growth == "whole":  # the join takes in every candidate the first pass did not
            assert later[0][0] == len(cg.master.table) - first


class TestConditioning:
    """Masters whose rejection penalty dwarfs every delay solve and certify.

    Their costs reach HiGHS scaled by a power of two; unscaled, dual
    simplex fails on both with ``numerical``. HiGHS's dual tolerance then
    acts on scaled costs, so the final duals are re-priced over the whole
    table, independently of pricing, at pricing's threshold.
    """

    @staticmethod
    def _check_certified(graph, demands, exponent):
        cg = column_generation(graph, demands)
        assert _cost_exponent(cg.master.dummy_penalty) == exponent
        assert cg.certified
        whole = RestrictedMaster(cg.master.table)
        whole.add(range(len(whole.table)))
        assert min_reduced_cost(whole, cg.solution.duals) >= -EPS_REDUCED_COST
        return cg

    def test_20k_demands(self):
        # 46,353 columns in full, 71% of them in the first pool: solved whole.
        graph, demands = synthetic_instance(100, 1200, 20000)
        cg = self._check_certified(graph, demands, -8)
        assert cg.regime == "whole"

    def test_incremental_cg_at_8k_demands(self, monkeypatch):
        # A sparse master, solved whole by the rule; requiring a share of 1
        # grows its pool by pricing.
        monkeypatch.setattr(solver, "WHOLE_MASTER_MIN_SHARE", 1.0)
        graph, demands = synthetic_instance(300, 6000, 8000)
        cg = self._check_certified(graph, demands, -7)
        assert cg.regime == "incremental" and cg.iterations > 2


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
    table = pack_table(
        augmented, [d], {d.id: [make_path(augmented, d), make_path(augmented, d, relay=1)]}
    )
    master = RestrictedMaster(table)
    master.add([0, 1])
    direct, dogleg = master.columns_of(d.id)[1:]
    values = [0.0] * master.pool_size
    values[direct] = 0.5
    values[dogleg] = 0.5
    fake = RmpSolution(
        values=tuple(values),
        objective=0.5 * 20.0 + 0.5 * 20.0,
        duals=zero_duals(augmented, [d]),
    )
    return augmented, d, master, fake, direct, dogleg


class CountingRng:
    """A seeded Generator that counts ``choice`` calls."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.draws = 0

    def choice(self, *args, **kwargs):
        self.draws += 1
        return self._rng.choice(*args, **kwargs)


def dense_lp_instance():
    """A congested instance of the dense-LP benchmark size: 50 nodes, 450 edges, 5000 demands."""
    return synthetic_instance(50, 450, 5000, seed=201)


class TestRandomizedRound:
    @pytest.mark.parametrize("instance", [*(f"gap-{s}" for s in range(20)), "dense-lp"])
    def test_matches_reference_round(self, instance):
        if instance == "dense-lp":
            graph, demands = dense_lp_instance()
        else:
            graph, demands = gap_suite_instance(int(instance[len("gap-") :]))
        cg = column_generation(graph, demands)
        for seed, passes in ((0, None), (1, None), (2, 1)):
            got_rng, want_rng = CountingRng(seed), CountingRng(seed)
            got = randomized_round(cg.solution, cg.master, graph, demands, got_rng, passes)
            want, want_objective = reference_round(
                cg.solution, cg.master, graph, demands, want_rng, passes
            )
            assert got.objective == want_objective
            assert list(got.outcomes.items()) == list(want.items())
            assert got_rng.draws == want_rng.draws
        if instance == "dense-lp":
            assert want_rng.draws > 0  # congested: some demands stay fractional

    def test_tied_top_weights_commit_the_first_pool_column(self):
        # Two columns of one demand at weight 1 (no LP returns this): the
        # integral-first commit takes the lower pool index, as the
        # reference does, and draws nothing.
        augmented, d, master, fake, direct, dogleg = make_split_state()
        values = list(fake.values)
        values[direct] = values[dogleg] = 1.0
        tied = RmpSolution(values=tuple(values), objective=0.0, duals=fake.duals)
        got_rng, want_rng = CountingRng(0), CountingRng(0)
        got = randomized_round(tied, master, augmented, [d], got_rng)
        want, _ = reference_round(tied, master, augmented, [d], want_rng)
        assert got.outcomes[d.id] == want[d.id] == master.columns[direct].path
        assert got_rng.draws == want_rng.draws == 0

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

    @staticmethod
    def _check_capacity_guard(shared_edge_mbps, direct_edge_mbps, relay_limit_mbps):
        # Two demands of 10 Mbps, each split across the direct edge (0,2)
        # and the dogleg through relay 1, whose edge (0,1) and node 1 are
        # the shared resources.
        g = OverlayGraph.from_edges(
            3,
            {
                (0, 1): LinkMetrics(5.0, 1.0, shared_edge_mbps, 0.999),
                (1, 2): LinkMetrics(5.0, 1.0, 100.0, 0.999),
                (0, 2): LinkMetrics(40.0, 1.0, direct_edge_mbps, 0.999),
            },
            [1000.0, relay_limit_mbps, 1000.0],
        )
        demands = [
            Demand(0, 0, 2, 10.0, 50.0, 0.9),
            Demand(1, 0, 2, 10.0, 50.0, 0.9),
        ]
        augmented = augment_clique(g, demands)
        routes = {
            d.id: [make_path(augmented, d), make_path(augmented, d, relay=1)] for d in demands
        }
        master = RestrictedMaster(pack_table(augmented, demands, routes))
        master.add(range(4))
        values = [0.0] * master.pool_size
        for d in master.demands:
            for cid in master.columns_of(d.id)[1:]:
                values[cid] = 0.5
        fake = RmpSolution(
            values=tuple(values),
            objective=0.0,
            duals=zero_duals(augmented, master.demands),
        )
        doglegs = 0
        for trial in range(300):
            routed = randomized_round(
                fake, master, augmented, master.demands, np.random.default_rng(trial)
            )
            assert not check_routing_feasible(augmented, master.demands, routed.outcomes)
            doglegs += sum(p is not None and len(p.edges) == 2 for p in routed.outcomes.values())
        assert doglegs > 0

    def test_capacity_guard_never_double_books(self):
        # Each route fits one demand: edges (0,1) and (0,2) bind, nodes have room.
        self._check_capacity_guard(10.0, 10.0, 1000.0)

    def test_capacity_guard_on_the_relay_node(self):
        # Only relay 1's processing limit binds; every edge has room for both.
        # Edge row 1 is the roomy (0,2), so reading node 1's limit from row 1
        # instead of n_edges + 1 would let both demands through the relay.
        self._check_capacity_guard(100.0, 100.0, 10.0)

    def test_pure_dummy_mass_is_rejected(self):
        g = hand_graph()
        d = Demand(0, 0, 3, 5.0, 1.0, 0.5)
        augmented = augment_clique(g, [d])
        master = RestrictedMaster(pack_table(augmented, [d], {d.id: []}))
        sol = master.closed_form()
        routed = randomized_round(
            sol, master, augmented, [d], np.random.default_rng(0)
        )
        assert routed.outcomes[0] is None
        assert routed.objective == pytest.approx(master.dummy_penalty)


class TestSolve:
    def test_empty_demands(self):
        g = hand_graph()
        routed = solve(g, [])
        assert isinstance(routed.outcomes, Routing)
        assert routed.outcomes == {}
        assert routed.n_accepted == 0
        assert routed.objective == 0.0
        assert routed.certified

    def test_demand_outside_graph_rejected(self):
        g = hand_graph()
        demands = [Demand(0, 0, 1, 5.0, 1e6, 0.5), Demand(3, 1, 7, 5.0, 1e6, 0.5)]
        with pytest.raises(InputError, match="demand 3"):
            solve(g, demands)

    @pytest.mark.parametrize("seed", range(4))
    def test_closed_form_master_is_read_out_as_rounding_commits_it(self, seed, monkeypatch):
        # On a closed-form master every weight is 0 or 1 and the routes fit
        # together, so rounding would commit each demand's one column.
        trace, demands = generate_telco_trace(4, seed=seed), telco_demands(seed=seed)
        rounded = []
        plain = solver.randomized_round
        monkeypatch.setattr(
            solver, "randomized_round", lambda *args: rounded.append(args) or plain(*args)
        )
        closed = 0
        for epoch in trace.epochs:
            graph = trace.graph_for(epoch)
            routed = solve(graph, demands)
            cg = column_generation(graph, demands)
            assert len(rounded) == (cg.regime != "closed_form")
            rounded.clear()
            rng = np.random.default_rng(0)
            want = plain(cg.solution, cg.master, graph, demands, rng)
            assert routed.outcomes == want.outcomes and routed.objective == want.objective
            closed += cg.regime == "closed_form"
        assert closed > 0

    @pytest.mark.parametrize("seed", range(6))
    def test_objective_recomputes_from_outcomes(self, seed):
        graph, demands = feasibility_instance(seed)
        routed = solve(graph, demands, SolverConfig(seed=seed))
        from cgroute.model import dummy_penalty

        penalty = dummy_penalty(graph, demands)
        recomputed = sum(
            p.total_delay_ms if p is not None else penalty
            for p in routed.outcomes.values()
        )
        assert routed.objective == pytest.approx(recomputed, rel=1e-12)

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
        from cgroute.model import dummy_penalty

        penalty = dummy_penalty(graph, demands)
        max_route_delay = 2 * max(m.delay_ms for m in graph.edges.values())
        assert penalty > len(demands) * max_route_delay


class TestObjectBudget:
    @staticmethod
    def count_made(monkeypatch):
        """Counters of paths made (through ``CandidateTable.paths``, which
        ``CandidateTable.path`` calls too), of ``paths`` calls and of dummy paths."""
        import cgroute.pricing as pricing
        import cgroute.rmp as rmp

        made = {"path": 0, "batch": 0, "dummy": 0}

        def counting(kind, make):
            def counted(*args, **kwargs):
                made[kind] += 1
                return make(*args, **kwargs)

            return counted

        monkeypatch.setattr(pricing, "Path", counting("path", pricing.Path))
        monkeypatch.setattr(
            pricing.CandidateTable, "paths", counting("batch", pricing.CandidateTable.paths)
        )
        monkeypatch.setattr(rmp, "make_dummy_path", counting("dummy", rmp.make_dummy_path))
        return made

    def test_paths_only_for_committed_routes(self, monkeypatch):
        # Candidates stay table rows, and a routing makes its paths only
        # when one is read: solve makes none, and the first read of the
        # outcomes makes one per accepted demand, in one batch.
        params = SyntheticParams(n_nodes=200, n_edges=3000, n_demands=3000, seed=0)
        graph = generate_topology(params)
        demands = generate_demands(params, graph)
        made = self.count_made(monkeypatch)
        routed = solve(graph, demands)
        assert made == {"path": 0, "batch": 0, "dummy": 0}
        assert 0 < routed.n_accepted < len(demands)
        first = routed.outcomes[demands[0].id]
        assert made == {"path": routed.n_accepted, "batch": 1, "dummy": 0}
        assert sum(p is not None for p in routed.outcomes.values()) == routed.n_accepted
        assert routed.outcomes[demands[0].id] is first
        assert made == {"path": routed.n_accepted, "batch": 1, "dummy": 0}

    def test_replay_without_throughput_makes_no_path(self, monkeypatch):
        trace = generate_telco_trace(3, seed=1)
        demands = telco_demands(seed=1)
        made = self.count_made(monkeypatch)
        reports = run_timeseries(trace, demands)
        assert sum(r.n_accepted for r in reports) > 0
        assert made == {"path": 0, "batch": 0, "dummy": 0}
