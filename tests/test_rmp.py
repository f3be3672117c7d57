import json
import math
import operator
import os
import subprocess
import sys
import textwrap
from pathlib import Path as FsPath

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import sparse

from cgroute import rmp
from cgroute.errors import ContractError, InputError, SolverError
from cgroute.exact import solve_exact
from cgroute.harness import direct_mode_candidates
from cgroute.model import Demand, LinkMetrics, OverlayGraph, dummy_penalty
from cgroute.pricing import enumerate_candidates, price_demand
from cgroute.rmp import RestrictedMaster
from cgroute.scenario import generate_telco_trace, telco_demands
from cgroute.solver import solve

from instances import candidate_lists, candidates_of, gap_suite_instance, pack_table, scaled_cost_instance
from oracles import (
    dual_objective,
    highs_optimum,
    highs_result,
    master_model,
    make_path,
    milp_result,
    min_reduced_cost,
    ordered_total,
    routing_objective,
    scalar_first_best,
)


def master_for(graph, demands, candidates=None):
    """A master over ``candidates`` (default: all enumerated), none joined yet."""
    if candidates is None:
        return RestrictedMaster(enumerate_candidates(graph, demands))
    return RestrictedMaster(pack_table(graph, demands, candidates))


def full_master(seed):
    """Gap-suite instance ``seed``'s full master; ``"scaled"`` is the scaled-cost instance's."""
    graph, demands = scaled_cost_instance() if seed == "scaled" else gap_suite_instance(seed)
    master = master_for(graph, demands)
    master.add(range(len(master.table)))
    return master


class TestBuildInitial:
    """A fresh master holds one dummy column per demand."""

    def test_one_dummy_per_demand(self, line_graph, two_demands):
        master = master_for(line_graph, two_demands)
        assert master.pool_size == 2
        assert all(c.is_dummy for c in master.columns)
        sol = master.solve()
        assert sol.objective == pytest.approx(2 * master.dummy_penalty)

    def test_telco_sized_pool(self):
        trace = generate_telco_trace(1, seed=3)
        demands = telco_demands(seed=3)
        master = master_for(trace.graph_for(trace.epochs[0]), demands)
        assert master.pool_size == 82

    def test_empty_demands_rejected(self, line_graph, two_demands):
        with pytest.raises(InputError):
            master_for(line_graph, [])


class TestAddColumn:
    def test_new_column_grows_pool(self, line_graph, two_demands):
        master = master_for(line_graph, two_demands)
        d = master.demands[0]
        first = int(master.table.offsets[0])  # d's first candidate
        before = master.pool_size
        assert master.add([first]) == 1
        assert master.pool_size == before + 1
        assert master.columns_of(d.id)[-1] == before

    def test_duplicate_is_noop(self, line_graph, two_demands):
        master = master_for(line_graph, two_demands)
        first = int(master.table.offsets[0])
        assert master.add([first]) == 1
        assert master.add([first]) == 0
        assert master.add([first, first]) == 0
        assert master.pool_size == 3

    def test_columns_view_follows_the_pool(self, line_graph, two_demands):
        master = master_for(line_graph, two_demands)
        first = master.columns
        assert master.columns is first  # repeated access copies nothing
        d = master.demands[0]
        p = candidates_of(line_graph, d)[0]
        master.add([int(master.table.offsets[0])])
        assert len(master.columns) == 3
        assert master.columns[master.columns_of(d.id)[-1]].path == p

    def test_index_outside_table_rejected(self, line_graph, two_demands):
        master = master_for(line_graph, two_demands)
        for bad in (-1, len(master.table)):
            with pytest.raises(ContractError):
                master.add([bad])
        assert master.pool_size == 2

    def test_candidates_join_once_in_the_order_given(self):
        master = master_for(*gap_suite_instance(0))
        n_dummy = master.pool_size
        assert master.add([5, 3, 5, 1, 3]) == 3
        assert master.add(i for i in (1, 7, 3)) == 1
        assert master.joined.tolist() == [5, 3, 1, 7]
        assert master.columns_of(master.demands[master.table.demand[7]].id)[-1] == n_dummy + 3

    def test_index_outside_table_adds_nothing(self):
        master = master_for(*gap_suite_instance(0))
        with pytest.raises(ContractError, match=f"no candidate {len(master.table)} in"):
            master.add([0, 1, len(master.table), 2])
        assert len(master.joined) == 0


class TestSolve:
    def test_dummies_only_vertex(self, line_graph, two_demands):
        master = master_for(line_graph, two_demands)
        sol = master.solve()
        assert all(v == pytest.approx(1.0) for v in sol.values)
        assert all(v == 0.0 for v in sol.duals.capacity)
        for sigma in sol.duals.convexity:
            assert sigma == pytest.approx(master.dummy_penalty)

    def test_single_cheap_column_takes_over(self, line_graph):
        d = Demand(0, 0, 1, 20.0, 100.0, 0.9)
        p = make_path(line_graph, d)
        master = master_for(line_graph, [d], {d.id: [p]})
        master.add([0])
        sol = master.solve()
        assert sol.values[1] == pytest.approx(1.0)
        assert sol.objective == pytest.approx(p.total_delay_ms)

    def test_two_demands_competing_for_one_edge(self):
        # Both demands want the only real edge (delay 12, capacity 40) at
        # rate 40: the LP routes exactly one unit of mass on the edge and
        # parks the other demand on its dummy. Hand-derived optimum:
        # penalty (2*2*12+1)*10 = 490, objective = 12 + 490 = 502.
        g = OverlayGraph.from_edges(
            2, {(0, 1): LinkMetrics(12.0, 0.0, 40.0, 1.0)}, [10000.0, 10000.0]
        )
        demands = [Demand(0, 0, 1, 40.0, 10.0, 0.5), Demand(1, 0, 1, 40.0, 10.0, 0.5)]
        master = master_for(g, demands, {d.id: [make_path(g, d)] for d in demands})
        master.add(range(2))
        sol = master.solve()
        assert master.dummy_penalty == 490.0
        assert sol.objective == pytest.approx(502.0, rel=1e-9)
        routed_mass = sol.values[2] + sol.values[3]
        assert routed_mass == pytest.approx(1.0, abs=1e-9)


def direct_call_args(master, highs_calls):
    """The one HiGHS call ``master.solve()`` makes, as ``(args, kwargs)``."""
    master.solve()
    (call,) = highs_calls
    return call


class TestHighsCall:
    """The direct HiGHS call solves the model ``linprog`` solves, to the same point."""

    @pytest.mark.parametrize("seed", [*range(10), "scaled"])
    def test_matches_linprog(self, seed, highs_calls):
        # Both sides get the costs times the same power of two: 1 on the
        # gap suite, 2**-3 on the scaled-cost instance.
        master = full_master(seed)
        args, kwargs = direct_call_args(master, highs_calls)
        exponent = rmp._cost_exponent(master.dummy_penalty)
        assert exponent == (-3 if seed == "scaled" else 0)
        np.testing.assert_array_equal(args[0], np.ldexp(master._assemble()[0], exponent))
        got, want = rmp._call_highs(*args, **kwargs), highs_result(master, exponent)
        assert got.status == "optimal" and got.objective == want.fun
        np.testing.assert_array_equal(got.x, want.x)
        m = len(master.capacity)
        np.testing.assert_array_equal(got.row_dual[:m], want.ineqlin.marginals)
        np.testing.assert_array_equal(got.row_dual[m:], want.eqlin.marginals)

    @pytest.mark.parametrize(
        "option", [{"no_such_option": 1}, {"primal_feasibility_tolerance": "tight"}]
    )
    def test_rejected_option_raises(self, option, highs_calls):
        args, kwargs = direct_call_args(full_master(9), highs_calls)
        kwargs["options"] = {**kwargs["options"], **option}
        with pytest.raises(ContractError, match="HiGHS rejected option"):
            rmp._call_highs(*args, **kwargs)

    @pytest.mark.parametrize("over_tol", [False, True])
    def test_capacity_violation_over_tol_is_numerical(self, over_tol, monkeypatch):
        # Shift one column so that one row's residual grows by 2 * tol or
        # by tol / 2. First a column on the tightest capacity row: its
        # convexity row moves by less than tol either way. Then a convexity
        # row from each side: up on demand 0's rejection column, which
        # loads that row alone, and down on the column with the most weight,
        # which only unloads its capacity rows.
        feasible, tol = rmp._feasible, rmp._CHECK_TOL
        step = (2.0 if over_tol else 0.5) * tol

        def on_capacity(master, a, upper, x):
            n_rows, (indptr, indices, data) = len(master.capacity), a
            by_column = sparse.csc_array((data, indices, indptr), shape=(len(upper), len(x)))
            by_row = sparse.csr_array(by_column)
            slack = upper[:n_rows] - (by_row @ x)[:n_rows]
            row = int(np.argmin(slack))
            assert slack[row] < 1e-9  # the master is congested: a row binds
            j, rate = by_row.indices[by_row.indptr[row]], by_row.data[by_row.indptr[row]]
            assert rate > 4.0
            return j, step / rate

        def up_on_convexity(master, a, upper, x):
            indptr, indices, _ = a
            assert indptr[1] == 1 and indices[0] == len(master.capacity)
            return 0, step

        def down_on_convexity(master, a, upper, x):
            return int(np.argmax(x)), -step

        for shift in (on_capacity, up_on_convexity, down_on_convexity):
            master = full_master(9)

            def shifted(a, lower, upper, x, objective):
                j, dx = shift(master, a, upper, x)
                x = x.copy()
                x[j] += dx
                return feasible(a, lower, upper, x, objective)

            monkeypatch.setattr(rmp, "_feasible", shifted)
            if over_tol:
                match = "returned 'numerical'.*tolerance of 3.16E-04"
                with pytest.raises(SolverError, match=match):
                    master.solve()
            else:
                master.solve()  # within tol: accepted


def shuffled_master(seed):
    """Gap-suite instance ``seed``'s master with half its table joined in shuffled order."""
    master = master_for(*gap_suite_instance(seed))
    order = np.random.default_rng(seed).permutation(len(master.table))
    master.add(order[: len(order) // 2].tolist())
    return master


def direct_master(seed):
    """Gap-suite instance ``seed``'s full master over direct paths only."""
    graph, demands = gap_suite_instance(seed)
    master = RestrictedMaster(direct_mode_candidates(graph, demands))
    master.add(range(len(master.table)))
    return master


def master_with_a_bare_demand(seed):
    """Gap-suite instance ``seed``'s full master, its first demand without candidates."""
    graph, demands = gap_suite_instance(seed)
    candidates = candidate_lists(enumerate_candidates(graph, demands))
    assert candidates[demands[0].id]
    candidates[demands[0].id] = []
    master = master_for(graph, demands, candidates)
    master.add(range(len(master.table)))
    return master


def rejections_only(seed):
    """Gap-suite instance ``seed``'s first master: one rejection column per demand."""
    return master_for(*gap_suite_instance(seed))


class TestAssembly:
    """``_assemble`` builds the oracle's ``[A_ub; A_eq]``, entry for entry."""

    @pytest.mark.parametrize(
        "build, seed",
        [
            *((full_master, seed) for seed in [*range(10), "scaled"]),
            *((shuffled_master, seed) for seed in range(5)),
            *((direct_master, seed) for seed in range(5)),
            *((master_with_a_bare_demand, seed) for seed in range(3)),
            (rejections_only, 0),
        ],
        ids=lambda v: getattr(v, "__name__", str(v)),
    )
    def test_matches_the_oracle(self, build, seed):
        master = build(seed)
        cost, (indptr, indices, data) = master._assemble()
        want_cost, a_ub, b_ub, a_eq = master_model(master)
        want = sparse.csc_array(sparse.vstack((a_ub, a_eq)))
        np.testing.assert_array_equal(cost, want_cost)
        np.testing.assert_array_equal(master.capacity, b_ub)
        for got, expected in ((indptr, want.indptr), (indices, want.indices), (data, want.data)):
            np.testing.assert_array_equal(got, expected)
        # The dtypes the master has always handed HiGHS.
        assert indptr.dtype == indices.dtype == np.int32 and data.dtype == np.float64

    def test_direct_table_has_pad_rows(self):
        # The direct-mode cases above drop a pad row from every candidate.
        master = direct_master(0)
        assert (master.table.rows[:, 1] == len(master.capacity)).all()

    def test_capacity_is_read_only(self, line_graph, two_demands):
        master = master_for(line_graph, two_demands)
        with pytest.raises(ValueError):
            master.capacity[0] = 0.0


class TestFirstLeast:
    """The one segmented argmin, shared by pricing and ``top_columns``."""

    # Few distinct values, so most segments tie; -0.0 and 0.0 tie too.
    @given(
        st.lists(
            st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0]), min_size=1, max_size=6),
            min_size=1,
            max_size=20,
        )
    )
    def test_matches_a_scalar_loop(self, segments):
        values = [v for segment in segments for v in segment]
        counts = [len(segment) for segment in segments]
        x = np.array(values)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        got = rmp.first_least(x, starts, np.array(counts))
        assert got.tolist() == scalar_first_best(values, counts, operator.lt)
        # top_columns passes -x for each segment's first largest x.
        got = rmp.first_least(-x, starts, np.array(counts))
        assert got.tolist() == scalar_first_best(values, counts, operator.gt)


class TestCostScaling:
    """HiGHS gets the costs times ``2**s``; callers see delay units."""

    @given(st.floats(min_value=1.0, max_value=1e6))
    def test_no_scaling_up_to_a_penalty_of_1e6(self, penalty):
        assert rmp._cost_exponent(penalty) == 0

    @given(st.floats(min_value=1e6, max_value=1e15, exclude_min=True))
    def test_larger_penalties_land_at_or_under_1e6(self, penalty):
        exponent = rmp._cost_exponent(penalty)
        assert exponent < 0
        assert 5e5 < math.ldexp(penalty, exponent) <= 1e6 * (1 + 1e-15)

    def test_gap_suite_and_telco_are_unscaled(self):
        # Penalties reach 2.9e5 on the gap suite and 3.3e5 on telco traces
        # 0-9: HiGHS sees their unscaled LP, so their reports cannot move.
        penalties = [dummy_penalty(*gap_suite_instance(seed)) for seed in range(50)]
        for seed in range(10):
            trace, demands = generate_telco_trace(4, seed=seed), telco_demands(seed=seed)
            penalties += [dummy_penalty(trace.graph_for(e), demands) for e in trace.epochs]
        assert {rmp._cost_exponent(p) for p in penalties} == {0}

    def test_solution_is_scaled_back(self):
        master = full_master("scaled")
        sol = master.solve()
        scaled = highs_result(master, -3)
        assert sol.objective == math.ldexp(scaled.fun, 3)
        np.testing.assert_array_equal(sol.duals.convexity, np.ldexp(scaled.eqlin.marginals, 3))
        price = np.ldexp(-scaled.ineqlin.marginals, 3)
        np.testing.assert_array_equal(sol.duals.capacity, np.where(price > 0.0, price, 0.0))
        # The scaled LP has the unscaled LP's optimum.
        assert sol.objective == pytest.approx(highs_result(master).fun, rel=1e-12)

    def test_integer_solve_sees_the_scaled_costs(self, monkeypatch):
        master = full_master("scaled")
        seen = []

        def recording(c, *args, **kwargs):
            seen.append(c)
            return call(c, *args, **kwargs)

        call = rmp._call_highs
        monkeypatch.setattr(rmp, "_call_highs", recording)
        # One node proves nothing here, but leaves an incumbent and a bound.
        res = master.solve_integer(time_limit_s=30.0, node_limit=1)
        cost = master._assemble()[0]
        (c,) = seen
        np.testing.assert_array_equal(c, np.ldexp(cost, -3))
        assert res.status == "node_limit"
        assert res.objective == pytest.approx(float(cost @ res.x), rel=1e-12)
        assert master.solve().objective * (1 - 1e-9) <= res.dual_bound <= res.objective


def integer_master(seed):
    """:func:`full_master`, but ``"scaled"`` holds every fourth candidate only.

    The scaled-cost instance's full 0/1 program is still unproven after
    20 s; on this pool HiGHS proves the optimum in under a second.
    """
    if seed != "scaled":
        return full_master(seed)
    master = master_for(*scaled_cost_instance())
    master.add(range(0, len(master.table), 4))
    return master


def solve_integer(master):
    return master.solve_integer(time_limit_s=60.0, node_limit=1_000_000)


class FakeBinding:
    """SciPy's HiGHS binding, with a HiGHS that rejects the ``rejected`` options.

    With ``failing_run`` its ``run`` returns ``kError`` without solving.
    Every HiGHS object it makes is kept in ``made``.
    """

    def __init__(self, rejected=(), failing_run=False):
        self.real, self.rejected, self.made = rmp._highs, set(rejected), []
        self.failing_run = failing_run

    def __getattr__(self, name):
        return getattr(self.real, name)

    def _Highs(self):
        highs = FakeHighs(self.real._Highs(), self)
        self.made.append(highs)
        return highs


class FakeHighs:
    def __init__(self, highs, binding):
        self.highs, self.binding = highs, binding

    def __getattr__(self, name):
        return getattr(self.highs, name)

    def setOptionValue(self, name, value):
        if name in self.binding.rejected:
            return self.binding.real.HighsStatus.kError
        return self.highs.setOptionValue(name, value)

    def run(self):
        if self.binding.failing_run:
            return self.binding.real.HighsStatus.kError
        return self.highs.run()


class TestIntegerCall:
    """The direct HiGHS MIP call solves the program ``milp`` solves, to the same optimum."""

    @pytest.mark.parametrize("seed", [*range(10), "scaled"])
    def test_matches_milp(self, seed):
        master = integer_master(seed)
        exponent = rmp._cost_exponent(master.dummy_penalty)
        assert exponent == (-3 if seed == "scaled" else 0)
        res = solve_integer(master)
        assert res.status == "optimal" and res.nodes >= 0
        assert res.objective == math.ldexp(milp_result(master, exponent).fun, -exponent)

    def test_mip_bypasses_the_lp_hook(self, highs_calls):
        # perfbench times ``rmp.linprog`` as a child of the LP solve.
        solve_integer(full_master(2))
        assert highs_calls == []

    def test_feasibility_jump_is_off(self, monkeypatch):
        binding = FakeBinding()
        monkeypatch.setattr(rmp, "_highs", binding)
        solve_integer(full_master(2))
        (highs,) = binding.made
        status, value = highs.getOptionValue("mip_heuristic_run_feasibility_jump")
        assert status == binding.HighsStatus.kOk and value is False

    def test_highs_without_feasibility_jump_solves_on(self, monkeypatch):
        master = full_master(2)
        monkeypatch.setattr(rmp, "_highs", FakeBinding({"mip_heuristic_run_feasibility_jump"}))
        res = solve_integer(master)
        assert res.status == "optimal" and res.objective == milp_result(master).fun

    def test_other_rejected_option_raises(self, monkeypatch):
        monkeypatch.setattr(rmp, "_highs", FakeBinding({"mip_max_nodes"}))
        with pytest.raises(ContractError, match="HiGHS rejected option mip_max_nodes=1000000"):
            solve_integer(full_master(2))


class TestHighsError:
    """A HiGHS whose ``run`` fails reads as ``numerical``, with no point."""

    @pytest.fixture
    def failing_run(self, monkeypatch):
        monkeypatch.setattr(rmp, "_highs", FakeBinding(failing_run=True))

    def test_lp_raises_numerical(self, failing_run):
        with pytest.raises(SolverError, match="returned 'numerical'"):
            full_master(9).solve()

    def test_mip_has_no_point(self, failing_run):
        res = solve_integer(full_master(2))
        assert res.status == "numerical" and res.x is None and res.objective is None

    def test_mip_reports_no_nodes_and_no_bound(self, failing_run):
        res = solve_integer(full_master(2))
        assert res.nodes == 0 and res.dual_bound is None

    def test_exact_falls_back_to_all_rejected(self, failing_run):
        graph, demands = gap_suite_instance(2)
        result = solve_exact(graph, demands)
        assert not result.optimal and result.n_accepted == 0
        assert result.nodes_explored == 0
        rejected = dict.fromkeys(d.id for d in demands)
        assert result.objective == routing_objective(rejected, dummy_penalty(graph, demands))


def telco_after_first_pricing():
    """A telco epoch's master holding what the first pricing pass adds."""
    trace = generate_telco_trace(1, seed=3)
    master = master_for(trace.graph_for(trace.epochs[0]), telco_demands(seed=3))
    entering = price_demand(master.table, master.closed_form().duals)
    master.add(index for index, _ in entering.values())
    return master


def edge_at_capacity(capacity):
    """One demand of rate 40 with its direct edge as its only candidate."""
    g = OverlayGraph.from_edges(
        2, {(0, 1): LinkMetrics(12.0, 0.0, capacity, 1.0)}, [10000.0, 10000.0]
    )
    d = Demand(0, 0, 1, 40.0, 10.0, 0.5)
    master = master_for(g, [d], {d.id: [make_path(g, d)]})
    master.add([0])
    return master


class TestClosedForm:
    """Uncongested pools are solved without HiGHS, to HiGHS's optimum."""

    @pytest.mark.parametrize("which", ["dummy-only", "telco-first-pricing"])
    def test_matches_highs(self, which, two_demands, line_graph, highs_calls):
        if which == "dummy-only":
            master = master_for(line_graph, two_demands)
        else:
            master = telco_after_first_pricing()
            assert master.pool_size == 2 * len(master.demands)
        highs_calls.clear()
        sol = master.closed_form()
        assert highs_calls == []
        lp = master.solve()
        assert len(highs_calls) == 1
        np.testing.assert_allclose(sol.values, lp.values, rtol=0.0, atol=1e-9)
        assert sol.objective == pytest.approx(lp.objective, rel=1e-12)
        values, objective = highs_optimum(master)
        np.testing.assert_allclose(sol.values, values, rtol=0.0, atol=1e-9)
        assert sol.objective == pytest.approx(objective, rel=1e-12)
        assert not sol.duals.capacity.any()
        assert min_reduced_cost(master, sol.duals) >= -1e-9
        assert dual_objective(sol.duals, master.graph) == sol.objective

    def test_all_rejection_pool_exactly(self, highs_calls):
        # A master with no candidate joined, as when no demand has a route,
        # goes through the general closed form: each demand on its
        # rejection, each convexity price the penalty, all to the bit.
        master = telco_after_first_pricing()
        master = RestrictedMaster(master.table)
        sol = master.closed_form()
        n, penalty = len(master.demands), master.dummy_penalty
        assert highs_calls == []
        assert sol.values.tolist() == [1.0] * n
        assert sol.objective == ordered_total([penalty] * n)
        assert sol.duals.convexity.tolist() == [penalty] * n
        assert sol.duals.capacity.tolist() == [0.0] * len(master.capacity)

    def test_load_equal_to_capacity_fits(self, highs_calls):
        sol = edge_at_capacity(40.0).closed_form()
        assert highs_calls == []
        assert sol.values.tolist() == [0.0, 1.0]
        assert sol.objective == 12.0

    def test_load_a_hair_over_capacity_calls_highs(self, highs_calls):
        master = edge_at_capacity(np.nextafter(40.0, 0.0))
        assert master.closed_form() is None
        sol = master.solve()
        assert len(highs_calls) == 1
        assert sol.objective == pytest.approx(highs_optimum(master)[1], rel=1e-12)

    def test_two_candidates_of_one_demand_call_highs(self, highs_calls):
        g = OverlayGraph.from_edges(
            3,
            {
                (0, 2): LinkMetrics(9.0, 0.0, 50.0, 1.0),
                (0, 1): LinkMetrics(2.5, 0.0, 30.0, 1.0),
                (1, 2): LinkMetrics(3.0, 0.0, 40.0, 1.0),
            },
            [100.0, 80.0, 60.0],
        )
        d = Demand(4, 0, 2, 5.0, 10.0, 0.5)
        master = master_for(g, [d])
        assert master.add(range(len(master.table))) == 2
        assert master.closed_form() is None
        sol = master.solve()
        assert len(highs_calls) == 1
        assert sol.objective == pytest.approx(5.5, rel=1e-12)


class TestLpInvariants:
    @pytest.mark.parametrize("seed", [*range(8), "scaled"])
    def test_duality_and_convexity(self, seed):
        master = full_master(seed)
        sol = master.solve()
        dual_val = dual_objective(sol.duals, master.graph)
        # weak duality with equality at optimality
        assert dual_val <= sol.objective + 1e-6 * max(1.0, abs(sol.objective))
        assert dual_val == pytest.approx(sol.objective, rel=1e-6)
        # convexity rows exactly tight
        for d in master.demands:
            mass = sum(sol.values[j] for j in master.columns_of(d.id))
            assert mass == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("seed", [*range(8), "scaled"])
    def test_duals_feasible_for_every_pool_column(self, seed):
        # On "scaled" HiGHS solved the costs times 2**-3; the duals checked
        # here are the ones solve returns, in delay units.
        master = full_master(seed)
        sol = master.solve()
        lam = dict(zip(master.graph.edges, sol.duals.capacity))
        nu = sol.duals.capacity[len(lam):]
        sigmas = dict(zip((d.id for d in master.demands), sol.duals.convexity))
        rates = {d.id: d.rate_mbps for d in master.demands}
        for col in master.columns:
            rate = rates[col.path.demand_id]
            rent = sum(rate * lam[e] for e in col.path.edges)
            rent += sum(rate * nu[i] for i in col.path.nodes)
            sigma = sigmas[col.path.demand_id]
            assert sigma <= col.path.total_delay_ms + rent + 1e-6

    @pytest.mark.parametrize("seed", range(4))
    def test_adding_columns_never_hurts(self, seed):
        graph, demands = gap_suite_instance(seed)
        master = master_for(graph, demands)
        last = master.solve().objective
        for i in range(len(master.table)):
            master.add([i])
            obj = master.solve().objective
            assert obj <= last + 1e-6 * max(1.0, abs(last))
            last = obj


class TestDumpLp:
    def test_dump_contains_all_sections(self, line_graph, two_demands):
        d = two_demands[1]
        master = master_for(line_graph, two_demands, {0: [], 1: [make_path(line_graph, d)]})
        master.add([0])
        text = master.dump_lp()
        assert text.startswith("\\ restricted master")
        assert "Minimize" in text and "Subject To" in text and "End" in text
        assert "cvx_0: y0 = 1" in text
        assert "cap_e_0_1:" in text
        assert "cap_n_0:" in text

    def test_golden_text(self):
        # Two demands on a 3-node triangle: demand 4 has the direct edge
        # (0,2) and the dogleg via 1, demand 7 only the edge (1,2). Rows
        # follow the graph's edge order, then nodes; terms follow columns;
        # the unused edge (2,0) has no row. Penalty: 10 * (2*2*9 + 1).
        g = OverlayGraph.from_edges(
            3,
            {
                (0, 2): LinkMetrics(9.0, 0.0, 50.0, 1.0),
                (0, 1): LinkMetrics(2.5, 0.0, 30.0, 1.0),
                (1, 2): LinkMetrics(3.0, 0.0, 40.0, 1.0),
                (2, 0): LinkMetrics(1.0, 0.0, 10.0, 1.0),
            },
            [100.0, 80.0, 60.0],
        )
        d4 = Demand(4, 0, 2, 5.0, 10.0, 0.5)
        d7 = Demand(7, 1, 2, 1.5, 10.0, 0.5)
        master = master_for(g, [d7, d4])
        master.add(range(len(master.table)))
        assert master.dump_lp() == (
            "\\ restricted master debug dump\n"
            "Minimize\n"
            " obj: 370.0 y0 + 370.0 y1 + 9.0 y2 + 5.5 y3 + 3.0 y4\n"
            "Subject To\n"
            " cap_e_0_1: 5.0 y3 <= 30.0\n"
            " cap_e_0_2: 5.0 y2 <= 50.0\n"
            " cap_e_1_2: 5.0 y3 + 1.5 y4 <= 40.0\n"
            " cap_n_0: 5.0 y2 + 5.0 y3 <= 100.0\n"
            " cap_n_1: 5.0 y3 + 1.5 y4 <= 80.0\n"
            " cap_n_2: 5.0 y2 + 5.0 y3 + 1.5 y4 <= 60.0\n"
            " cvx_4: y0 + y2 + y3 = 1\n"
            " cvx_7: y1 + y4 = 1\n"
            "Bounds\n"
            " 0 <= y0\n"
            " 0 <= y1\n"
            " 0 <= y2\n"
            " 0 <= y3\n"
            " 0 <= y4\n"
            "End\n"
        )


def run_fresh(script):
    """Run ``script`` in a fresh interpreter, ``src`` and ``tests`` on its path; its stdout."""
    here = FsPath(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestBindingLoad:
    """``rmp`` loads SciPy's HiGHS binding without running ``scipy.optimize``'s
    package init. This suite imports ``scipy.optimize`` before ``cgroute``
    (through the oracles), so only a fresh interpreter reaches that path."""

    def test_cli_import_skips_scipy_optimize(self):
        out = run_fresh("""
            import json, sys
            import cgroute.cli
            from cgroute import rmp
            from cgroute.exact import solve_exact
            from cgroute.solver import solve
            from instances import gap_suite_instance

            registered = sys.modules.get("scipy.optimize._highspy._core") is rmp._highs
            calls, call = [], rmp.linprog
            rmp.linprog = lambda *a, **k: calls.append(1) or call(*a, **k)
            graph, demands = gap_suite_instance(9)
            lp, mip = solve(graph, demands), solve_exact(graph, demands)
            loaded = [m for m in ("scipy.optimize", "scipy.sparse", "scipy.linalg") if m in sys.modules]
            print(json.dumps([loaded, registered, len(calls), lp.objective, mip.objective, mip.optimal]))
        """)
        loaded, registered, lp_calls, lp_objective, mip_objective, optimal = json.loads(out)
        assert loaded == [] and registered
        # Instance 9's cheapest routes overrun a capacity: the master needs HiGHS.
        assert lp_calls >= 1 and optimal
        graph, demands = gap_suite_instance(9)
        assert lp_objective == solve(graph, demands).objective
        assert mip_objective == solve_exact(graph, demands).objective

    @staticmethod
    def _scipy_at(monkeypatch, root):
        """Point the loader at a SciPy under ``root`` that has not loaded the binding."""
        monkeypatch.delitem(sys.modules, "scipy.optimize._highspy._core")
        monkeypatch.setattr(rmp.scipy, "__file__", str(root / "scipy" / "__init__.py"))

    def test_missing_binding_names_the_floor(self, monkeypatch, tmp_path):
        self._scipy_at(monkeypatch, tmp_path)
        with pytest.raises(ImportError, match=r"bundles no HiGHS binding .*scipy>=1\.15"):
            rmp._load_highs()

    def test_failed_load_leaves_no_module(self, monkeypatch, tmp_path):
        self._scipy_at(monkeypatch, tmp_path)
        where = tmp_path / "scipy" / "optimize" / "_highspy"
        where.mkdir(parents=True)
        (where / "_core.py").write_text("raise RuntimeError('broken binding')\n")
        with pytest.raises(RuntimeError, match="broken binding"):
            rmp._load_highs()
        assert "scipy.optimize._highspy._core" not in sys.modules

    @pytest.mark.parametrize("cgroute_first", [True, False])
    def test_either_import_order_shares_one_binding(self, cgroute_first):
        imports = ("from cgroute import rmp", "import scipy.optimize")
        first, second = imports if cgroute_first else imports[::-1]
        out = run_fresh(f"""
            {first}
            {second}
            import sys
            res = scipy.optimize.linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0], method="highs")
            print(rmp._highs is sys.modules["scipy.optimize._highspy._core"], res.status, res.fun)
        """)
        assert out.split() == ["True", "0", "1.0"]
