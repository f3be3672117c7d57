import importlib.util

import numpy as np
import pytest
import scipy.optimize
from scipy import sparse

from cgroute import rmp
from cgroute.errors import ContractError, InputError, SolverError
from cgroute.model import Demand, LinkMetrics, OverlayGraph, make_path
from cgroute.pricing import CandidateTable, enumerate_candidates, price_demand
from cgroute.rmp import RestrictedMaster, dual_objective
from cgroute.scenario import generate_telco_trace, telco_demands

from instances import candidates_of, gap_suite_instance
from oracles import highs_optimum, highs_result, min_reduced_cost


def master_for(graph, demands, candidates=None):
    """A master over ``candidates`` (default: all enumerated), none joined yet."""
    if candidates is None:
        return RestrictedMaster(graph, enumerate_candidates(graph, demands))
    return RestrictedMaster(graph, CandidateTable.pack(graph, demands, candidates))


def full_master(seed):
    graph, demands = gap_suite_instance(seed)
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

    def test_table_of_another_graph_rejected(self, line_graph, two_demands):
        table = CandidateTable.pack(line_graph, two_demands, {0: [], 1: []})
        bigger = OverlayGraph.from_edges(4, dict(line_graph.edges), [200.0] * 4)
        with pytest.raises(ContractError):
            RestrictedMaster(bigger, table)


class TestSolve:
    def test_dummies_only_vertex(self, line_graph, two_demands):
        master = master_for(line_graph, two_demands)
        sol = master.solve()
        assert all(v == pytest.approx(1.0) for v in sol.values)
        assert all(v == 0.0 for v in sol.duals.edge_duals)
        assert all(v == 0.0 for v in sol.duals.node_duals)
        for sigma in sol.duals.convexity_duals:
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


direct_call = pytest.mark.skipif(
    rmp._highs is None,
    reason="this SciPy has no scipy.optimize._highspy._core; rmp.linprog is scipy.optimize.linprog",
)


def direct_call_args(master, highs_calls):
    """The one HiGHS call ``master.solve()`` makes, as ``(args, kwargs)``."""
    master.solve()
    (call,) = highs_calls
    return call


class TestHighsCall:
    """The direct HiGHS call solves the model ``linprog`` solves, to the same point."""

    def test_direct_call_is_the_path_on_this_scipy(self):
        # A SciPy that ships the _highspy package must also give the direct
        # call its binding, or the slow wrapper would come back unnoticed.
        if importlib.util.find_spec("scipy.optimize._highspy") is None:
            pytest.skip("this SciPy has no scipy.optimize._highspy; linprog is the path")
        assert rmp._highs is not None
        assert rmp.linprog is rmp._highs_linprog

    @direct_call
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_linprog(self, seed, highs_calls):
        master = full_master(seed)
        args, kwargs = direct_call_args(master, highs_calls)
        got, want = rmp._highs_linprog(*args, **kwargs), highs_result(master)
        assert got.status == 0 and got.fun == want.fun
        np.testing.assert_array_equal(got.x, want.x)
        np.testing.assert_array_equal(got.ineqlin.marginals, want.ineqlin.marginals)
        np.testing.assert_array_equal(got.eqlin.marginals, want.eqlin.marginals)

    @pytest.mark.parametrize("seed", range(10))
    def test_linprog_fallback_returns_the_same_solution(self, seed, monkeypatch):
        got = full_master(seed).solve()
        monkeypatch.setattr(rmp, "linprog", scipy.optimize.linprog)
        want = full_master(seed).solve()
        assert got.values == want.values and got.objective == want.objective
        for name in ("edge_duals", "node_duals", "convexity_duals"):
            np.testing.assert_array_equal(getattr(got.duals, name), getattr(want.duals, name))

    @direct_call
    @pytest.mark.parametrize(
        "option", [{"no_such_option": 1}, {"primal_feasibility_tolerance": "tight"}]
    )
    def test_rejected_option_raises(self, option, highs_calls):
        args, kwargs = direct_call_args(full_master(9), highs_calls)
        kwargs["options"] = {**kwargs["options"], **option}
        with pytest.raises(ContractError, match="HiGHS rejected option"):
            rmp._highs_linprog(*args, **kwargs)

    @direct_call
    @pytest.mark.parametrize("over_tol", [False, True])
    def test_capacity_violation_over_tol_is_numerical(self, over_tol, monkeypatch):
        # Shift one column on the tightest capacity row so that the row's
        # load grows by 2 * tol or by tol / 2; the column's convexity row
        # moves by less than tol either way.
        checked, tol = rmp._checked, rmp._CHECK_TOL

        def shifted(a, b_ub, b_eq, x, fun, dual):
            slack = b_ub - (a @ x)[: len(b_ub)]
            row = int(np.argmin(slack))
            assert slack[row] < 1e-9  # the master is congested: a row binds
            by_row = sparse.csr_array(a)
            j, rate = by_row.indices[by_row.indptr[row]], by_row.data[by_row.indptr[row]]
            assert rate > 4.0
            x = x.copy()
            x[j] += (2.0 if over_tol else 0.5) * tol / rate
            return checked(a, b_ub, b_eq, x, fun, dual)

        monkeypatch.setattr(rmp, "_checked", shifted)
        master = full_master(9)
        if over_tol:
            with pytest.raises(SolverError, match="returned 'numerical'.*tolerance of 3.16E-04"):
                master.solve()
        else:
            master.solve()  # within tol: accepted


def telco_after_first_pricing():
    """A telco epoch's master holding what the first pricing pass adds."""
    trace = generate_telco_trace(1, seed=3)
    master = master_for(trace.graph_for(trace.epochs[0]), telco_demands(seed=3))
    entering = price_demand(master.table, master.solve().duals)
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
    """Uncongested pools are solved without HiGHS, to the same optimum."""

    @pytest.mark.parametrize("which", ["dummy-only", "telco-first-pricing"])
    def test_matches_highs(self, which, two_demands, line_graph, highs_calls):
        if which == "dummy-only":
            master = master_for(line_graph, two_demands)
        else:
            master = telco_after_first_pricing()
            assert master.pool_size == 2 * len(master.demands)
        highs_calls.clear()
        sol = master.solve()
        assert highs_calls == []
        values, objective = highs_optimum(master)
        np.testing.assert_allclose(sol.values, values, rtol=0.0, atol=1e-9)
        assert sol.objective == pytest.approx(objective, rel=1e-12)
        assert not sol.duals.edge_duals.any() and not sol.duals.node_duals.any()
        assert min_reduced_cost(master, sol.duals) >= -1e-9
        assert dual_objective(sol.duals, master.graph) == sol.objective

    def test_load_equal_to_capacity_fits(self, highs_calls):
        sol = edge_at_capacity(40.0).solve()
        assert highs_calls == []
        assert sol.values == (0.0, 1.0)
        assert sol.objective == 12.0

    def test_load_a_hair_over_capacity_calls_highs(self, highs_calls):
        master = edge_at_capacity(np.nextafter(40.0, 0.0))
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
        sol = master.solve()
        assert len(highs_calls) == 1
        assert sol.objective == pytest.approx(5.5, rel=1e-12)


class TestLpInvariants:
    @pytest.mark.parametrize("seed", range(8))
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

    @pytest.mark.parametrize("seed", range(8))
    def test_duals_feasible_for_every_pool_column(self, seed):
        master = full_master(seed)
        sol = master.solve()
        lam = dict(zip(master.graph.edges, sol.duals.edge_duals))
        nu = sol.duals.node_duals
        sigmas = dict(zip((d.id for d in master.demands), sol.duals.convexity_duals))
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
