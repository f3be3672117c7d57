
import pytest

from cgroute.errors import ContractError, InputError
from cgroute.model import (
    Demand,
    LinkMetrics,
    OverlayGraph,
    augment_clique,
    make_dummy_path,
    make_path,
)
from cgroute.pricing import enumerate_candidates
from cgroute.rmp import (
    Column,
    DualPoint,
    RestrictedMaster,
    dual_objective,
)

from instances import gap_suite_instance


def full_master(seed):
    graph, demands = gap_suite_instance(seed)
    augmented = augment_clique(graph, demands)
    master = RestrictedMaster(augmented, demands)
    for d in master.demands:
        for p in enumerate_candidates(augmented, d):
            master.add_column(Column.from_path(p, d))
    return master


class TestBuildInitial:
    """A fresh master holds one dummy column per demand."""

    def test_one_dummy_per_demand(self, line_graph, two_demands):
        augmented = augment_clique(line_graph, two_demands)
        master = RestrictedMaster(augmented, two_demands)
        assert master.pool_size == 2
        assert all(c.is_dummy for c in master.columns)
        sol = master.solve()
        assert sol.objective == pytest.approx(2 * master.dummy_penalty)

    def test_telco_sized_pool(self):
        from cgroute.scenario import generate_telco_trace, telco_demands

        trace = generate_telco_trace(1, seed=3)
        demands = telco_demands(seed=3)
        augmented = augment_clique(trace.graph_for(trace.epochs[0]), demands)
        master = RestrictedMaster(augmented, demands)
        assert master.pool_size == 82

    def test_empty_demands_rejected(self, line_graph, two_demands):
        augmented = augment_clique(line_graph, two_demands)
        with pytest.raises(InputError):
            RestrictedMaster(augmented, [])


class TestAddColumn:
    def test_new_column_grows_pool(self, line_graph, two_demands):
        augmented = augment_clique(line_graph, two_demands)
        master = RestrictedMaster(augmented, two_demands)
        d = master.demands[0]
        p = enumerate_candidates(augmented, d)[0]
        before = master.pool_size
        cid = master.add_column(Column.from_path(p, d))
        assert master.pool_size == before + 1
        assert cid == before

    def test_duplicate_is_noop(self, line_graph, two_demands):
        augmented = augment_clique(line_graph, two_demands)
        master = RestrictedMaster(augmented, two_demands)
        d = master.demands[0]
        p = enumerate_candidates(augmented, d)[0]
        first = master.add_column(Column.from_path(p, d))
        again = master.add_column(Column.from_path(p, d))
        assert first == again
        assert master.pool_size == 3

    def test_columns_view_follows_the_pool(self, line_graph, two_demands):
        augmented = augment_clique(line_graph, two_demands)
        master = RestrictedMaster(augmented, two_demands)
        first = master.columns
        assert master.columns is first  # repeated access copies nothing
        d = master.demands[0]
        p = enumerate_candidates(augmented, d)[0]
        cid = master.add_column(Column.from_path(p, d))
        assert len(master.columns) == 3
        assert master.columns[cid].path == p

    def test_external_dummy_rejected(self, line_graph, two_demands):
        augmented = augment_clique(line_graph, two_demands)
        master = RestrictedMaster(augmented, two_demands)
        d = master.demands[0]
        dummy = Column.from_path(make_dummy_path(d, master.dummy_penalty), d)
        with pytest.raises(ContractError):
            master.add_column(dummy)

    def test_qos_infeasible_rejected(self):
        g = OverlayGraph.from_edges(
            2, {(0, 1): LinkMetrics(5.0, 900.0, 50.0, 0.9)}, [100.0, 100.0]
        )
        d = Demand(0, 0, 1, 10.0, 10.0, 0.5)  # jitter bound 10 < 900
        augmented = augment_clique(g, [d])
        master = RestrictedMaster(augmented, [d])
        bad = Column.from_path(make_path(augmented, d), d)
        with pytest.raises(ContractError):
            master.add_column(bad)


class TestSolve:
    def test_dummies_only_vertex(self, line_graph, two_demands):
        augmented = augment_clique(line_graph, two_demands)
        master = RestrictedMaster(augmented, two_demands)
        sol = master.solve()
        assert sol.status == "optimal"
        assert all(v == pytest.approx(1.0) for v in sol.values)
        assert all(v == 0.0 for v in sol.duals.edge_duals)
        assert all(v == 0.0 for v in sol.duals.node_duals)
        for sigma in sol.duals.convexity_duals:
            assert sigma == pytest.approx(master.dummy_penalty)

    def test_single_cheap_column_takes_over(self, line_graph):
        d = Demand(0, 0, 1, 20.0, 100.0, 0.9)
        augmented = augment_clique(line_graph, [d])
        master = RestrictedMaster(augmented, [d])
        p = make_path(augmented, d)
        master.add_column(Column.from_path(p, d))
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
        augmented = augment_clique(g, demands)
        master = RestrictedMaster(augmented, demands)
        for d in master.demands:
            master.add_column(Column.from_path(make_path(augmented, d), d))
        sol = master.solve()
        assert master.dummy_penalty == 490.0
        assert sol.objective == pytest.approx(502.0, rel=1e-9)
        routed_mass = sol.values[2] + sol.values[3]
        assert routed_mass == pytest.approx(1.0, abs=1e-9)


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
            rate = rates[col.demand_id]
            rent = sum(rate * lam[e] for e in col.path.edges)
            rent += sum(rate * nu[i] for i in col.path.nodes)
            sigma = sigmas[col.demand_id]
            assert sigma <= col.cost + rent + 1e-6

    @pytest.mark.parametrize("seed", range(4))
    def test_adding_columns_never_hurts(self, seed):
        graph, demands = gap_suite_instance(seed)
        augmented = augment_clique(graph, demands)
        master = RestrictedMaster(augmented, demands)
        last = master.solve().objective
        for d in master.demands:
            for p in enumerate_candidates(augmented, d):
                master.add_column(Column.from_path(p, d))
                obj = master.solve().objective
                assert obj <= last + 1e-6 * max(1.0, abs(last))
                last = obj


class TestDumpLp:
    def test_dump_contains_all_sections(self, line_graph, two_demands):
        augmented = augment_clique(line_graph, two_demands)
        master = RestrictedMaster(augmented, two_demands)
        d = master.demands[1]
        master.add_column(Column.from_path(make_path(augmented, d), d))
        text = master.dump_lp()
        assert text.startswith("\\ restricted master")
        assert "Minimize" in text and "Subject To" in text and "End" in text
        assert "cvx_0: y0 = 1" in text
        assert "cap_e_0_1:" in text
        assert "cap_n_0:" in text
