import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgroute.errors import ContractError, InputError
from cgroute.model import (
    Demand,
    LinkMetrics,
    OverlayGraph,
    augment_clique,
    dummy_penalty,
    make_dummy_path,
)
from cgroute.scenario import generate_telco_trace, telco_demands

from oracles import log_form_success_ok, make_path, qos_feasible


def metrics(delay=10.0, jitter=0.0, cap=100.0, success=1.0):
    return LinkMetrics(delay, jitter, cap, success)


class TestValidation:
    def test_link_metrics_rejects_bad_values(self):
        with pytest.raises(InputError):
            LinkMetrics(-1.0, 0.0, 10.0, 0.5)
        with pytest.raises(InputError):
            LinkMetrics(1.0, -0.5, 10.0, 0.5)
        with pytest.raises(InputError):
            LinkMetrics(1.0, 0.0, 0.0, 0.5)
        with pytest.raises(InputError):
            LinkMetrics(1.0, 0.0, 10.0, 0.0)
        with pytest.raises(InputError):
            LinkMetrics(1.0, 0.0, 10.0, 1.2)
        with pytest.raises(InputError):
            LinkMetrics(math.nan, 0.0, 10.0, 0.5)
        with pytest.raises(InputError, match="capacity must be finite"):
            LinkMetrics(1.0, 0.0, math.inf, 0.5)

    def test_demand_rejects_bad_values(self):
        with pytest.raises(InputError):
            Demand(0, 1, 1, 10.0, 5.0, 0.9)
        with pytest.raises(InputError):
            Demand(0, 0, 1, 0.0, 5.0, 0.9)
        with pytest.raises(InputError):
            Demand(0, 0, 1, 10.0, 5.0, 0.0)

    def test_graph_rejects_self_loops_and_unknown_nodes(self):
        with pytest.raises(InputError):
            OverlayGraph.from_edges(2, {(0, 0): metrics()}, [1.0, 1.0])
        with pytest.raises(InputError):
            OverlayGraph.from_edges(2, {(0, 5): metrics()}, [1.0, 1.0])
        with pytest.raises(InputError):
            OverlayGraph.from_edges(2, {}, [1.0])


class TestEdgeArrays:
    @pytest.mark.parametrize("seed", range(3))
    def test_edge_index_names_every_edge_row(self, seed):
        trace = generate_telco_trace(1, seed=seed)
        graph = trace.graph_for(trace.epochs[0])
        index = graph.arrays.index
        rows = {e: r for r, e in enumerate(graph.edges)}
        n = graph.n_nodes
        assert index.shape == (n, n) and not index.flags.writeable
        assert [[index[u, v] for v in range(n)] for u in range(n)] == [
            [rows.get((u, v), -1) for v in range(n)] for u in range(n)
        ]

    def test_edgeless_graph_has_no_edge_rows(self):
        assert (OverlayGraph.from_edges(3, {}, [1.0] * 3).arrays.index == -1).all()


class TestAugmentClique:
    def test_three_node_line(self, line_graph, two_demands):
        augmented = augment_clique(line_graph, two_demands)
        # 2 demands, max edge delay 10 -> penalty delay 2*2*10 + 1, times 10
        assert dummy_penalty(augmented, two_demands) == 410.0
        assert augmented.edges == line_graph.edges

    def test_full_clique_is_untouched(self, two_demands):
        edges = {
            (i, j): metrics(delay=5.0 + i + 2 * j)
            for i in range(3)
            for j in range(3)
            if i != j
        }
        graph = OverlayGraph.from_edges(3, edges, [10.0] * 3)
        augmented = augment_clique(graph, two_demands)
        assert dict(augmented.edges) == dict(graph.edges)
        assert augmented.artificial == frozenset()
        assert augmented is graph

    def test_telco_scale_counts(self):
        trace = generate_telco_trace(1, seed=0)
        demands = telco_demands(seed=0)
        graph = trace.graph_for(trace.epochs[0])
        assert len(graph.edges) == 82
        augmented = augment_clique(graph, demands)
        assert augmented.edges == graph.edges

    def test_idempotent(self, line_graph, two_demands):
        once = augment_clique(line_graph, two_demands)
        twice = augment_clique(once, two_demands)
        assert dict(once.edges) == dict(twice.edges)
        assert twice is once is line_graph

    def test_rejects_empty_inputs(self, line_graph):
        with pytest.raises(InputError):
            augment_clique(line_graph, [])
        tiny = OverlayGraph.from_edges(1, {}, [1.0])
        with pytest.raises(InputError):
            augment_clique(tiny, [Demand(0, 0, 1, 1.0, 1.0, 0.5)])

    def test_dummy_penalty_depends_on_demand_count(self, line_graph, two_demands):
        # The penalty is a function of the demand set, not a graph attribute.
        assert dummy_penalty(line_graph, two_demands) == 410.0
        assert dummy_penalty(line_graph, two_demands[:1]) == 210.0
        assert dummy_penalty(line_graph, two_demands * 2) == 810.0


class TestQosFeasible:
    def test_single_clean_edge_is_feasible(self):
        g = OverlayGraph.from_edges(
            2, {(0, 1): metrics(jitter=0.0, success=1.0)}, [10.0, 10.0]
        )
        d = Demand(0, 0, 1, 1.0, 0.0, 1.0)
        assert qos_feasible(make_path(g, d), d)

    def test_jitter_sum_violation(self):
        g = OverlayGraph.from_edges(
            3,
            {
                (0, 1): metrics(jitter=300.0),
                (1, 2): metrics(jitter=300.0),
            },
            [10.0] * 3,
        )
        d = Demand(0, 0, 2, 1.0, 500.0, 0.5)
        assert not qos_feasible(make_path(g, d, relay=1), d)  # 600 > 500

    def test_success_product_boundary(self):
        g = OverlayGraph.from_edges(
            3,
            {
                (0, 1): metrics(success=0.997),
                (1, 2): metrics(success=0.995),
            },
            [10.0] * 3,
        )
        d = Demand(0, 0, 2, 1.0, 100.0, 0.99)
        p = make_path(g, d, relay=1)
        assert p.success_prob == pytest.approx(0.992015, abs=1e-12)
        assert qos_feasible(p, d)
        assert log_form_success_ok(g, p, d)

    def test_make_path_rejects_missing_edge(self, line_graph, two_demands):
        augmented = augment_clique(line_graph, two_demands)
        d = Demand(5, 2, 0, 1.0, 1e9, 0.01)  # the graph has no (2,0) edge
        with pytest.raises(InputError, match=r"no edge \(2, 0\)"):
            make_path(augmented, d)
        with pytest.raises(InputError, match=r"no edge \(2, 1\)"):
            make_path(augmented, d, relay=1)

    def test_dummy_is_always_feasible(self):
        d = Demand(0, 0, 1, 1.0, 0.0, 1.0)
        assert qos_feasible(make_dummy_path(d, 1000.0), d)

    def test_mismatched_endpoints_raise(self, line_graph):
        d = Demand(0, 0, 1, 1.0, 10.0, 0.5)
        other = Demand(1, 1, 2, 1.0, 10.0, 0.5)
        p = make_path(line_graph, d)
        with pytest.raises(ContractError):
            qos_feasible(p, other)

    @given(
        jitters=st.lists(
            st.floats(0.0, 500.0, allow_nan=False), min_size=1, max_size=2
        ),
        successes=st.lists(
            st.floats(0.5, 1.0, exclude_min=True), min_size=1, max_size=2
        ),
        z_lo=st.floats(0.0, 1200.0),
        z_extra=st.floats(0.0, 500.0),
        f_hi=st.floats(0.25, 1.0),
        f_scale=st.floats(0.25, 1.0),
    )
    def test_monotone_in_bounds(self, jitters, successes, z_lo, z_extra, f_hi, f_scale):
        # Relaxing the jitter bound or lowering the success bound never
        # flips feasible -> infeasible.
        k = min(len(jitters), len(successes))
        jitters, successes = jitters[:k], successes[:k]
        edges = {}
        if k == 1:
            edges[(0, 1)] = metrics(jitter=jitters[0], success=successes[0])
            relay = None
        else:
            edges[(0, 2)] = metrics(jitter=jitters[0], success=successes[0])
            edges[(2, 1)] = metrics(jitter=jitters[1], success=successes[1])
            relay = 2
        g = OverlayGraph.from_edges(3, edges, [10.0] * 3)
        tight = Demand(0, 0, 1, 1.0, z_lo, f_hi)
        loose = Demand(0, 0, 1, 1.0, z_lo + z_extra, f_hi * f_scale)
        p = make_path(g, tight, relay=relay)
        if qos_feasible(p, tight):
            assert qos_feasible(p, loose)


class TestPathDelay:
    def test_sum_of_edges(self):
        g = OverlayGraph.from_edges(
            3, {(0, 1): metrics(delay=12.0), (1, 2): metrics(delay=30.0)}, [1.0] * 3
        )
        d = Demand(0, 0, 2, 1.0, 100.0, 0.5)
        assert make_path(g, d, relay=1).total_delay_ms == 42.0

    def test_dummy_returns_penalty(self):
        d = Demand(0, 0, 1, 1.0, 0.0, 1.0)
        assert make_dummy_path(d, 410.0).total_delay_ms == 410.0


class TestPathAggregates:
    @settings(max_examples=60)
    @given(
        delays=st.lists(st.floats(0.0, 1e4, allow_nan=False), min_size=2, max_size=2),
        jitters=st.lists(st.floats(0.0, 1e4, allow_nan=False), min_size=2, max_size=2),
        successes=st.lists(
            st.floats(1e-3, 1.0, exclude_min=True), min_size=2, max_size=2
        ),
    )
    def test_cached_aggregates_match_recomputation_bitwise(
        self, delays, jitters, successes
    ):
        edges = {
            (0, 2): LinkMetrics(delays[0], jitters[0], 10.0, successes[0]),
            (2, 1): LinkMetrics(delays[1], jitters[1], 10.0, successes[1]),
        }
        g = OverlayGraph.from_edges(3, edges, [1.0] * 3)
        d = Demand(0, 0, 1, 1.0, 100.0, 0.5)
        p = make_path(g, d, relay=2)
        delay = 0.0
        jitter = 0.0
        success = 1.0
        for e in p.edges:
            m = g.edges[e]
            delay += m.delay_ms
            jitter += m.jitter_ms
            success *= m.success_prob
        assert p.total_delay_ms == delay
        assert p.total_jitter_ms == jitter
        assert p.success_prob == success

    @settings(max_examples=120)
    @given(
        successes=st.lists(
            st.floats(1e-6, 1.0, exclude_min=True), min_size=1, max_size=2
        ),
        bound=st.floats(1e-6, 1.0, exclude_min=True),
    )
    def test_product_form_agrees_with_log_form(self, successes, bound):
        product_ok = math.prod(successes) >= bound
        log_ok = sum(math.log(f) for f in successes) >= math.log(bound)
        if product_ok != log_ok:
            # The two forms may only disagree within float rounding of the
            # boundary itself.
            assert math.isclose(
                math.prod(successes), bound, rel_tol=1e-12, abs_tol=0.0
            )
