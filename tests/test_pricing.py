from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgroute import pricing
from cgroute.errors import ContractError
from cgroute.harness import direct_mode_candidates
from cgroute.model import (
    Demand,
    LinkMetrics,
    OverlayGraph,
    augment_clique,
    make_dummy_path,
)
from cgroute.pricing import (
    EPS_REDUCED_COST,
    CandidateTable,
    RouteGeometry,
    enumerate_candidates,
    price_demand,
    route_metrics,
)
from cgroute.rmp import DualPoint
from cgroute.scenario import generate_telco_trace, telco_demands

from instances import candidate_lists, candidates_of, gap_suite_instance, hand_graph, pack_table
from oracles import brute_force_candidates, make_path, scalar_price, scalar_priced_length


def duals_for(graph, demands, edge=None, node=None, sigma=None):
    lam = {e: 0.0 for e in graph.edges}
    lam.update(edge or {})
    nu = [0.0] * graph.n_nodes
    for i, v in (node or {}).items():
        nu[i] = v
    sig = {d.id: 0.0 for d in demands}
    sig.update(sigma or {})
    return DualPoint(
        list(lam.values()), nu, [sig[d.id] for d in sorted(demands, key=lambda d: d.id)]
    )


def price_one(graph, demand, candidates, duals, demands=None, **kwargs):
    """Batched pricing with only ``demand`` holding candidates.

    Returns its entering (path, reduced cost), or None.
    """
    demands = demands or [demand]
    table = pack_table(
        graph, demands, {d.id: candidates if d.id == demand.id else [] for d in demands}
    )
    hit = price_demand(table, duals, **kwargs).get(demand.id)
    return None if hit is None else (table.path(hit[0]), hit[1])


class TestEnumerate:
    def test_complete_graph_counts(self):
        g = hand_graph()
        d = Demand(0, 0, 3, 10.0, 1e6, 0.5)
        paths = candidates_of(g, d)
        assert len(enumerate_candidates(g, [d])) == len(paths) == 3  # direct + 2 relays
        assert paths[0].edges == ((0, 3),)
        assert [p.nodes for p in paths[1:]] == [(0, 1, 3), (0, 2, 3)]

    def test_impossible_jitter_gives_empty_list(self):
        g = hand_graph()  # every edge has jitter 5
        d = Demand(0, 0, 3, 10.0, 1.0, 0.5)
        assert len(enumerate_candidates(g, [d])) == 0
        assert candidates_of(g, d) == []

    def test_artificial_edges_never_appear(self, line_graph, two_demands):
        augmented = augment_clique(line_graph, two_demands)
        d = Demand(9, 2, 0, 1.0, 1e9, 0.01)
        assert candidates_of(augmented, d) == []

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_brute_force_enumerator(self, seed):
        graph, demands = gap_suite_instance(seed)
        augmented = augment_clique(graph, demands)
        got = candidate_lists(enumerate_candidates(augmented, demands))
        for d in demands:
            want = brute_force_candidates(augmented, d)
            assert [p.edges for p in got[d.id]] == [p.edges for p in want]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_table_matches_relay_scan(self, data):
        # Per demand, the table's slice made into paths equals the
        # brute-force scan in list order, so every aggregate is bit-equal.
        graph, demands = data.draw(scenarios())
        augmented = augment_clique(graph, demands)
        overlay = candidate_lists(enumerate_candidates(augmented, demands))
        direct = candidate_lists(direct_mode_candidates(augmented, demands))
        for d in demands:
            want = brute_force_candidates(augmented, d)
            assert overlay[d.id] == want
            assert direct[d.id] == [p for p in want if len(p.edges) == 1]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_batch_paths_equal_make_path(self, data):
        # repr spells every float exactly, so equal reprs are bit-equal paths.
        graph, demands = data.draw(scenarios())
        for build in (enumerate_candidates, direct_mode_candidates):
            table = build(augment_clique(graph, demands), demands)
            index = np.arange(len(table))[::-1]
            got = [repr(p) for p in table.paths(index)]
            assert got == [repr(table.path(i)) for i in index.tolist()]
            assert table.paths(index[:0]) == []

    def test_edgeless_graph_has_no_candidates(self):
        g = OverlayGraph.from_edges(3, {}, [100.0] * 3)
        demands = [Demand(0, 0, 1, 1.0, 1e6, 0.1), Demand(1, 2, 0, 1.0, 1e6, 0.1)]
        for build in (enumerate_candidates, direct_mode_candidates):
            table = build(g, demands)
            assert len(table) == 0
            assert table.offsets.tolist() == [0, 0, 0]
            assert table.rows.shape == (0, 5)

    def test_source_without_out_edges(self):
        # Node 3 has in-edges only; demand 1 starts there, demand 0 does not.
        g = hand_graph()
        edges = {e: m for e, m in g.edges.items() if e[0] != 3}
        g = OverlayGraph.from_edges(4, edges, list(g.node_limits))
        demands = [Demand(0, 0, 3, 10.0, 1e6, 0.5), Demand(1, 3, 0, 10.0, 1e6, 0.5)]
        table = enumerate_candidates(g, demands)
        assert table.offsets.tolist() == [0, 3, 3]
        assert candidate_lists(table) == {d.id: brute_force_candidates(g, d) for d in demands}

    def test_direct_edge_fails_qos_while_relay_passes(self):
        # The direct edge is too lossy (0.5 < 0.8); the dogleg keeps 0.9 * 0.95.
        g = OverlayGraph.from_edges(
            3,
            {
                (0, 2): LinkMetrics(5.0, 1.0, 100.0, 0.5),
                (0, 1): LinkMetrics(9.0, 1.0, 100.0, 0.9),
                (1, 2): LinkMetrics(11.0, 1.0, 100.0, 0.95),
            },
            [100.0] * 3,
        )
        d = Demand(0, 0, 2, 10.0, 50.0, 0.8)
        assert [p.nodes for p in candidates_of(g, d)] == [(0, 1, 2)]
        assert candidates_of(g, d, direct_mode_candidates) == []
        assert candidates_of(g, d)[0] == make_path(g, d, relay=1)

    def test_repeated_pairs_get_their_own_rows(self):
        g = hand_graph()
        demands = [Demand(i, 0, 3, 10.0, 1e6 if i != 1 else 10.0, 0.5) for i in range(3)]
        table = enumerate_candidates(g, demands)
        assert table.offsets.tolist() == [0, 3, 6, 9]
        assert table.demand.tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2]
        lists = candidate_lists(table)
        assert [p.demand_id for p in lists[1]] == [1, 1, 1]
        assert [p.nodes for p in lists[0]] == [p.nodes for p in lists[2]]

    def test_demands_out_of_id_order(self):
        graph, demands = gap_suite_instance(4)
        shuffled = demands[::-1]
        table = enumerate_candidates(graph, shuffled)
        assert [d.id for d in table.demands] == sorted(d.id for d in demands)
        assert candidate_lists(table) == {
            d.id: brute_force_candidates(graph, d) for d in sorted(demands, key=lambda d: d.id)
        }
        ordered = enumerate_candidates(graph, demands)
        for name in ("offsets", "demand", "delay", "rate", "rows"):
            assert getattr(table, name).tolist() == getattr(ordered, name).tolist()


class TestPriceDemand:
    def test_zero_duals_pick_min_delay(self):
        g = hand_graph()
        d = Demand(0, 0, 3, 10.0, 1e6, 0.5)
        cands = candidates_of(g, d)
        duals = duals_for(g, [d], sigma={0: 100.0})
        path, reduced = price_one(g, d, cands, duals)
        assert path.nodes == (0, 1, 3)  # 12 + 22 = 34, cheapest
        assert reduced == pytest.approx(34.0 - 100.0)

    def test_no_improvement_when_sigma_small(self):
        g = hand_graph()
        d = Demand(0, 0, 3, 10.0, 1e6, 0.5)
        cands = candidates_of(g, d)
        duals = duals_for(g, [d], sigma={0: 34.0})  # exactly the best length
        assert price_one(g, d, cands, duals) is None

    def test_boundary_respects_eps(self):
        g = hand_graph()
        d = Demand(0, 0, 3, 10.0, 1e6, 0.5)
        cands = candidates_of(g, d)
        assert price_one(g, d, cands, duals_for(g, [d], sigma={0: 34.0 + 5e-8})) is None
        hit = price_one(g, d, cands, duals_for(g, [d], sigma={0: 34.0 + 5e-7}))
        assert hit is not None

    def test_empty_candidates_price_to_none(self):
        g = hand_graph()
        d = Demand(0, 0, 3, 10.0, 1e6, 0.5)
        assert price_one(g, d, [], duals_for(g, [d], sigma={0: 1e9})) is None

    def test_negative_capacity_dual_rejected(self):
        g = hand_graph()
        d = Demand(0, 0, 3, 10.0, 1e6, 0.5)
        with pytest.raises(ContractError):
            duals_for(g, [d], edge={(0, 1): -0.5})
        with pytest.raises(ContractError):
            duals_for(g, [d], node={2: -1e-12})
        # The convexity multipliers are free.
        duals_for(g, [d], sigma={0: -3.0})

    @pytest.mark.parametrize("seed", range(10))
    def test_minimizer_matches_exhaustive_scan(self, seed):
        rng = np.random.default_rng(seed)
        graph, demands = gap_suite_instance(seed % 4)
        augmented = augment_clique(graph, demands)
        lam = {e: float(rng.uniform(0, 2)) for e in augmented.edges}
        nu = {i: float(rng.uniform(0, 1)) for i in range(augmented.n_nodes)}
        for d in demands[:8]:
            sigma = float(rng.uniform(0, 4000))
            duals = duals_for(augmented, demands, edge=lam, node=nu, sigma={d.id: sigma})
            cands = candidates_of(augmented, d)
            # independent evaluation of the priced length per candidate
            lengths = []
            for p in cands:
                total = 0.0
                for e in p.edges:
                    total += augmented.edges[e].delay_ms + d.rate_mbps * lam[e]
                for i in p.nodes:
                    total += d.rate_mbps * nu[i]
                lengths.append(total)
            hit = price_one(augmented, d, cands, duals, demands)
            if not cands:
                assert hit is None
                continue
            best = min(range(len(cands)), key=lambda j: lengths[j])
            if lengths[best] < sigma - 1e-7:
                assert hit is not None
                path, reduced = hit
                assert lengths[
                    [p.edges for p in cands].index(path.edges)
                ] == pytest.approx(lengths[best], rel=1e-12)
                assert reduced == pytest.approx(lengths[best] - sigma, rel=1e-9)
            else:
                assert hit is None

    def test_argmin_invariant_under_sigma_shift(self):
        g = hand_graph()
        d = Demand(0, 0, 3, 10.0, 1e6, 0.5)
        cands = candidates_of(g, d)
        rng = np.random.default_rng(1)
        lam = {e: float(rng.uniform(0, 1)) for e in g.edges}
        base = duals_for(g, [d], edge=lam, sigma={0: 1e6})
        shifted = duals_for(g, [d], edge=lam, sigma={0: 1e6 + 777.0})
        p1, r1 = price_one(g, d, cands, base)
        p2, r2 = price_one(g, d, cands, shifted)
        assert p1.edges == p2.edges
        assert r2 - r1 == pytest.approx(-777.0, rel=1e-9)

    def test_zero_duals_priced_length_equals_delay_exactly(self):
        g = hand_graph()
        d = Demand(0, 0, 3, 10.0, 1e6, 0.5)
        table = enumerate_candidates(g, [d])
        lengths = table.priced_lengths(duals_for(g, [d]))
        assert lengths.tolist() == [p.total_delay_ms for p in candidate_lists(table)[d.id]]

    def test_exact_tie_keeps_first_candidate(self):
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
        cands = candidates_of(g, d)
        assert [p.total_delay_ms for p in cands] == [20.0, 20.0]
        path, reduced = price_one(g, d, cands, duals_for(g, [d], sigma={0: 50.0}))
        assert path == cands[0] != cands[1] and reduced == -30.0
        path, _ = price_one(g, d, cands[::-1], duals_for(g, [d], sigma={0: 50.0}))
        assert path == cands[1]

    def test_demands_without_candidates_between_priced_ones(self):
        g = hand_graph()
        demands = [Demand(i, 0, 3, 10.0, 1e6 if i != 1 else 1.0, 0.5) for i in range(3)]
        table = enumerate_candidates(g, demands)
        assert candidate_lists(table)[1] == []
        hits = price_demand(table, duals_for(g, demands, sigma={0: 100.0, 1: 100.0, 2: 100.0}))
        assert list(hits) == [0, 2]
        assert all(table.path(index).nodes == (0, 1, 3) for index, _ in hits.values())


class TestPack:
    """The table is the master's column universe, so it admits only routes.

    Tables come from the enumerator's build, or from ``pack_table`` for a
    hand-picked candidate set; both give the same arrays for the same set.
    """

    def test_demand_row_per_candidate(self):
        g = hand_graph()
        demands = [Demand(i, 0, 3, 10.0, 1e6 if i != 1 else 1.0, 0.5) for i in (2, 1, 0)]
        table = enumerate_candidates(g, demands)
        assert [d.id for d in table.demands] == [0, 1, 2]
        assert table.demand.tolist() == [0, 0, 0, 2, 2, 2]
        for i in range(len(table)):
            assert table.demands[table.demand[i]].id == table.path(i).demand_id
        packed = pack_table(g, demands, candidate_lists(table))
        for name in ("offsets", "demand", "delay", "rate", "rows"):
            assert getattr(packed, name).tolist() == getattr(table, name).tolist()

    def test_capacity_rows_in_master_row_space(self):
        g = OverlayGraph.from_edges(
            3,
            {
                (2, 1): LinkMetrics(5.0, 1.0, 100.0, 0.999),
                (1, 2): LinkMetrics(5.0, 1.0, 100.0, 0.999),
                (0, 2): LinkMetrics(5.0, 1.0, 100.0, 0.999),
                (0, 1): LinkMetrics(5.0, 1.0, 100.0, 0.999),
            },
            [100.0] * 3,
        )
        d = Demand(0, 0, 2, 10.0, 50.0, 0.9)
        packed = pack_table(
            g, [d], {d.id: [make_path(g, d), make_path(g, d, relay=1)]}
        )
        # Edge rows follow the sorted edge order (0,1), (0,2), (1,2), (2,1);
        # node i is row 4 + i, and row 7 is the pad.
        for table in (packed, enumerate_candidates(g, [d])):
            assert table.rows.tolist() == [[1, 7, 4, 7, 6], [0, 2, 4, 5, 6]]

    def test_qos_infeasible_candidate_rejected(self):
        g = OverlayGraph.from_edges(
            2, {(0, 1): LinkMetrics(5.0, 900.0, 50.0, 0.9)}, [100.0, 100.0]
        )
        d = Demand(0, 0, 1, 10.0, 10.0, 0.5)  # jitter bound 10 < 900
        with pytest.raises(ContractError):
            pack_table(g, [d], {d.id: [make_path(g, d)]})

    def test_foreign_candidate_rejected(self, line_graph, two_demands):
        own, other = two_demands
        foreign = make_path(line_graph, other)
        with pytest.raises(ContractError):
            pack_table(line_graph, two_demands, {own.id: [foreign], other.id: []})

    def test_dummy_candidate_rejected(self, line_graph, two_demands):
        d = two_demands[0]
        dummy = make_dummy_path(d, 1000.0)
        with pytest.raises(ContractError):
            pack_table(line_graph, two_demands, {d.id: [dummy], 1: []})


class TestPricingWeights:
    """The per-candidate weights one pricing pass sees."""

    def test_weight_formula(self):
        g = hand_graph()
        d = Demand(0, 0, 3, 10.0, 1e6, 0.5)
        lam = {e: 0.25 for e in g.edges}
        nu = {1: 0.5}
        table = enumerate_candidates(g, [d])
        lengths = table.priced_lengths(duals_for(g, [d], edge=lam, node=nu))
        direct, via_1, via_2 = lengths.tolist()
        # edge weight: delay + rate * 0.25; node weight: rate * nu, zero off node 1
        assert direct == pytest.approx(50.0 + 10.0 * 0.25)
        assert via_1 == pytest.approx(12.0 + 22.0 + 2 * 10.0 * 0.25 + 10.0 * 0.5)
        assert via_2 == pytest.approx(30.0 + 18.0 + 2 * 10.0 * 0.25)

    def test_zero_duals_reduce_to_delays(self):
        g = hand_graph()
        demands = [Demand(i, s, t, 10.0, 1e6, 0.5) for i, (s, t) in enumerate(g.edges)]
        table = enumerate_candidates(g, demands)
        candidates = candidate_lists(table)
        lengths = table.priced_lengths(duals_for(g, demands))
        assert lengths.tolist() == [p.total_delay_ms for d in demands for p in candidates[d.id]]


# -- batched pricing against the scalar oracle --------------------------------

_DELAYS = st.sampled_from([1.0, 2.0, 3.0, 4.5, 0.1, 0.2, 0.30000000000000004])
_DUALS = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 0.1, 1e-3]),
    st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False),
)


@st.composite
def scenarios(draw):
    """Small graphs with tie-prone metrics and demands of mixed QoS slack."""
    n = draw(st.integers(2, 6))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    edges = {
        e: LinkMetrics(
            draw(_DELAYS),
            draw(st.sampled_from([0.0, 5.0, 20.0])),
            100.0,
            draw(st.sampled_from([1.0, 0.9, 0.5])),
        )
        for e in chosen
    }
    graph = OverlayGraph.from_edges(n, edges, [100.0] * n)
    demands = []
    for i in range(draw(st.integers(1, 8))):
        s, t = draw(st.sampled_from(pairs))
        demands.append(
            Demand(
                i,
                s,
                t,
                draw(st.sampled_from([1.0, 2.5, 10.0, 0.3])),
                draw(st.sampled_from([0.0, 10.0, 1e6])),
                draw(st.sampled_from([0.1, 0.6, 1.0])),
            )
        )
    return graph, demands


class TestRouteGeometry:
    """Routes found once on one graph, metrics read from another with the same edges."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_split_build_lists_brute_force_candidates(self, data):
        # A trace's epochs share edges but not metrics: routes found on one
        # epoch's graph, read on another's, must be that graph's own
        # candidates, in list order and bit for bit.
        graph, demands = data.draw(scenarios())
        redrawn = OverlayGraph.from_edges(
            graph.n_nodes,
            {
                e: LinkMetrics(
                    data.draw(_DELAYS),
                    data.draw(st.sampled_from([0.0, 5.0, 20.0])),
                    100.0,
                    data.draw(st.sampled_from([1.0, 0.9, 0.5])),
                )
                for e in graph.edges
            },
            graph.node_limits,
        )
        geometry = RouteGeometry.find(graph, demands)
        for g in (graph, redrawn):
            overlay = candidate_lists(geometry.table(g, relays=True))
            direct = candidate_lists(geometry.table(g, relays=False))
            for d in demands:
                want = brute_force_candidates(g, d)
                assert overlay[d.id] == want
                assert direct[d.id] == [p for p in want if len(p.edges) == 1]

    def test_tables_equal_the_one_step_build(self):
        graph, demands = gap_suite_instance(5)
        geometry = RouteGeometry.find(graph, demands[::-1])
        for relays in (True, False):
            got = geometry.table(graph, relays)
            want = (enumerate_candidates if relays else direct_mode_candidates)(graph, demands)
            for name in ("offsets", "demand", "delay", "rate", "rows"):
                assert getattr(got, name).dtype == getattr(want, name).dtype
                assert getattr(got, name).tolist() == getattr(want, name).tolist()

    @pytest.mark.parametrize("instance", ["telco", "gap-suite"])
    def test_direct_table_is_the_overlay_table_without_relays(self, instance, monkeypatch):
        # One search serves both modes: the direct table must be the
        # overlay table's direct rows, field by field, in the same order
        # and dtypes; and it selects them before it reads any metric.
        if instance == "telco":
            trace = generate_telco_trace(1, seed=3)
            cases = [(trace.graph_for(trace.epochs[0]), telco_demands(seed=3))]
        else:
            cases = [gap_suite_instance(seed) for seed in range(10)]
        read = []
        monkeypatch.setattr(
            pricing, "route_metrics", lambda a, rows: read.append(rows) or route_metrics(a, rows)
        )
        for graph, demands in cases:
            geometry = RouteGeometry.find(graph, demands)
            overlay = geometry.table(graph, relays=True)
            pad = overlay.n_edges + overlay.n_nodes
            read.clear()
            direct = geometry.table(graph, relays=False)
            (rows,) = read
            assert len(rows) == (geometry.rows[:, 1] == pad).sum() and (rows[:, 1] == pad).all()
            keep = overlay.rows[:, 3] == pad
            assert 0 < keep.sum() < len(overlay)
            counts = np.bincount(overlay.demand[keep], minlength=len(overlay.demands))
            for f in fields(CandidateTable):
                got, want = getattr(direct, f.name), getattr(overlay, f.name)
                if f.name == "offsets":
                    assert got.tolist() == [0, *np.cumsum(counts).tolist()]
                elif isinstance(got, np.ndarray):
                    assert got.dtype == want.dtype and got.tolist() == want[keep].tolist()
                else:
                    assert got is want or got == want

    def test_route_metrics_are_make_paths_bit_for_bit(self):
        # Summed from 0.0 and multiplied from 1.0 in edge order, as
        # make_path does: a -0.0 link reads +0.0 whether it is a direct
        # route or either hop of a relayed one.
        n = 4
        rest = iter([0.1, 0.2, 0.30000000000000004, 4.5, 1e-300, 7.25, 3.0, 0.7] * 2)
        edges = {
            (s, t): LinkMetrics(-0.0, -0.0, 100.0, 0.9)
            if (s + t) % 3 == 1
            else LinkMetrics(next(rest), next(rest), 100.0, 0.3 + 0.1 * s + 0.01 * t)
            for s in range(n)
            for t in range(n)
            if s != t
        }
        graph = OverlayGraph.from_edges(n, edges, [100.0] * n)
        pairs = [(s, t) for s in range(n) for t in range(n) if s != t]
        demands = [Demand(i, s, t, 1.0, 1e9, 1e-9) for i, (s, t) in enumerate(pairs)]
        geometry = RouteGeometry.find(graph, demands)
        relay = (geometry.rows[:, 3] - len(graph.edges)).tolist()
        want = [
            make_path(graph, geometry.demands[r], None if k == n else k)
            for r, k in zip(geometry.owner.tolist(), relay)
        ]
        table = geometry.table(graph, relays=True)
        assert len(table) == len(want) == len(pairs) * (n - 1)  # every route is kept

        def bits(delay, jitter, success):
            return delay.hex(), jitter.hex(), success.hex()

        want_bits = [bits(p.total_delay_ms, p.total_jitter_ms, p.success_prob) for p in want]
        assert ("0x0.0p+0", "0x0.0p+0", (0.9).hex()) in want_bits  # a -0.0 link, direct
        metrics = route_metrics(graph.arrays, geometry.rows)
        assert [bits(*m) for m in zip(*(a.tolist() for a in metrics))] == want_bits
        made = table.paths(np.arange(len(table)))
        assert [bits(p.total_delay_ms, p.total_jitter_ms, p.success_prob) for p in made] == want_bits
        assert [d.hex() for d in table.delay.tolist()] == [b[0] for b in want_bits]

    def test_graph_with_other_edges_refused(self):
        graph, demands = gap_suite_instance(5)
        geometry = RouteGeometry.find(graph, demands)
        fewer = dict(graph.edges)
        fewer.popitem()
        other = OverlayGraph.from_edges(graph.n_nodes, fewer, graph.node_limits)
        with pytest.raises(ContractError, match="other edges"):
            geometry.table(other, relays=True)


class TestBatchedAgainstScalarOracle:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_same_path_and_reduced_cost_bit_for_bit(self, data):
        graph, demands = data.draw(scenarios())
        augmented = augment_clique(graph, demands)
        direct_only = {d.id: data.draw(st.booleans()) for d in demands}
        direct = candidate_lists(direct_mode_candidates(augmented, demands))
        overlay = candidate_lists(enumerate_candidates(augmented, demands))
        candidates = {d.id: (direct if direct_only[d.id] else overlay)[d.id] for d in demands}
        lam = {e: data.draw(_DUALS) for e in augmented.edges}
        nu = [data.draw(_DUALS) for _ in range(augmented.n_nodes)]
        sigma = {}
        for d in demands:
            own = candidates[d.id]
            if own and data.draw(st.booleans()):
                # sit exactly on a candidate's priced length
                pick = data.draw(st.sampled_from(own))
                sigma[d.id] = scalar_priced_length(pick, d.rate_mbps, lam, nu)
            else:
                sigma[d.id] = data.draw(st.floats(-10.0, 1e4, allow_nan=False))
        duals = duals_for(augmented, demands, edge=lam, node=dict(enumerate(nu)), sigma=sigma)

        table = pack_table(augmented, demands, candidates)
        lengths = table.priced_lengths(duals).tolist()
        want_lengths = [
            scalar_priced_length(p, d.rate_mbps, lam, nu)
            for d in sorted(demands, key=lambda d: d.id)
            for p in candidates[d.id]
        ]
        assert lengths == want_lengths

        got = price_demand(table, duals)
        for d in demands:
            want = scalar_price(
                candidates[d.id], d.rate_mbps, lam, nu, sigma[d.id], EPS_REDUCED_COST
            )
            hit = got.get(d.id)
            if want is None:
                assert hit is None
            else:
                assert hit is not None
                assert table.path(hit[0]) == want[0]
                assert hit[1] == want[1]
        assert list(got) == sorted(got)
