import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgroute.errors import ContractError
from cgroute.harness import direct_mode_candidates
from cgroute.model import Demand, LinkMetrics, OverlayGraph, augment_clique
from cgroute.pricing import CandidateTable, enumerate_candidates, price_demand
from cgroute.rmp import DualPoint

from instances import gap_suite_instance, hand_graph
from oracles import brute_force_candidates, scalar_price, scalar_priced_length


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
    """Batched pricing with only ``demand`` holding candidates: its hit or None."""
    demands = demands or [demand]
    table = CandidateTable.pack(
        graph, demands, {d.id: candidates if d.id == demand.id else [] for d in demands}
    )
    return price_demand(table, duals, **kwargs).get(demand.id)


class TestEnumerate:
    def test_complete_graph_counts(self):
        g = hand_graph()
        d = Demand(0, 0, 3, 10.0, 1e6, 0.5)
        paths = enumerate_candidates(g, d)
        assert len(paths) == 3  # direct + 2 relays
        assert paths[0].edges == ((0, 3),)
        assert [p.nodes for p in paths[1:]] == [(0, 1, 3), (0, 2, 3)]

    def test_impossible_jitter_gives_empty_list(self):
        g = hand_graph()  # every edge has jitter 5
        d = Demand(0, 0, 3, 10.0, 1.0, 0.5)
        assert enumerate_candidates(g, d) == []

    def test_artificial_edges_never_appear(self, line_graph, two_demands):
        augmented = augment_clique(line_graph, two_demands)
        d = Demand(9, 2, 0, 1.0, 1e9, 0.01)
        assert enumerate_candidates(augmented, d) == []

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_brute_force_enumerator(self, seed):
        graph, demands = gap_suite_instance(seed)
        augmented = augment_clique(graph, demands)
        for d in demands:
            got = enumerate_candidates(augmented, d)
            want = brute_force_candidates(augmented, d)
            assert [p.edges for p in got] == [p.edges for p in want]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_neighbour_index_matches_relay_scan(self, data):
        graph, demands = data.draw(scenarios())
        augmented = augment_clique(graph, demands)
        for d in demands:
            assert enumerate_candidates(augmented, d) == brute_force_candidates(augmented, d)
            assert direct_mode_candidates(augmented, d) == [
                p for p in brute_force_candidates(augmented, d) if len(p.edges) == 1
            ]


class TestPriceDemand:
    def test_zero_duals_pick_min_delay(self):
        g = hand_graph()
        d = Demand(0, 0, 3, 10.0, 1e6, 0.5)
        cands = enumerate_candidates(g, d)
        duals = duals_for(g, [d], sigma={0: 100.0})
        path, reduced = price_one(g, d, cands, duals)
        assert path.nodes == (0, 1, 3)  # 12 + 22 = 34, cheapest
        assert reduced == pytest.approx(34.0 - 100.0)

    def test_no_improvement_when_sigma_small(self):
        g = hand_graph()
        d = Demand(0, 0, 3, 10.0, 1e6, 0.5)
        cands = enumerate_candidates(g, d)
        duals = duals_for(g, [d], sigma={0: 34.0})  # exactly the best length
        assert price_one(g, d, cands, duals) is None

    def test_boundary_respects_eps(self):
        g = hand_graph()
        d = Demand(0, 0, 3, 10.0, 1e6, 0.5)
        cands = enumerate_candidates(g, d)
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
            cands = enumerate_candidates(augmented, d)
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
        cands = enumerate_candidates(g, d)
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
        cands = enumerate_candidates(g, d)
        table = CandidateTable.pack(g, [d], {d.id: cands})
        lengths = table.priced_lengths(duals_for(g, [d]))
        assert lengths.tolist() == [p.total_delay_ms for p in cands]

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
        cands = enumerate_candidates(g, d)
        assert [p.total_delay_ms for p in cands] == [20.0, 20.0]
        path, reduced = price_one(g, d, cands, duals_for(g, [d], sigma={0: 50.0}))
        assert path is cands[0] and reduced == -30.0
        path, _ = price_one(g, d, cands[::-1], duals_for(g, [d], sigma={0: 50.0}))
        assert path is cands[1]

    def test_demands_without_candidates_between_priced_ones(self):
        g = hand_graph()
        demands = [Demand(i, 0, 3, 10.0, 1e6 if i != 1 else 1.0, 0.5) for i in range(3)]
        candidates = {d.id: enumerate_candidates(g, d) for d in demands}
        assert candidates[1] == []
        table = CandidateTable.pack(g, demands, candidates)
        hits = price_demand(table, duals_for(g, demands, sigma={0: 100.0, 1: 100.0, 2: 100.0}))
        assert list(hits) == [0, 2]
        assert all(path.nodes == (0, 1, 3) for path, _ in hits.values())


class TestPricingWeights:
    """The per-candidate weights one pricing pass sees."""

    def test_weight_formula(self):
        g = hand_graph()
        d = Demand(0, 0, 3, 10.0, 1e6, 0.5)
        lam = {e: 0.25 for e in g.edges}
        nu = {1: 0.5}
        cands = enumerate_candidates(g, d)
        table = CandidateTable.pack(g, [d], {d.id: cands})
        lengths = table.priced_lengths(duals_for(g, [d], edge=lam, node=nu))
        direct, via_1, via_2 = lengths.tolist()
        # edge weight: delay + rate * 0.25; node weight: rate * nu, zero off node 1
        assert direct == pytest.approx(50.0 + 10.0 * 0.25)
        assert via_1 == pytest.approx(12.0 + 22.0 + 2 * 10.0 * 0.25 + 10.0 * 0.5)
        assert via_2 == pytest.approx(30.0 + 18.0 + 2 * 10.0 * 0.25)

    def test_zero_duals_reduce_to_delays(self):
        g = hand_graph()
        demands = [Demand(i, s, t, 10.0, 1e6, 0.5) for i, (s, t) in enumerate(g.edges)]
        candidates = {d.id: enumerate_candidates(g, d) for d in demands}
        table = CandidateTable.pack(g, demands, candidates)
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


class TestBatchedAgainstScalarOracle:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_same_path_and_reduced_cost_bit_for_bit(self, data):
        graph, demands = data.draw(scenarios())
        augmented = augment_clique(graph, demands)
        direct_only = {d.id: data.draw(st.booleans()) for d in demands}
        candidates = {
            d.id: (direct_mode_candidates if direct_only[d.id] else enumerate_candidates)(
                augmented, d
            )
            for d in demands
        }
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
        eps_rc = data.draw(st.sampled_from([1e-7, 0.0, 1.0]))
        duals = duals_for(augmented, demands, edge=lam, node=dict(enumerate(nu)), sigma=sigma)

        table = CandidateTable.pack(augmented, demands, candidates)
        lengths = table.priced_lengths(duals).tolist()
        want_lengths = [
            scalar_priced_length(p, d.rate_mbps, lam, nu)
            for d in sorted(demands, key=lambda d: d.id)
            for p in candidates[d.id]
        ]
        assert lengths == want_lengths

        got = price_demand(table, duals, eps_rc)
        for d in demands:
            want = scalar_price(candidates[d.id], d.rate_mbps, lam, nu, sigma[d.id], eps_rc)
            hit = got.get(d.id)
            if want is None:
                assert hit is None
            else:
                assert hit is not None
                assert hit[0] is want[0]
                assert hit[1] == want[1]
        assert list(got) == sorted(got)
