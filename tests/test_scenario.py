import math
import re
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from cgroute.errors import FormatError, InputError
from cgroute.model import LinkMetrics
from cgroute.scenario import (
    SyntheticParams,
    TelcoProfile,
    TRACE_HEADER,
    Trace,
    TraceEpoch,
    generate_demands,
    generate_telco_trace,
    generate_topology,
    load_demands,
    load_graph,
    load_node_limits,
    load_params,
    load_trace,
    save_demands,
    save_graph,
    save_node_limits,
    save_params,
    save_trace,
    telco_demands,
)

from oracles import reference_demands, reference_telco_trace, reference_topology


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


LIMITS3 = "0,100.0\n1,100.0\n2,100.0\n"


def at(path, lineno):
    """The start of a per-row error message: the file, then the line."""
    return f"^{re.escape(str(path))}: line {lineno}: "


class TestLoadTrace:
    def test_single_epoch(self, tmp_path):
        trace_file = write(
            tmp_path,
            "t.csv",
            "epoch_ts,src,dst,delay_ms,jitter_ms,capacity_mbps,success_prob\n"
            "0.0,0,1,10.0,1.0,100.0,0.99\n"
            "0.0,1,2,12.0,2.0,100.0,0.98\n",
        )
        limits_file = write(tmp_path, "l.csv", LIMITS3)
        trace = load_trace(trace_file, limits_file)
        assert trace.n_nodes == 3
        assert len(trace.epochs) == 1
        assert set(trace.epochs[0].edges) == {(0, 1), (1, 2)}
        assert trace.node_limits == (100.0, 100.0, 100.0)

    def test_bad_success_prob_reports_line(self, tmp_path):
        trace_file = write(
            tmp_path,
            "t.csv",
            "epoch_ts,src,dst,delay_ms,jitter_ms,capacity_mbps,success_prob\n"
            "0.0,0,1,10.0,1.0,100.0,0.99\n"
            "0.0,1,2,12.0,2.0,100.0,1.3\n",
        )
        limits_file = write(tmp_path, "l.csv", LIMITS3)
        with pytest.raises(FormatError, match=at(trace_file, 3)):
            load_trace(trace_file, limits_file)

    def test_nonpositive_capacity_rejected(self, tmp_path):
        trace_file = write(
            tmp_path,
            "t.csv",
            "epoch_ts,src,dst,delay_ms,jitter_ms,capacity_mbps,success_prob\n"
            "0.0,0,1,10.0,1.0,0.0,0.99\n",
        )
        limits_file = write(tmp_path, "l.csv", LIMITS3)
        with pytest.raises(FormatError, match=at(trace_file, 2)):
            load_trace(trace_file, limits_file)

    def test_inconsistent_edge_sets_rejected(self, tmp_path):
        trace_file = write(
            tmp_path,
            "t.csv",
            "epoch_ts,src,dst,delay_ms,jitter_ms,capacity_mbps,success_prob\n"
            "0.0,0,1,10.0,1.0,100.0,0.99\n"
            "300.0,1,2,12.0,2.0,100.0,0.98\n",
        )
        limits_file = write(tmp_path, "l.csv", LIMITS3)
        with pytest.raises(FormatError, match="different edge set"):
            load_trace(trace_file, limits_file)

    def test_api_trace_with_another_edge_set_rejected(self):
        # Through the API there is no file line to name, so the epoch's
        # timestamp names it; a replay finds routes on the first epoch only.
        m = LinkMetrics(10.0, 1.0, 100.0, 0.99)
        full = TraceEpoch(0.0, {(0, 1): m, (1, 2): m})
        with pytest.raises(InputError, match=r"^epoch 300\.0 has other edges than the first epoch$"):
            Trace(3, (full, TraceEpoch(300.0, {(0, 1): m})), (100.0,) * 3)
        reordered = TraceEpoch(600.0, {(1, 2): m, (0, 1): m})
        with pytest.raises(InputError, match=r"^epoch 600\.0 "):
            Trace(3, (full, full, reordered), (100.0,) * 3)
        assert len(Trace(3, (full, full), (100.0,) * 3).epochs) == 2
        assert Trace(3, (), (100.0,) * 3).epochs == ()

    @pytest.mark.parametrize("ts", ["inf", "-inf", "1e400", "nan"])
    def test_non_finite_timestamp_names_its_line(self, tmp_path, ts):
        # The second epoch's timestamp is on line 3; NaN used to read as a
        # new epoch with "a different edge set".
        trace_file = write(
            tmp_path,
            "t.csv",
            f"{TRACE_HEADER}\n0.0,0,1,10.0,1.0,100.0,0.99\n{ts},0,1,12.0,1.0,100.0,0.99\n",
        )
        limits_file = write(tmp_path, "l.csv", LIMITS3)
        with pytest.raises(FormatError, match=f"{at(trace_file, 3)}epoch timestamp '{ts}' is not finite$"):
            load_trace(trace_file, limits_file)

    def test_non_finite_first_timestamp_names_its_line(self, tmp_path):
        trace_file = write(tmp_path, "t.csv", f"{TRACE_HEADER}\ninf,0,1,10.0,1.0,100.0,0.99\n")
        limits_file = write(tmp_path, "l.csv", LIMITS3)
        with pytest.raises(FormatError, match=f"{at(trace_file, 2)}epoch timestamp 'inf' is not finite$"):
            load_trace(trace_file, limits_file)

    @pytest.mark.parametrize("ts", [math.inf, -math.inf, math.nan])
    def test_api_trace_with_non_finite_timestamp_rejected(self, ts):
        m = LinkMetrics(10.0, 1.0, 100.0, 0.99)
        epochs = (TraceEpoch(0.0, {(0, 1): m}), TraceEpoch(ts, {(0, 1): m}))
        with pytest.raises(InputError, match=f"^epoch timestamp {ts!r} is not finite$"):
            Trace(2, epochs, (100.0,) * 2)

    def test_missing_header_rejected(self, tmp_path):
        trace_file = write(tmp_path, "t.csv", "0.0,0,1,10.0,1.0,100.0,0.99\n")
        limits_file = write(tmp_path, "l.csv", LIMITS3)
        with pytest.raises(FormatError):
            load_trace(trace_file, limits_file)

    def test_generated_trace_roundtrips_bit_exactly(self, tmp_path):
        trace = generate_telco_trace(3, seed=11)
        tpath = tmp_path / "trace.csv"
        lpath = tmp_path / "limits.csv"
        save_trace(trace, tpath)
        save_node_limits(trace.node_limits, lpath)
        loaded = load_trace(tpath, lpath)
        assert loaded.n_nodes == trace.n_nodes
        assert loaded.node_limits == trace.node_limits
        assert len(loaded.epochs) == len(trace.epochs)
        for a, b in zip(loaded.epochs, trace.epochs):
            assert a.timestamp == b.timestamp
            assert dict(a.edges) == dict(b.edges)
        # and the serialized form itself is stable
        save_trace(loaded, tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == tpath.read_bytes()


class TestStaticFiles:
    def test_graph_and_demands_roundtrip(self, tmp_path):
        params = SyntheticParams(n_nodes=8, n_edges=24, n_demands=5, seed=4)
        graph = generate_topology(params)
        demands = generate_demands(params, graph)
        gpath, lpath, dpath = tmp_path / "g.csv", tmp_path / "l.csv", tmp_path / "d.csv"
        save_graph(graph, gpath)
        save_node_limits(graph.node_limits, lpath)
        save_demands(demands, dpath)
        g2 = load_graph(gpath, lpath)
        assert dict(g2.edges) == dict(graph.edges)
        assert g2.node_limits == graph.node_limits
        assert load_demands(dpath) == demands

    def test_node_limits_must_be_dense(self, tmp_path):
        limits_file = write(tmp_path, "l.csv", "0,10.0\n2,10.0\n")
        with pytest.raises(FormatError):
            load_node_limits(limits_file)

    @pytest.mark.parametrize(
        "ids,missing", [("0,2", 1), ("1,2", 0), ("0,1,5", 2), ("3,0,4,1", 2)]
    )
    def test_gap_in_node_ids_names_the_first_missing_id(self, tmp_path, ids, missing):
        rows = "".join(f"{i},10.0\n" for i in ids.split(","))
        lpath = write(tmp_path, "l.csv", rows)
        n = len(ids.split(","))
        want = f"^{re.escape(str(lpath))}: node ids must be dense 0..{n - 1}: no node {missing}$"
        with pytest.raises(FormatError, match=want):
            load_node_limits(lpath)

    def test_negative_node_id_fails_on_its_row(self, tmp_path):
        lpath = write(tmp_path, "l.csv", "0,10.0\n# comment\n-1,10.0\n1,10.0\n")
        with pytest.raises(FormatError, match=f"{at(lpath, 3)}node id must be >= 0$"):
            load_node_limits(lpath)

    def test_malformed_row_reports_line(self, tmp_path):
        gpath = write(tmp_path, "g.csv", "0,1,10.0,1.0,100.0\n")
        lpath = write(tmp_path, "l.csv", "0,10.0\n1,10.0\n")
        with pytest.raises(FormatError, match=at(gpath, 1)):
            load_graph(gpath, lpath)

    @pytest.mark.parametrize(
        "ends,message",
        [
            ("1,5", r"edge \(1,5\) references unknown node"),
            ("2,2", r"self-loop \(2,2\) not allowed"),
            ("0,1", r"duplicate edge \(0,1\)"),
        ],
    )
    def test_bad_edge_reports_line_in_graph_and_trace(self, tmp_path, ends, message):
        metrics = ",10.0,1.0,100.0,0.99\n"
        lpath = write(tmp_path, "l.csv", LIMITS3)
        rows = ["0,1", "1,2", ends]
        gpath = write(tmp_path, "g.csv", "".join(r + metrics for r in rows))
        with pytest.raises(FormatError, match=f"{at(gpath, 3)}{message}$"):
            load_graph(gpath, lpath)
        tpath = write(tmp_path, "t.csv", TRACE_HEADER + "\n" + "".join(f"0.0,{r}{metrics}" for r in rows))
        with pytest.raises(FormatError, match=f"{at(tpath, 4)}{message}$"):
            load_trace(tpath, lpath)

    @pytest.mark.parametrize("limit", ["-5", "nan", "inf"])
    def test_bad_node_limit_reports_line(self, tmp_path, limit):
        lpath = write(tmp_path, "l.csv", f"0,100.0\n1,{limit}\n")
        want = f"{at(lpath, 2)}node 1: processing limit must be finite and >= 0$"
        with pytest.raises(FormatError, match=want):
            load_node_limits(lpath)
        gpath = write(tmp_path, "g.csv", "0,1,10.0,1.0,100.0,0.99\n")
        # The graph's loader reads the limits file too; the error names that file.
        with pytest.raises(FormatError, match=want):
            load_graph(gpath, lpath)

    def test_infinite_demand_rate_reports_line(self, tmp_path):
        dpath = write(tmp_path, "d.csv", "0,0,1,5.0,50.0,0.5\n1,1,0,inf,50.0,0.5\n")
        with pytest.raises(FormatError, match=f"{at(dpath, 2)}demand 1: rate must be finite"):
            load_demands(dpath)

    def test_negative_demand_id_fails_on_its_line(self, tmp_path):
        dpath = write(tmp_path, "d.csv", "0,0,1,5.0,50.0,0.5\n-1,1,0,5.0,50.0,0.5\n")
        with pytest.raises(FormatError, match=f"{at(dpath, 2)}demand -1: id must be >= 0$"):
            load_demands(dpath)

    def test_numbers_follow_python_int_and_float(self, tmp_path):
        # The file format is Python's number grammar: digit-group underscores
        # and non-ASCII decimal digits parse as ``int`` and ``float`` read them.
        dpath = write(tmp_path, "d.csv", "1_0,0,1,1_000.5,\u0665\u0660,0.5\n\u0663,1,0,5.0,50.0,0.5\n")
        assert [(d.id, d.rate_mbps, d.max_jitter_ms) for d in load_demands(dpath)] == [
            (10, 1000.5, 50.0),
            (3, 5.0, 50.0),
        ]
        lpath = write(tmp_path, "l.csv", "0,1_000\n\u0661,\u0662\u0660\u0660.5\n")
        assert load_node_limits(lpath) == (1000.0, 200.5)
        ppath = write(tmp_path, "p.cfg", "n_demands = 1_2\nseed = \u0667\n")
        assert (load_params(ppath).n_demands, load_params(ppath).seed) == (12, 7)

    def test_bad_demand_field_names_its_line_once(self, tmp_path):
        dpath = write(tmp_path, "d.csv", "0,0,x,5.0,50.0,0.5\n")
        with pytest.raises(FormatError, match=f"{at(dpath, 1)}bad dst value 'x'$"):
            load_demands(dpath)

    def test_demand_endpoint_checked_on_its_line(self, tmp_path):
        dpath = write(tmp_path, "d.csv", "0,0,1,5.0,50.0,0.5\n\n1,0,7,5.0,50.0,0.5\n")
        want = f"{at(dpath, 3)}demand 1: endpoint outside the graph's nodes 0..2$"
        with pytest.raises(FormatError, match=want) as caught:
            load_demands(dpath, n_nodes=3)
        assert (caught.value.path, caught.value.line) == (dpath, 3)
        # Without a node count the endpoints are left to the solver's check.
        assert [d.destination for d in load_demands(dpath)] == [1, 7]
        assert len(load_demands(dpath, n_nodes=8)) == 2

    def test_file_level_errors_name_the_file_without_a_line(self, tmp_path):
        lpath = write(tmp_path, "l.csv", "# nothing\n")
        with pytest.raises(FormatError, match=f"^{re.escape(str(lpath))}: no node limits found$"):
            load_node_limits(lpath)

    def test_params_row_error_names_file_and_line(self, tmp_path):
        ppath = write(tmp_path, "p.cfg", "n_demands = 5\nn_nodes = many\n")
        with pytest.raises(FormatError, match=f"{at(ppath, 2)}bad n_nodes value 'many'$"):
            load_params(ppath)

    def test_params_roundtrip(self, tmp_path):
        params = SyntheticParams(n_demands=130, rate_fixed_mbps=25.0, seed=9)
        ppath = tmp_path / "params.cfg"
        save_params(params, ppath)
        assert load_params(ppath) == params

    def test_params_unknown_key_rejected(self, tmp_path):
        ppath = write(tmp_path, "p.cfg", "bogus = 3\n")
        with pytest.raises(FormatError):
            load_params(ppath)

    def test_params_negative_seed_rejected(self, tmp_path):
        ppath = write(tmp_path, "p.cfg", "n_demands = 5\nseed = -1\n")
        with pytest.raises(InputError, match=f"^{re.escape(str(ppath))}: seed must be nonnegative$"):
            load_params(ppath)

    @pytest.mark.parametrize(
        "line",
        [
            "rate_mean_mbps = nan",
            "rate_mean_mbps = inf",
            "rate_mean_mbps = 0",
            "rate_fixed_mbps = -5",
            "rate_fixed_mbps = nan",
            "node_capacity_mbps = -1",
            "node_capacity_mbps = nan",
            "capacity_range_mbps = -5,1",
            "capacity_range_mbps = 0,1",
            "delay_range_ms = -1,5",
            "jitter_range_ms = -1,5",
            "jitter_bound_range_ms = -1,5",
            "loss_range = 0.5,1.5",
            "loss_range = -0.1,0.5",
            "loss_bound_range = 0.5,1.5",
            "n_nodes = 1",
            "n_edges = -1",
            "n_demands = -1",
        ],
    )
    def test_params_bad_value_names_the_file(self, tmp_path, line):
        # Each of these used to pass loading and fail only at generation,
        # naming neither the file nor the key.
        key = line.split()[0]
        rule = {
            "rate_mean_mbps": "must be finite and > 0",
            "rate_fixed_mbps": "must be finite and > 0",
            "node_capacity_mbps": "must be finite and >= 0",
            "capacity_range_mbps": "must stay above 0",
            "loss_range": re.escape("must stay within [0, 1)"),
            "loss_bound_range": re.escape("must stay within [0, 1)"),
            "n_nodes": "must be at least 2",
            "n_edges": re.escape("must be an even count in [98, 2450] on 50 nodes, got -1"),
            "n_demands": "must be at least 0",
        }.get(key, "must stay at or above 0")
        head = "" if key == "n_demands" else "n_demands = 5\n"
        ppath = write(tmp_path, "p.cfg", f"{head}{line}\n")
        with pytest.raises(InputError, match=f"^{re.escape(str(ppath))}: {key} {rule}$"):
            load_params(ppath)

    @pytest.mark.parametrize(
        "line",
        [
            "capacity_range_mbps = 5",
            "capacity_range_mbps = 1,2,3",
            "n_nodes = 1,2",
            "rate_fixed_mbps = 5,6",
            "node_capacity_mbps = none",
            "n_demands = none",
            "seed = none",
            "seed = 1.5",
        ],
    )
    def test_params_value_of_the_wrong_type_names_its_line(self, tmp_path, line):
        # Each value parses as its field's declared type; these used to
        # reach the dataclass and fail there with a Python type error.
        key, _, value = line.partition(" = ")
        ppath = write(tmp_path, "p.cfg", f"rate_mean_mbps = 50.0\n{line}\n")
        with pytest.raises(FormatError, match=f"{at(ppath, 2)}bad {key} value '{value}'$"):
            load_params(ppath)

    def test_params_values_follow_the_field_types(self, tmp_path):
        ppath = write(
            tmp_path,
            "p.cfg",
            "n_nodes = 30\nrate_fixed_mbps = NONE\nloss_range = 0.1, 0.2\nrate_mean_mbps = 7\n",
        )
        params = load_params(ppath)
        assert params == SyntheticParams(
            n_nodes=30, rate_fixed_mbps=None, loss_range=(0.1, 0.2), rate_mean_mbps=7.0
        )
        assert type(params.rate_mean_mbps) is float and type(params.n_nodes) is int
        assert load_params(write(tmp_path, "q.cfg", "rate_fixed_mbps = 5\n")).rate_fixed_mbps == 5.0

    def test_params_repeated_key_names_its_line(self, tmp_path):
        ppath = write(tmp_path, "p.cfg", "seed = 3\nn_demands = 5\n\nseed = 4\n")
        with pytest.raises(FormatError, match=f"{at(ppath, 4)}repeated parameter 'seed'$"):
            load_params(ppath)


class TestGenerateTopology:
    def test_default_edge_count_exact(self):
        graph = generate_topology(SyntheticParams(seed=1))
        assert graph.n_nodes == 50
        assert len(graph.edges) == 450

    def test_three_node_full_attachment(self):
        graph = generate_topology(SyntheticParams(n_nodes=3, n_edges=6, seed=0))
        assert len(graph.edges) == 6

    def test_deterministic_per_seed(self):
        a = generate_topology(SyntheticParams(seed=17))
        b = generate_topology(SyntheticParams(seed=17))
        assert dict(a.edges) == dict(b.edges)
        c = generate_topology(SyntheticParams(seed=18))
        assert dict(a.edges) != dict(c.edges)

    def test_connected(self):
        graph = generate_topology(SyntheticParams(n_nodes=30, n_edges=116, seed=5))
        seen = {0}
        frontier = [0]
        undirected = {(min(i, j), max(i, j)) for i, j in graph.edges}
        while frontier:
            u = frontier.pop()
            for a, b in undirected:
                for x, y in ((a, b), (b, a)):
                    if x == u and y not in seen:
                        seen.add(y)
                        frontier.append(y)
        assert seen == set(range(30))

    def test_unachievable_counts_rejected(self):
        for n_edges in (21, 22, 6, -2):  # odd, > clique, < tree, negative
            want = f"n_edges must be an even count in [8, 20] on 5 nodes, got {n_edges}"
            with pytest.raises(InputError, match=re.escape(want)):
                SyntheticParams(n_nodes=5, n_edges=n_edges, seed=0)

    def test_metric_ranges_respected(self):
        params = SyntheticParams(seed=23)
        graph = generate_topology(params)
        for m in graph.edges.values():
            assert params.delay_range_ms[0] <= m.delay_ms <= params.delay_range_ms[1]
            assert params.jitter_range_ms[0] <= m.jitter_ms <= params.jitter_range_ms[1]
            assert (
                params.capacity_range_mbps[0]
                <= m.capacity_mbps
                <= params.capacity_range_mbps[1]
            )
            assert 1.0 - params.loss_range[1] <= m.success_prob <= 1.0


class TestGenerateDemands:
    def test_exponential_rate_mean(self):
        params = SyntheticParams(n_demands=10000, seed=2)
        graph = generate_topology(replace(params, n_demands=90))
        demands = generate_demands(params, graph)
        mean = sum(d.rate_mbps for d in demands) / len(demands)
        assert 48.0 <= mean <= 52.0

    def test_telco_profile_fixed_values(self):
        demands = telco_demands(seed=6)
        assert len(demands) == 82
        for d in demands:
            assert d.rate_mbps == 50.0
            assert d.max_jitter_ms == 2000.0
            assert d.min_success_prob == pytest.approx(0.99)
            assert d.source != d.destination

    @pytest.mark.parametrize("seed", [0, 7])
    def test_telco_demands_are_the_synthetic_draws(self, seed):
        # The telco set is the synthetic generator's stream with the
        # profile's rate and a one-point range for each QoS bound.
        profile = TelcoProfile()
        loss = 1.0 - profile.min_success_prob
        params = SyntheticParams(
            n_nodes=profile.n_nodes,
            n_edges=2 * (profile.n_nodes - 1),
            n_demands=profile.n_demands,
            rate_fixed_mbps=profile.rate_mbps,
            jitter_bound_range_ms=(profile.max_jitter_ms,) * 2,
            loss_bound_range=(loss, loss),
            seed=seed,
        )
        graph = generate_topology(params)
        want = [astuple(d) for d in generate_demands(params, graph)]
        assert [astuple(d) for d in telco_demands(seed, profile)] == want

    def test_single_demand(self):
        params = SyntheticParams(n_nodes=5, n_edges=16, n_demands=1, seed=3)
        graph = generate_topology(params)
        (demand,) = generate_demands(params, graph)
        assert demand.source != demand.destination

    def test_deterministic_per_seed(self):
        params = SyntheticParams(n_nodes=10, n_edges=32, n_demands=20, seed=8)
        graph = generate_topology(params)
        assert generate_demands(params, graph) == generate_demands(params, graph)

    def test_bounds_within_ranges(self):
        params = SyntheticParams(n_nodes=10, n_edges=32, n_demands=200, seed=12)
        graph = generate_topology(params)
        for d in generate_demands(params, graph):
            assert 25.0 <= d.max_jitter_ms <= 200.0
            assert 0.2 <= d.min_success_prob <= 0.9


class TestDistributionSanity:
    def test_uniform_draws_pass_ks(self):
        graph = generate_topology(SyntheticParams(seed=31))
        big = SyntheticParams(n_demands=10000, seed=31)
        demands = generate_demands(big, graph)
        jitter_bounds = np.array([d.max_jitter_ms for d in demands])
        lo, hi = big.jitter_bound_range_ms
        stat, _ = stats.kstest(jitter_bounds, stats.uniform(lo, hi - lo).cdf)
        critical_1pct = 1.63 / math.sqrt(len(jitter_bounds))
        assert stat < critical_1pct
        loss_bounds = np.array([1.0 - d.min_success_prob for d in demands])
        lo, hi = big.loss_bound_range
        stat, _ = stats.kstest(loss_bounds, stats.uniform(lo, hi - lo).cdf)
        assert stat < critical_1pct

    @pytest.mark.parametrize("seed", range(0, 100, 7))
    def test_generated_artifacts_satisfy_invariants(self, seed):
        params = SyntheticParams(n_nodes=12, n_edges=40, n_demands=15, seed=seed)
        graph = generate_topology(params)
        demands = generate_demands(params, graph)
        assert len(graph.edges) >= 2 * (12 - 1)
        assert len(demands) == 15  # constructors validate the rest


class TestTelcoTrace:
    def test_epoch_structure(self):
        profile = TelcoProfile()
        trace = generate_telco_trace(4, seed=1, profile=profile)
        assert len(trace.epochs) == 4
        edge_sets = {frozenset(e.edges) for e in trace.epochs}
        assert len(edge_sets) == 1  # constant link set over time
        assert [e.timestamp for e in trace.epochs] == [0.0, 300.0, 600.0, 900.0]
        assert trace.node_limits == (profile.node_capacity_mbps,) * 11

    def test_negative_seed_rejected(self):
        with pytest.raises(InputError, match="seed must be nonnegative"):
            generate_telco_trace(1, seed=-1)
        with pytest.raises(InputError, match="seed must be nonnegative"):
            telco_demands(seed=-1)

    def test_marginals_match_profile_targets(self):
        # The regime split is binomial over 82 links per seed, so pool a
        # handful of seeds before checking the targeted shares.
        delays, jitters, losses = [], [], []
        for seed in range(10):
            trace = generate_telco_trace(10, seed=seed)
            for epoch in trace.epochs:
                for m in epoch.edges.values():
                    delays.append(m.delay_ms)
                    jitters.append(m.jitter_ms)
                    losses.append(1.0 - m.success_prob)
        delays, jitters, losses = map(np.array, (delays, jitters, losses))
        assert (delays >= 5.0).all()
        assert np.quantile(delays, 0.95) <= 85.0  # support essentially 5-80 ms
        assert 0.85 <= np.mean(jitters < 330.0) <= 0.95  # ~90% under 330 ms
        assert np.mean(losses < 0.003) > 0.8  # most links essentially clean
        heavy = np.mean(losses > 0.015)
        assert 0.03 <= heavy <= 0.15  # few-percent heavy-loss share

    def test_deterministic(self):
        a = generate_telco_trace(2, seed=5)
        b = generate_telco_trace(2, seed=5)
        for ea, eb in zip(a.epochs, b.epochs):
            assert dict(ea.edges) == dict(eb.edges)


def typed(values):
    """``values`` with each one's type, so ``1`` and ``1.0`` or ``np.float64`` differ."""
    return [(type(v), v) for v in values]


def graph_fields(graph):
    edges = [(typed(e), typed(astuple(m))) for e, m in graph.edges.items()]
    return typed((graph.n_nodes,)), typed(graph.node_limits), edges


def demand_fields(demands):
    return [typed(astuple(d)) for d in demands]


def trace_fields(trace):
    epochs = [
        (typed((ep.timestamp,)), [(typed(e), typed(astuple(m))) for e, m in ep.edges.items()])
        for ep in trace.epochs
    ]
    return typed((trace.n_nodes,)), typed(trace.node_limits), epochs


def assert_synthetic_matches_reference(params):
    graph = generate_topology(params)
    assert graph_fields(graph) == graph_fields(reference_topology(params))
    demands = generate_demands(params, graph)
    assert demand_fields(demands) == demand_fields(reference_demands(params, graph.n_nodes))


def assert_telco_matches_reference(n_epochs, seed, profile):
    got = generate_telco_trace(n_epochs, seed, profile)
    assert trace_fields(got) == trace_fields(reference_telco_trace(n_epochs, seed, profile))


@st.composite
def ranges(draw, lo, hi):
    a, b = sorted(draw(st.floats(lo, hi, allow_nan=False)) for _ in range(2))
    return (a, a) if draw(st.booleans()) else (a, b)


class TestStreamOracle:
    """The array draws name the scenarios the scalar reference draws name,
    field for field: values, Python types, edge order and epoch order."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_synthetic_matches_reference(self, data):
        n = data.draw(st.integers(2, 25))
        undirected = data.draw(st.integers(n - 1, n * (n - 1) // 2))
        params = SyntheticParams(
            n_nodes=n,
            n_edges=2 * undirected,
            capacity_range_mbps=data.draw(ranges(1.0, 1000.0)),
            delay_range_ms=data.draw(ranges(0.0, 500.0)),
            jitter_range_ms=data.draw(ranges(0.0, 50.0)),
            loss_range=data.draw(ranges(0.0, 0.5)),
            n_demands=data.draw(st.integers(0, 30)),
            rate_fixed_mbps=data.draw(st.sampled_from([None, 7.5])),
            jitter_bound_range_ms=data.draw(ranges(0.0, 300.0)),
            loss_bound_range=data.draw(ranges(0.0, 0.9)),
            seed=data.draw(st.integers(0, 2**32)),
        )
        assert_synthetic_matches_reference(params)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_telco_matches_reference(self, data):
        n = data.draw(st.integers(2, 8))
        shares = st.sampled_from([0.0, 0.05, 0.5, 1.0])
        profile = TelcoProfile(
            n_nodes=n,
            n_links=data.draw(st.integers(0, n * (n - 1))),
            slow_delay_share=data.draw(shares),
            high_jitter_share=data.draw(shares),
            heavy_loss_share=data.draw(shares),
            spike_prob=data.draw(shares),
        )
        n_epochs = data.draw(st.integers(1, 5))
        assert_telco_matches_reference(n_epochs, data.draw(st.integers(0, 2**32)), profile)

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize(
        "profile",
        [
            TelcoProfile(),
            TelcoProfile(n_links=0),
            TelcoProfile(heavy_loss_share=0.0),
            TelcoProfile(heavy_loss_share=1.0),
            TelcoProfile(spike_prob=0.0),
            TelcoProfile(spike_prob=1.0),
        ],
        ids=["default", "no-links", "no-heavy", "all-heavy", "no-spikes", "all-spikes"],
    )
    @pytest.mark.parametrize("n_epochs", [1, 4])
    def test_telco_edge_cases(self, seed, profile, n_epochs):
        assert_telco_matches_reference(n_epochs, seed, profile)

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize(
        "params",
        [
            SyntheticParams(),
            SyntheticParams(n_nodes=6, n_edges=30, n_demands=20),  # complete graph
            SyntheticParams(n_nodes=2, n_edges=2, n_demands=5),
            SyntheticParams(n_demands=0),
            SyntheticParams(
                n_nodes=12,
                n_edges=40,
                capacity_range_mbps=(100.0, 100.0),
                delay_range_ms=(3.0, 3.0),
                jitter_range_ms=(0.0, 0.0),
                loss_range=(0.01, 0.01),
                rate_fixed_mbps=25.0,
                jitter_bound_range_ms=(40.0, 40.0),
                loss_bound_range=(0.2, 0.2),
            ),
        ],
        ids=["default", "complete", "two-nodes", "no-demands", "point-ranges"],
    )
    def test_synthetic_edge_cases(self, seed, params):
        assert_synthetic_matches_reference(replace(params, seed=seed))
