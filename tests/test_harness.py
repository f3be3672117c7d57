import json
import math
from dataclasses import replace

import numpy as np
import pytest

from cgroute import harness, rmp
from cgroute.errors import ContractError, InputError
from cgroute.exact import ExactLimits, solve_exact
from cgroute.harness import (
    CSV_HEADER,
    LOSS_FREE_CAP_MBPS,
    MODES,
    EpochReport,
    Outcomes,
    _throughput,
    direct_mode_candidates,
    emit_reports,
    mode_relays,
    reports_to_csv,
    reports_to_json,
    run_timeseries,
    solve_epoch,
)
from cgroute.model import Demand, LinkMetrics, OverlayGraph, augment_clique
from cgroute.pricing import RouteGeometry, enumerate_candidates
from cgroute.scenario import TelcoProfile, generate_telco_trace, telco_demands
from cgroute.solver import SolverConfig, solve

from instances import (
    candidate_lists,
    candidates_of,
    gap_suite_instance,
    hand_graph,
)
from oracles import ordered_total, report_payload, reference_report_json


def small_trace(n_epochs=2, seed=0):
    profile = TelcoProfile(n_nodes=6, n_links=20, n_demands=10)
    return (
        generate_telco_trace(n_epochs, seed=seed, profile=profile),
        telco_demands(seed=seed, profile=profile),
    )


class TestDirectCandidates:
    def test_direct_edge_becomes_singleton(self):
        g = hand_graph()
        d = Demand(0, 0, 3, 5.0, 1e6, 0.5)
        cands = candidates_of(g, d, direct_mode_candidates)
        assert len(cands) == 1
        assert cands[0].edges == ((0, 3),)

    def test_missing_direct_edge_gives_empty(self, line_graph):
        d = Demand(0, 0, 2, 5.0, 1e6, 0.5)  # only (0,1),(1,2) exist
        assert len(direct_mode_candidates(line_graph, [d])) == 0
        assert candidates_of(line_graph, d, direct_mode_candidates) == []

    @pytest.mark.parametrize("seed", range(20))
    def test_subset_of_overlay_candidates(self, seed):
        graph, demands = gap_suite_instance(seed % 10)
        augmented = augment_clique(graph, demands)
        overlay = candidate_lists(enumerate_candidates(augmented, demands))
        direct = candidate_lists(direct_mode_candidates(augmented, demands))
        for d in demands:
            assert {p.edges for p in direct[d.id]} <= {p.edges for p in overlay[d.id]}


class TestThroughput:
    """The TCP model on arrays of success probability and one-way delay."""

    def test_reference_value(self):
        # MSS 1460 B, C = 1, one-way delay 50 ms -> RTT 100 ms, loss 1%:
        # 1460*8 / (0.1 * 0.1) = 1.168e6 bit/s.
        mbps, loss_free = _throughput(np.array([0.99]), np.array([50.0]))
        assert not loss_free[0]
        assert mbps[0] == pytest.approx(1.168, rel=1e-12)

    def test_rtt_doubling_halves(self):
        (near, far), _ = _throughput(np.array([0.99, 0.99]), np.array([50.0, 100.0]))
        assert near == pytest.approx(2 * far, rel=1e-12)

    def test_quartering_loss_doubles(self):
        (lossy, clean), _ = _throughput(np.array([1.0 - 0.04, 1.0 - 0.01]), np.array([50.0, 50.0]))
        assert clean == pytest.approx(2 * lossy, rel=1e-12)

    def test_loss_free_cap(self):
        mbps, loss_free = _throughput(np.array([1.0]), np.array([50.0]))
        assert loss_free[0]
        assert mbps[0] == LOSS_FREE_CAP_MBPS == 10000.0

    def test_zero_delay_returns_cap(self):
        mbps, loss_free = _throughput(np.array([0.9]), np.array([0.0]))
        assert not loss_free[0]
        assert mbps[0] == LOSS_FREE_CAP_MBPS


class TestRunTimeseries:
    def test_uncongested_epoch_reports_min_delays(self):
        g = hand_graph()
        demands = [Demand(0, 0, 3, 1.0, 1e6, 0.5), Demand(1, 1, 0, 1.0, 1e6, 0.5)]
        report = solve_epoch(g, demands, "overlay", SolverConfig(seed=0))
        assert report.acceptance_pct == 100.0
        augmented = augment_clique(g, demands)
        expected = [
            min(p.total_delay_ms for p in candidates_of(augmented, d))
            for d in demands
        ]
        assert report.mean_delay_ms == pytest.approx(sum(expected) / 2)

    def test_reports_cover_every_epoch_and_mode(self):
        trace, demands = small_trace(n_epochs=3)
        reports = run_timeseries(trace, demands, ["overlay", "direct"], SolverConfig())
        assert len(reports) == 6
        assert [r.epoch_ts for r in reports] == [0.0, 0.0, 300.0, 300.0, 600.0, 600.0]

    @pytest.mark.parametrize("seed", range(5))
    def test_overlay_dominates_direct_per_epoch(self, seed):
        trace, demands = small_trace(n_epochs=3, seed=seed)
        reports = run_timeseries(
            trace, demands, ["overlay", "direct"], SolverConfig(seed=seed)
        )
        by_epoch = {}
        for r in reports:
            by_epoch.setdefault(r.epoch_ts, {})[r.mode] = r
        for modes in by_epoch.values():
            assert modes["overlay"].acceptance_pct >= modes["direct"].acceptance_pct

    def test_mean_delay_matches_outcomes(self):
        trace, demands = small_trace()
        reports = run_timeseries(trace, demands, ["overlay"], SolverConfig())
        for r in reports:
            delays = [o["delay_ms"] for o in r.outcomes if o["accepted"]]
            if delays:
                assert r.mean_delay_ms == pytest.approx(
                    sum(delays) / len(delays), abs=1e-9
                )
            else:
                assert r.mean_delay_ms is None

    def test_only_a_single_epoch_report_keeps_its_master(self):
        # --dump-lp reads the master of one solve; a replay, which keeps
        # every report, must not keep every epoch's master with it.
        trace, demands = small_trace()
        reports = run_timeseries(trace, demands, ["overlay", "direct"], SolverConfig())
        assert [r.master for r in reports] == [None] * 4
        graph = trace.graph_for(trace.epochs[0])
        report = solve_epoch(graph, demands, "overlay", SolverConfig())
        assert report.master.graph is graph
        assert report.master.pool_size > len(demands)

    def test_gap_is_never_negative_and_zero_on_the_same_routes(self, monkeypatch):
        # One routing has one objective: a heuristic that picks the MIP's
        # routes scores the MIP's objective to the bit, and no heuristic
        # scores below a proven optimum.
        import cgroute.harness as harness

        benchmarks = []

        def recording(*args):
            benchmarks.append(solve_exact(*args))
            return benchmarks[-1]

        monkeypatch.setattr(harness, "solve_exact", recording)
        for seed in range(50):
            graph, demands = gap_suite_instance(seed)
            for mode in MODES:
                report = solve_epoch(graph, demands, mode, SolverConfig(), oracle=True)
                best = benchmarks[-1]
                assert best.optimal and report.gap_pct >= 0.0, (seed, mode, report.gap_pct)
                routes = {o["demand"]: tuple(o.get("path", ())) for o in report.outcomes}
                if routes == {did: p.nodes if p else () for did, p in best.outcomes.items()}:
                    assert report.gap_pct == 0.0, (seed, mode)
                    assert report.objective == best.objective, (seed, mode)

    @pytest.mark.parametrize("oracle", [False, True])
    def test_replay_equals_fresh_solves(self, oracle):
        # A replay finds its routes once per trace; each report must still be
        # the one a fresh solve_epoch on that epoch's graph makes.
        traces = [small_trace(n_epochs=3)]
        traces += [(generate_telco_trace(2, seed=s), telco_demands(seed=s)) for s in range(3)]
        for trace, demands in traces:
            config = SolverConfig(seed=1)
            reports = run_timeseries(trace, demands, MODES, config, oracle=oracle)
            fresh = [
                replace(
                    solve_epoch(
                        trace.graph_for(ep),
                        demands,
                        mode,
                        config,
                        epoch_ts=ep.timestamp,
                        oracle=oracle,
                    ),
                    master=None,
                )
                for ep in trace.epochs
                for mode in MODES
            ]
            assert [replace(r, runtime_ms=0.0) for r in reports] == [
                replace(r, runtime_ms=0.0) for r in fresh
            ]
            assert any(r.gap_pct is not None for r in reports) == oracle

    @pytest.mark.parametrize("seed", range(10))
    def test_rows_match_the_routing_paths(self, seed):
        # The rows are read from the routing's arrays, without its paths;
        # they must say what the paths say.
        graph, demands = gap_suite_instance(seed)
        for mode in MODES:
            report = solve_epoch(graph, demands, mode, SolverConfig(seed=seed))
            relays = mode_relays(mode)
            routed = solve(
                graph, demands, SolverConfig(seed=seed),
                lambda g, ds: RouteGeometry.find(g, ds).table(g, relays),
            )
            paths = sorted(routed.outcomes.items())
            assert [row["demand"] for row in report.outcomes] == [did for did, _ in paths]
            for row, (_, p) in zip(report.outcomes, paths):
                assert row["accepted"] is (p is not None)
                if p is not None:
                    assert (row["path"], row["delay_ms"]) == (list(p.nodes), p.total_delay_ms)
            delays = [p.total_delay_ms for _, p in paths if p is not None]
            assert report.n_accepted == len(delays) == routed.n_accepted
            assert report.mean_delay_ms == (ordered_total(delays) / len(delays) if delays else None)

    def test_unknown_mode_rejected(self):
        trace, demands = small_trace()
        with pytest.raises(InputError):
            run_timeseries(trace, demands, ["sideways"], SolverConfig())

    def test_a_mode_is_its_relays_flag(self):
        assert [mode_relays(m) for m in MODES] == [True, False]
        with pytest.raises(InputError, match="unknown mode 'both'"):
            mode_relays("both")
        trace, demands = small_trace()
        with pytest.raises(InputError, match="unknown mode 'sideways'"):
            solve_epoch(trace.graph_for(trace.epochs[0]), demands, "sideways", SolverConfig())

    def test_demand_outside_trace_raises(self):
        # Input errors stop the replay instead of filling every epoch's
        # report with the same error.
        trace, demands = small_trace()
        outside = Demand(99, 0, trace.n_nodes, 1.0, 1e6, 0.5)
        with pytest.raises(InputError, match="demand 99: endpoint outside"):
            run_timeseries(trace, [*demands, outside], ["overlay"], SolverConfig())

    def test_solver_failure_is_recorded_per_epoch(self, monkeypatch):
        import cgroute.harness as harness
        from cgroute.errors import SolverError

        def failing(*args, **kwargs):
            raise SolverError("LP backend returned 'numerical'")

        monkeypatch.setattr(harness, "solve", failing)
        trace, demands = small_trace()
        reports = run_timeseries(trace, demands, ["overlay"], SolverConfig())
        assert len(reports) == 2
        assert all(r.error == "LP backend returned 'numerical'" for r in reports)
        assert all(r.objective == math.inf for r in reports)

    def test_gap_reported_with_oracle(self):
        graph, demands = gap_suite_instance(3)
        report = solve_epoch(
            graph, demands, "overlay", SolverConfig(seed=3), oracle=True
        )
        assert report.gap_pct is not None
        assert report.gap_pct >= -1e-6

    def test_oracle_reuses_the_enumeration(self, monkeypatch):
        calls, tables = [], []
        find, table = RouteGeometry.find, RouteGeometry.table

        def counting_find(cls, graph, demands):
            calls.append([d.id for d in demands])
            return find(graph, demands)

        def counting_table(self, graph, relays):
            tables.append(relays)
            return table(self, graph, relays)

        monkeypatch.setattr(RouteGeometry, "find", classmethod(counting_find))
        monkeypatch.setattr(RouteGeometry, "table", counting_table)
        graph, demands = gap_suite_instance(3)
        report = solve_epoch(graph, demands, "overlay", SolverConfig(seed=3), oracle=True)
        assert report.gap_pct is not None
        # One route search and one table per epoch, over every demand; the
        # heuristic and the oracle share them.
        assert len(calls) == 1
        assert sorted(calls[0]) == sorted(d.id for d in demands)
        assert len(calls[0]) == 30
        assert tables == [True]

    @pytest.mark.parametrize("mode", MODES)
    def test_empty_demand_set(self, mode):
        # The rows are read from the empty Routing that solve returns.
        report = solve_epoch(hand_graph(), [], mode, SolverConfig(), oracle=True)
        assert report.n_accepted == 0 and report.n_demands == 0
        assert isinstance(report.outcomes, Outcomes) and len(report.outcomes) == 0
        assert report.mean_delay_ms is None and report.master is None
        assert report.objective == 0.0 and report.gap_pct == 0.0

    def test_no_gap_against_unproven_oracle(self):
        # A budget cut leaves the exact result unproven (here the
        # all-rejected fallback), so there is no optimum to measure against.
        graph, demands = gap_suite_instance(2)
        report = solve_epoch(
            graph,
            demands,
            "overlay",
            SolverConfig(seed=2),
            oracle=True,
            oracle_limits=ExactLimits(time_limit_s=1e-9),
        )
        assert report.gap_pct is None


class TestTotals:
    def test_every_total_adds_in_order(self, monkeypatch):
        # From Python 3.12 the builtin ``sum`` compensates float rounding.
        # Made to compensate here on any interpreter, it must change no
        # reported total: the routing's objective, its closed-form LP
        # bound (all-rejection and uncongested) and the mean delay.
        monkeypatch.setattr(rmp, "sum", math.fsum, raising=False)
        monkeypatch.setattr(harness, "sum", math.fsum, raising=False)
        # Ten demands on one 0.1 ms edge; the unused edge sets the penalty.
        g = OverlayGraph.from_edges(
            2,
            {(0, 1): LinkMetrics(0.1, 0.0, 1000.0, 1.0), (1, 0): LinkMetrics(194.929, 0.0, 1000.0, 1.0)},
            [1000.0, 1000.0],
        )
        demands = [Demand(i, 0, 1, 1.0, 10.0, 0.5) for i in range(10)]
        report = solve_epoch(g, demands, "overlay", SolverConfig())
        delays, penalty = [0.1] * 10, report.master.dummy_penalty
        assert ordered_total(delays) != math.fsum(delays)
        assert ordered_total([penalty] * 10) != math.fsum([penalty] * 10)
        assert report.objective == ordered_total(delays)
        assert report.mean_delay_ms == ordered_total(delays) / 10
        bound = report.master.solve()
        assert bound.closed_form and bound.objective == report.objective
        rejecting = rmp.RestrictedMaster(report.master.table).solve()
        assert rejecting.closed_form and rejecting.objective == ordered_total([penalty] * 10)


class TestEmit:
    def test_csv_rows(self):
        trace, demands = small_trace()
        reports = run_timeseries(trace, demands, ["overlay", "direct"], SolverConfig())
        text = reports_to_csv(reports)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 4  # 2 epochs x 2 modes

    def test_json_roundtrip(self):
        trace, demands = small_trace()
        reports = run_timeseries(trace, demands, ["overlay"], SolverConfig())
        parsed = json.loads(reports_to_json(reports))
        assert len(parsed["reports"]) == len(reports)
        for got, src in zip(parsed["reports"], reports):
            assert got["epoch_ts"] == src.epoch_ts
            assert got["mode"] == src.mode
            assert got["n_accepted"] == src.n_accepted
            assert got["objective"] == src.objective
            assert got["mean_delay_ms"] == src.mean_delay_ms
            assert [o["demand"] for o in got["outcomes"]] == [
                o["demand"] for o in src.outcomes
            ]
        assert set(parsed["series"]) == {
            "acceptance_pct_vs_time",
            "runtime_ms_vs_time",
            "mean_delay_ms_vs_time",
            "acceptance_pct_vs_demands",
            "runtime_ms_vs_demands",
        }

    def test_failed_epoch_serializes_as_strict_json(self, monkeypatch):
        import cgroute.harness as harness
        from cgroute.errors import SolverError

        solved, failed = harness.solve, []

        def failing_first(*args, **kwargs):
            if not failed:
                failed.append(True)
                raise SolverError("LP backend returned 'numerical'")
            return solved(*args, **kwargs)

        monkeypatch.setattr(harness, "solve", failing_first)
        trace, demands = small_trace()
        reports = run_timeseries(trace, demands, ["overlay"], SolverConfig())
        assert [r.objective == math.inf for r in reports] == [True, False]

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        parsed = json.loads(reports_to_json(reports), parse_constant=reject)
        assert parsed["reports"][0]["objective"] is None
        assert parsed["reports"][0]["error"] == "LP backend returned 'numerical'"
        assert parsed["reports"][1]["objective"] == reports[1].objective

    def test_timing_can_be_suppressed(self):
        trace, demands = small_trace()
        reports = run_timeseries(trace, demands, ["overlay"], SolverConfig())
        stable = reports_to_csv(reports, include_timing=False)
        for line in stable.strip().split("\n")[1:]:
            assert line.split(",")[5] == "0.0"

    def test_emit_to_files(self, tmp_path):
        trace, demands = small_trace()
        reports = run_timeseries(trace, demands, ["overlay"], SolverConfig())
        csv_path = tmp_path / "out.csv"
        json_path = tmp_path / "out.json"
        emit_reports(reports, "csv", csv_path)
        emit_reports(reports, "json", json_path)
        assert csv_path.read_text().startswith(CSV_HEADER)
        assert json.loads(json_path.read_text())["reports"]
        with pytest.raises(InputError):
            emit_reports([], "csv", tmp_path / "never.csv")
        with pytest.raises(InputError):
            emit_reports(reports, "xml", tmp_path / "never.xml")


class TestJsonWriter:
    """``reports_to_json`` against ``json.dumps`` over the same payload."""

    @staticmethod
    def assert_matches_reference(reports):
        for timing in (True, False):
            payload = report_payload(reports, timing)
            assert reports_to_json(reports, timing) == reference_report_json(payload)

    @pytest.mark.parametrize("with_throughput", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_telco_replays(self, seed, with_throughput):
        trace, demands = small_trace(n_epochs=2, seed=seed)
        config = SolverConfig(seed=seed)
        if with_throughput:  # the rows of ``cgroute solve``; a replay has none
            reports = [
                solve_epoch(
                    trace.graph_for(ep), demands, mode, config, ep.timestamp, with_throughput=True
                )
                for ep in trace.epochs
                for mode in MODES
            ]
        else:
            reports = run_timeseries(trace, demands, MODES, config)
        assert {len(row) for r in reports for row in r.outcomes} == (
            {2, 6} if with_throughput else {2, 4}
        )
        self.assert_matches_reference(reports)

    def test_replay_report_makes_no_row(self, monkeypatch):
        # The rows exist only for a reader: a replay and both of its reports
        # read the routing's arrays alone.
        made = []
        row = harness.Outcomes._row
        monkeypatch.setattr(harness.Outcomes, "_row", lambda o, i: made.append(i) or row(o, i))
        trace, demands = small_trace(n_epochs=2, seed=2)
        reports = run_timeseries(trace, demands, MODES, SolverConfig())
        reports_to_json(reports)
        reports_to_csv(reports)
        assert made == []
        assert reports[0].outcomes[-1]["demand"] == max(d.id for d in demands)
        assert made == [len(demands) - 1]

    def test_reading_rows_changes_no_byte(self):
        trace, demands = small_trace(n_epochs=2, seed=0)
        reports = run_timeseries(trace, demands, MODES, SolverConfig())
        before = reports_to_json(reports)
        rows = [list(r.outcomes) for r in reports]
        rows[0][0]["demand"] = -1  # a reader's copy: the report keeps no row
        assert reports[0].outcomes[0]["demand"] == min(d.id for d in demands)
        assert reports_to_json(reports) == before
        with pytest.raises(ValueError):
            reports[0].outcomes.delay[0] = 0.0

    def test_loss_free_row(self):
        g = OverlayGraph.from_edges(
            3,
            {(0, 1): LinkMetrics(5.0, 0.0, 100.0, 1.0), (1, 2): LinkMetrics(7.5, 1.0, 100.0, 0.9)},
            [100.0] * 3,
        )
        demands = [Demand(0, 0, 1, 1.0, 10.0, 0.9), Demand(1, 1, 2, 1.0, 10.0, 0.5),
                   Demand(2, 2, 0, 1.0, 10.0, 0.5)]
        report = solve_epoch(g, demands, "overlay", SolverConfig(), with_throughput=True)
        assert [row["accepted"] for row in report.outcomes] == [True, True, False]
        assert [row.get("throughput_loss_free") for row in report.outcomes] == [True, False, None]
        self.assert_matches_reference([report])

    def test_failed_epoch_with_a_quoting_error(self):
        trace, demands = small_trace(n_epochs=1)
        (good,) = run_timeseries(trace, demands, ["overlay"], SolverConfig())
        failed = EpochReport(
            epoch_ts=300.0, mode="direct", n_demands=len(demands), n_accepted=0,
            runtime_ms=0.0, mean_delay_ms=None, objective=math.inf,
            error='HiGHS said "no"; "outcomes": [] and "outcomes": [',
        )
        # json.dumps escapes control and non-ASCII characters too.
        odd = replace(failed, error="tab\there, newline\nthere, \u00e9\u2028\\ end")
        reports = [failed, good, failed, odd]
        self.assert_matches_reference(reports)
        parsed = json.loads(reports_to_json(reports))["reports"]
        assert [r["error"] for r in parsed] == [failed.error, None, failed.error, odd.error]
        assert parsed[0]["objective"] is None and parsed[0]["outcomes"] == []

    @pytest.mark.parametrize("key", ["delay_ms", "throughput_mbps"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_raises(self, key, bad):
        g = hand_graph()
        demands = [Demand(0, 0, 3, 1.0, 1e6, 0.5)]
        report = solve_epoch(g, demands, "overlay", SolverConfig(), with_throughput=True)
        o = report.outcomes
        delay, mbps = o.delay.copy(), o.mbps.copy()
        {"delay_ms": delay, "throughput_mbps": mbps}[key][0] = bad
        broken = replace(
            report, outcomes=Outcomes(o.ids, o.accepted, o.ends, delay, o.n_nodes, mbps, o.loss_free)
        )
        assert not math.isfinite(broken.outcomes[0][key])
        with pytest.raises(ValueError):
            reference_report_json(report_payload([broken], True))
        with pytest.raises(ValueError):
            reports_to_json([broken])

    def test_unknown_row_shape_is_refused(self):
        # Rows are written from an Outcomes' arrays alone: any other
        # sequence of rows is refused, even rows in the shapes it makes.
        g = hand_graph()
        report = solve_epoch(g, [Demand(0, 0, 3, 1.0, 1e6, 0.5)], "overlay", SolverConfig())
        row = report.outcomes[0]
        for rows in ((row,), [row], ({**row, "extra": 1},), list(report.outcomes)):
            with pytest.raises(ContractError, match="not Outcomes"):
                reports_to_json([replace(report, outcomes=rows)])
