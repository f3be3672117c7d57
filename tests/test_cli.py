import json
from collections import Counter

import pytest

from cgroute.cli import main
from cgroute.exact import ExactLimits


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture
def scenario_dir(tmp_path):
    out = tmp_path / "scn"
    assert run(["generate", "--profile", "synthetic", "--seed", "4", "--out-dir", out,
                "--params", _small_params(tmp_path)]) == 0
    return out


def _small_params(tmp_path):
    p = tmp_path / "params.cfg"
    p.write_text(
        "n_nodes = 9\n"
        "n_edges = 28\n"
        "n_demands = 12\n"
        "node_capacity_mbps = 250.0\n"
    )
    return p


def _two_node_scenario(tmp_path, graph, demands):
    """A 2-node scenario from literal graph and demand file contents."""
    paths = {"graph": graph, "limits": "0,100.0\n1,100.0\n", "demands": demands}
    for name, text in paths.items():
        (tmp_path / f"{name}.csv").write_text(text)
    return [
        "--graph", tmp_path / "graph.csv",
        "--node-limits", tmp_path / "limits.csv",
        "--demands", tmp_path / "demands.csv",
    ]


_EDGE_01 = "0,1,10.0,1.0,100.0,0.99\n"
_DEMAND_01 = "0,0,1,5.0,50.0,0.5\n"


class TestGenerate:
    def test_synthetic_files(self, scenario_dir):
        for name in ("graph.csv", "node_limits.csv", "demands.csv", "params.cfg"):
            assert (scenario_dir / name).exists()

    def test_telco_files(self, tmp_path):
        out = tmp_path / "telco"
        assert run(["generate", "--profile", "telco", "--epochs", "2", "--seed", "1",
                    "--out-dir", out]) == 0
        for name in ("trace.csv", "node_limits.csv", "demands.csv", "graph.csv"):
            assert (out / name).exists()

    @pytest.mark.parametrize("profile", ["synthetic", "telco"])
    def test_out_dir_under_a_file_exits_2(self, tmp_path, capsys, profile):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "x"
        epochs = ["--epochs", "1"] if profile == "telco" else []
        assert run(["generate", "--profile", profile, *epochs, "--out-dir", out]) == 2
        assert f"input error: cannot write {out}: " in capsys.readouterr().err

    def test_bad_input_makes_no_out_dir(self, tmp_path, capsys):
        out = tmp_path / "telco"
        assert run(["generate", "--profile", "telco", "--epochs", "0", "--out-dir", out]) == 2
        assert "need at least one epoch" in capsys.readouterr().err
        assert not out.exists()

    def test_params_file_seed_round_trip(self, tmp_path):
        # A scenario's params.cfg, read back without --seed, draws the same scenario.
        first, again = tmp_path / "first", tmp_path / "again"
        assert run(["generate", "--seed", "5", "--params", _small_params(tmp_path),
                    "--out-dir", first]) == 0
        assert "seed = 5\n" in (first / "params.cfg").read_text()
        assert run(["generate", "--params", first / "params.cfg", "--out-dir", again]) == 0
        for name in ("graph.csv", "node_limits.csv", "demands.csv", "params.cfg"):
            assert (again / name).read_bytes() == (first / name).read_bytes()

    def test_seed_option_replaces_the_files_seed(self, tmp_path):
        params = tmp_path / "seeded.cfg"
        params.write_text(_small_params(tmp_path).read_text() + "seed = 5\n")
        for seed in ("0", "6"):
            out = tmp_path / seed
            assert run(["generate", "--params", params, "--seed", seed, "--out-dir", out]) == 0
            assert f"seed = {seed}\n" in (out / "params.cfg").read_text()

    def test_telco_refuses_a_params_file(self, tmp_path, capsys):
        out = tmp_path / "telco"
        code = run(["generate", "--profile", "telco", "--params", _small_params(tmp_path),
                    "--out-dir", out])
        assert code == 2
        assert "--params applies to the synthetic profile only" in capsys.readouterr().err
        assert not out.exists()

    def test_synthetic_refuses_epochs(self, tmp_path, capsys):
        # --epochs sets the trace length, and a synthetic scenario has no trace.
        out = tmp_path / "syn"
        assert run(["generate", "--epochs", "5", "--out-dir", out]) == 2
        assert capsys.readouterr().err == "input error: --epochs applies to the telco profile only\n"
        assert not out.exists()


class TestSolve:
    def test_solve_writes_report(self, scenario_dir, tmp_path):
        out = tmp_path / "report.csv"
        code = run([
            "solve",
            "--graph", scenario_dir / "graph.csv",
            "--node-limits", scenario_dir / "node_limits.csv",
            "--demands", scenario_dir / "demands.csv",
            "--mode", "both",
            "--seed", "4",
            "--out", out,
        ])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 3  # header + overlay + direct

    def test_dump_lp(self, scenario_dir, tmp_path):
        lp = tmp_path / "master.lp"
        code = run([
            "solve",
            "--graph", scenario_dir / "graph.csv",
            "--node-limits", scenario_dir / "node_limits.csv",
            "--demands", scenario_dir / "demands.csv",
            "--seed", "4",
            "--out", tmp_path / "r.csv",
            "--dump-lp", lp,
        ])
        assert code == 0
        text = lp.read_text()
        assert text.startswith("\\ restricted master")
        assert "Minimize" in text and "End" in text

    def test_dump_lp_follows_mode(self, scenario_dir, tmp_path):
        def dump(mode):
            lp = tmp_path / f"{mode}.lp"
            code = run([
                "solve",
                "--graph", scenario_dir / "graph.csv",
                "--node-limits", scenario_dir / "node_limits.csv",
                "--demands", scenario_dir / "demands.csv",
                "--mode", mode,
                "--seed", "4",
                "--out", tmp_path / f"{mode}.csv",
                "--dump-lp", lp,
            ])
            assert code == 0
            return lp.read_text()

        def edges_per_column(text):
            counts = Counter()
            for line in text.splitlines():
                if line.startswith(" cap_e_"):
                    lhs = line.split(":", 1)[1].split("<=")[0]
                    counts.update(term.split()[1] for term in lhs.split(" + "))
            return counts

        direct = edges_per_column(dump("direct"))
        assert direct and set(direct.values()) == {1}
        overlay = dump("overlay")
        assert 2 in edges_per_column(overlay).values()
        assert dump("both") == overlay

    @pytest.mark.parametrize("mode, runs", [("overlay", 1), ("direct", 1), ("both", 2)])
    def test_dump_lp_reuses_the_solved_master(
        self, scenario_dir, tmp_path, monkeypatch, mode, runs
    ):
        # The dump is the master the report's solve ended with: column
        # generation runs once per mode, not once more for the dump.
        import cgroute.solver as solver

        calls = []
        original = solver.column_generation

        def counting(*args, **kwargs):
            calls.append(mode)
            return original(*args, **kwargs)

        monkeypatch.setattr(solver, "column_generation", counting)
        lp = tmp_path / "master.lp"
        code = run([
            "solve",
            "--graph", scenario_dir / "graph.csv",
            "--node-limits", scenario_dir / "node_limits.csv",
            "--demands", scenario_dir / "demands.csv",
            "--mode", mode,
            "--out", tmp_path / "r.csv",
            "--dump-lp", lp,
        ])
        assert code == 0
        assert len(calls) == runs
        assert lp.read_text().startswith("\\ restricted master")

    def test_dump_lp_write_error_exits_2(self, scenario_dir, tmp_path, capsys):
        lp = tmp_path / "missing" / "master.lp"
        code = run([
            "solve",
            "--graph", scenario_dir / "graph.csv",
            "--node-limits", scenario_dir / "node_limits.csv",
            "--demands", scenario_dir / "demands.csv",
            "--dump-lp", lp,
        ])
        assert code == 2
        assert f"input error: cannot write {lp}: " in capsys.readouterr().err

    def test_bad_file_exits_2(self, scenario_dir, tmp_path):
        broken = tmp_path / "broken.csv"
        broken.write_text("0,1,oops\n")
        code = run([
            "solve",
            "--graph", broken,
            "--node-limits", scenario_dir / "node_limits.csv",
            "--demands", scenario_dir / "demands.csv",
        ])
        assert code == 2

    def test_infinite_capacity_exits_2(self, tmp_path, capsys):
        files = _two_node_scenario(tmp_path, _EDGE_01 + "1,0,10.0,1.0,inf,0.99\n", _DEMAND_01)
        assert run(["solve", *files]) == 2
        assert f"{tmp_path / 'graph.csv'}: line 2: capacity must be finite" in capsys.readouterr().err

    def test_infinite_rate_exits_2(self, tmp_path, capsys):
        files = _two_node_scenario(tmp_path, _EDGE_01, _DEMAND_01 + "1,0,1,inf,50.0,0.5\n")
        assert run(["solve", *files]) == 2
        assert f"{tmp_path / 'demands.csv'}: line 2: demand 1: rate must be finite" in capsys.readouterr().err

    def test_demand_outside_graph_exits_2(self, tmp_path, capsys):
        files = _two_node_scenario(tmp_path, _EDGE_01, _DEMAND_01 + "1,0,7,5.0,50.0,0.5\n")
        assert run(["solve", *files]) == 2
        want = f"input error: {tmp_path / 'demands.csv'}: line 2: demand 1: endpoint outside the graph's nodes 0..1\n"
        assert capsys.readouterr().err == want

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_overflowing_penalty_exits_2(self, tmp_path, capsys, fmt):
        # Two 60 Mbps demands on one 100 Mbps link: rejecting both would
        # cost more than a float holds.
        files = _two_node_scenario(
            tmp_path, "0,1,1e307,1.0,100.0,0.99\n", "0,0,1,60.0,5000.0,0.5\n1,0,1,60.0,5000.0,0.5\n"
        )
        assert run(["solve", *files, "--mode", "both", "--oracle", "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "input error: rejecting all 2 demands costs more than a float holds: "
            "the largest link delay, 1e+307 ms, is too large\n"
        )
        assert captured.out == ""

    def test_bad_node_limit_names_its_file(self, tmp_path, capsys):
        files = _two_node_scenario(tmp_path, _EDGE_01, _DEMAND_01)
        (tmp_path / "limits.csv").write_text("0,100.0\n1,-5\n")
        assert run(["solve", *files]) == 2
        want = f"{tmp_path / 'limits.csv'}: line 2: node 1: processing limit must be finite and >= 0"
        assert want in capsys.readouterr().err

    def test_zero_delay_graph_solves(self, tmp_path, capsys):
        files = _two_node_scenario(tmp_path, "0,1,0.0,0.0,100.0,0.99\n", _DEMAND_01)
        assert run(["solve", *files, "--format", "json"]) == 0
        (row,) = json.loads(capsys.readouterr().out)["reports"][0]["outcomes"]
        assert row["delay_ms"] == 0.0
        assert row["throughput_mbps"] == 10000.0
        assert row["throughput_loss_free"] is False

    def test_missing_file_exits_2(self, scenario_dir):
        code = run([
            "solve",
            "--graph", "does-not-exist.csv",
            "--node-limits", scenario_dir / "node_limits.csv",
            "--demands", scenario_dir / "demands.csv",
        ])
        assert code == 2


class TestReplay:
    def test_replay_telco(self, tmp_path):
        out = tmp_path / "telco"
        assert run(["generate", "--profile", "telco", "--epochs", "2", "--seed", "2",
                    "--out-dir", out]) == 0
        report = tmp_path / "replay.json"
        code = run([
            "replay",
            "--trace", out / "trace.csv",
            "--node-limits", out / "node_limits.csv",
            "--demands", out / "demands.csv",
            "--mode", "both",
            "--seed", "2",
            "--format", "json",
            "--out", report,
        ])
        assert code == 0
        payload = json.loads(report.read_text())
        assert len(payload["reports"]) == 4

    def test_byte_identical_reports_without_timing(self, tmp_path):
        out = tmp_path / "telco"
        assert run(["generate", "--profile", "telco", "--epochs", "2", "--seed", "3",
                    "--out-dir", out]) == 0
        runs = []
        for name in ("a.csv", "b.csv"):
            dest = tmp_path / name
            code = run([
                "replay",
                "--trace", out / "trace.csv",
                "--node-limits", out / "node_limits.csv",
                "--demands", out / "demands.csv",
                "--mode", "both",
                "--seed", "3",
                "--no-timing",
                "--out", dest,
            ])
            assert code == 0
            runs.append(dest.read_bytes())
        assert runs[0] == runs[1]

    def test_demand_outside_trace_exits_2(self, tmp_path, capsys):
        (tmp_path / "trace.csv").write_text(
            "epoch_ts,src,dst,delay_ms,jitter_ms,capacity_mbps,success_prob\n"
            "0.0,0,1,10.0,1.0,100.0,0.99\n"
            "300.0,0,1,12.0,1.0,100.0,0.99\n"
        )
        (tmp_path / "limits.csv").write_text("0,100.0\n1,100.0\n")
        (tmp_path / "demands.csv").write_text(_DEMAND_01 + "1,0,7,5.0,50.0,0.5\n")
        code = run([
            "replay",
            "--trace", tmp_path / "trace.csv",
            "--node-limits", tmp_path / "limits.csv",
            "--demands", tmp_path / "demands.csv",
            "--mode", "both",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert f"{tmp_path / 'demands.csv'}: line 2: demand 1: endpoint outside" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("ts", ["inf", "-inf", "1e400", "nan"])
    def test_non_finite_timestamp_exits_2(self, tmp_path, capsys, ts, fmt):
        trace = tmp_path / "trace.csv"
        trace.write_text(
            "epoch_ts,src,dst,delay_ms,jitter_ms,capacity_mbps,success_prob\n"
            "0.0,0,1,10.0,1.0,100.0,0.99\n"
            f"{ts},0,1,12.0,1.0,100.0,0.99\n"
        )
        (tmp_path / "limits.csv").write_text("0,100.0\n1,100.0\n")
        (tmp_path / "demands.csv").write_text(_DEMAND_01)
        code = run([
            "replay",
            "--trace", trace,
            "--node-limits", tmp_path / "limits.csv",
            "--demands", tmp_path / "demands.csv",
            "--format", fmt,
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"input error: {trace}: line 3: epoch timestamp '{ts}' is not finite\n"
        assert captured.out == ""


class TestParamsFile:
    @pytest.mark.parametrize(
        "line",
        [
            "capacity_range_mbps = 5",
            "n_nodes = 1,2",
            "rate_fixed_mbps = 5,6",
            "node_capacity_mbps = none",
            "n_demands = none",
            "seed = none",
        ],
    )
    def test_wrong_shaped_value_names_its_line(self, tmp_path, capsys, line):
        params = tmp_path / "params.cfg"
        params.write_text(f"rate_mean_mbps = 50.0\n{line}\n")
        assert run(["generate", "--params", params, "--out-dir", tmp_path / "out"]) == 2
        key, _, value = line.partition(" = ")
        captured = capsys.readouterr()
        assert captured.err == f"input error: {params}: line 2: bad {key} value {value!r}\n"
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["generate", "sweep"])
    def test_edge_count_that_does_not_fit_names_the_file(self, tmp_path, capsys, command):
        # The default 450 directed edges do not fit on 9 nodes.
        params = tmp_path / "params.cfg"
        params.write_text("n_nodes = 9\n")
        extra = ["--out-dir", tmp_path / "out"] if command == "generate" else []
        assert run([command, "--params", params, *extra]) == 2
        captured = capsys.readouterr()
        rule = "n_edges must be an even count in [16, 72] on 9 nodes, got 450"
        assert captured.err == f"input error: {params}: {rule}\n"
        assert captured.out == ""
        assert not (tmp_path / "out").exists()


class TestSeed:
    @pytest.fixture
    def telco_dir(self, tmp_path):
        out = tmp_path / "telco"
        assert run(["generate", "--profile", "telco", "--epochs", "1", "--out-dir", out]) == 0
        return out

    @pytest.mark.parametrize("command", ["solve", "replay", "sweep", "generate"])
    def test_negative_seed_exits_2(self, telco_dir, tmp_path, capsys, command):
        inputs = ["--node-limits", telco_dir / "node_limits.csv",
                  "--demands", telco_dir / "demands.csv"]
        args = {
            "solve": ["--graph", telco_dir / "graph.csv", *inputs],
            "replay": ["--trace", telco_dir / "trace.csv", *inputs],
            "sweep": [],
            "generate": ["--out-dir", tmp_path / "out"],
        }[command]
        capsys.readouterr()
        assert run([command, *args, "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert "--seed" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()


class TestSweep:
    def test_small_sweep(self, tmp_path):
        params = _small_params(tmp_path)
        out = tmp_path / "sweep.csv"
        code = run([
            "sweep",
            "--params", params,
            "--demand-counts", "4,8",
            "--mode", "both",
            "--seed", "5",
            "--out", out,
        ])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 5  # header + 2 counts x 2 modes
        assert {line.split(",")[2] for line in lines[1:]} == {"4", "8"}

    def test_params_file_seed_seeds_the_sweep(self, tmp_path, capsys):
        # The file's seed draws the net and the demands and seeds the
        # rounding, as --seed with a seedless file does.
        seeded = tmp_path / "seeded.cfg"
        seeded.write_text(_small_params(tmp_path).read_text() + "seed = 5\n")
        args = ["sweep", "--demand-counts", "30,60", "--mode", "both", "--no-timing"]
        outputs = []
        for extra in (["--params", seeded], ["--params", _small_params(tmp_path), "--seed", "5"],
                      ["--params", _small_params(tmp_path)]):
            capsys.readouterr()
            assert run([*args, *extra]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] != outputs[2]


class TestExactGap:
    def test_exact_gap_runs(self, scenario_dir, tmp_path):
        out = tmp_path / "gap.csv"
        code = run([
            "solve",
            "--graph", scenario_dir / "graph.csv",
            "--node-limits", scenario_dir / "node_limits.csv",
            "--demands", scenario_dir / "demands.csv",
            "--seed", "4",
            "--oracle",
            "--out", out,
        ])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        gap = lines[1].split(",")[8]
        assert float(gap) >= -1e-6

    @pytest.mark.parametrize("limit", ["nan", "inf", "0"])
    def test_bad_time_limit_exits_2(self, scenario_dir, capsys, limit):
        code = run([
            "solve",
            "--graph", scenario_dir / "graph.csv",
            "--node-limits", scenario_dir / "node_limits.csv",
            "--demands", scenario_dir / "demands.csv",
            "--oracle",
            "--time-limit", limit,
        ])
        assert code == 2
        assert "search limits must be" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--time-limit", "60"), ("--max-nodes", "100")])
    def test_limits_without_oracle_exit_2(self, scenario_dir, tmp_path, capsys, flag, value):
        # A search budget with no search to spend it on is refused, not ignored.
        out = tmp_path / "r.csv"
        code = run([
            "solve",
            "--graph", scenario_dir / "graph.csv",
            "--node-limits", scenario_dir / "node_limits.csv",
            "--demands", scenario_dir / "demands.csv",
            flag, value,
            "--out", out,
        ])
        assert code == 2
        assert capsys.readouterr().err == f"input error: {flag} applies with --oracle only\n"
        assert not out.exists()

    def test_limits_reach_the_exact_benchmark(self, scenario_dir, monkeypatch):
        import cgroute.harness as harness

        seen = []
        original = harness.solve_exact

        def recording(graph, demands, limits, *args, **kwargs):
            seen.append(limits)
            return original(graph, demands, limits, *args, **kwargs)

        monkeypatch.setattr(harness, "solve_exact", recording)
        code = run([
            "solve",
            "--graph", scenario_dir / "graph.csv",
            "--node-limits", scenario_dir / "node_limits.csv",
            "--demands", scenario_dir / "demands.csv",
            "--mode", "both",
            "--oracle", "--time-limit", "60", "--max-nodes", "100000",
            "--no-timing",
        ])
        assert code == 0
        assert seen == [ExactLimits(max_nodes=100_000, time_limit_s=60.0)] * 2

    def test_no_exact_gap_command(self, scenario_dir, capsys):
        # The heuristic-vs-exact gap is `solve --oracle`'s report.
        assert run(["exact-gap", "--graph", scenario_dir / "graph.csv"]) == 2
        assert "No such command 'exact-gap'" in capsys.readouterr().err
