import json
from collections import Counter

import pytest

from cgroute.cli import main


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


class TestExactGap:
    def test_exact_gap_runs(self, scenario_dir, tmp_path):
        out = tmp_path / "gap.csv"
        code = run([
            "exact-gap",
            "--graph", scenario_dir / "graph.csv",
            "--node-limits", scenario_dir / "node_limits.csv",
            "--demands", scenario_dir / "demands.csv",
            "--seed", "4",
            "--out", out,
        ])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        gap = lines[1].split(",")[8]
        assert float(gap) >= -1e-6
