"""Bad input never ends in a traceback.

One row of a generated scenario file has one field replaced, dropped or
added, and the command that reads that file runs in-process. It must exit
0 or 2; on 2, the message names the file and, for a row of a
comma-separated file, the line. A params file's value may also fail its
field's rule, which names the field instead of a line.
"""

import re
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cgroute.cli import main
from cgroute.scenario import SyntheticParams

#: Each field edit: a replacement text, or dropping the field, or adding one.
EDITS = ["x", "nan", "inf", "1e400", "-1", "1,2", "none", "drop", "add"]

_SOLVE = ["solve", "--oracle", "--mode", "both", "--format", "json"]
_REPLAY = ["replay", "--mode", "both", "--format", "json"]

#: Per kind of mutated file: its scenario, its name there, how many header
#: lines it starts with, and the command that reads it. In the one-link
#: trace each epoch is one row, so a row's timestamp is its epoch's.
FILES = {
    "graph": ("syn", "graph.csv", 0, _SOLVE),
    "node_limits": ("syn", "node_limits.csv", 0, _SOLVE),
    "demands": ("syn", "demands.csv", 0, _SOLVE),
    "params": ("syn", "params.cfg", 0, ["generate"]),
    "trace": ("tel", "trace.csv", 1, _REPLAY),
    "one_link_trace": ("one", "trace.csv", 1, _REPLAY),
}


@pytest.fixture(scope="module")
def scenarios(tmp_path_factory):
    """A small synthetic scenario, a two-epoch telco one, and a one-link trace."""
    root = tmp_path_factory.mktemp("fuzz")
    params = root / "small.cfg"
    params.write_text("n_nodes = 9\nn_edges = 28\nn_demands = 12\nnode_capacity_mbps = 250.0\n")
    assert main(["generate", "--params", str(params), "--seed", "4", "--out-dir", str(root / "syn")]) == 0
    assert main(["generate", "--profile", "telco", "--epochs", "2", "--seed", "1",
                 "--out-dir", str(root / "tel")]) == 0
    one = root / "one"
    one.mkdir()
    (one / "trace.csv").write_text(
        "epoch_ts,src,dst,delay_ms,jitter_ms,capacity_mbps,success_prob\n"
        "0.0,0,1,10.0,1.0,100.0,0.99\n"
        "300.0,0,1,12.0,1.0,100.0,0.99\n"
    )
    (one / "node_limits.csv").write_text("0,100.0\n1,100.0\n")
    (one / "demands.csv").write_text("0,0,1,5.0,50.0,0.5\n")
    return root


def _mutate(text: str, kind: str, row: int, field: int, edit: str) -> str:
    """``text`` with one field of one data row edited."""
    lines = text.splitlines()
    header = FILES[kind][2]
    k = header + row % (len(lines) - header)
    head, sep, body = lines[k].partition(" = ") if kind == "params" else ("", "", lines[k])
    parts = body.split(",")
    i = field % len(parts)
    if edit == "drop":
        del parts[i]
    elif edit == "add":
        parts.insert(i, "1")
    else:
        parts[i] = edit
    lines[k] = head + sep + ",".join(parts)
    return "\n".join(lines) + "\n"


def _command(root: Path, kind: str, mutated: Path, out_dir: Path) -> list[str]:
    scenario, name, _, command = FILES[kind]
    if kind == "params":
        return [*command, "--params", mutated, "--out-dir", out_dir]
    inputs = {f: root / scenario / f for f in ("graph.csv", "trace.csv", "node_limits.csv", "demands.csv")}
    inputs[name] = mutated
    first = ["--graph", inputs["graph.csv"]] if command is _SOLVE else ["--trace", inputs["trace.csv"]]
    return [*command, *first, "--node-limits", inputs["node_limits.csv"], "--demands", inputs["demands.csv"]]


@settings(
    max_examples=600,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    kind=st.sampled_from(sorted(FILES)),
    row=st.integers(min_value=0, max_value=10**4),
    field=st.integers(min_value=0, max_value=7),
    edit=st.sampled_from(EDITS),
)
# Each of these once ended in a traceback or named no line.
@example(kind="one_link_trace", row=1, field=0, edit="inf")
@example(kind="one_link_trace", row=1, field=0, edit="nan")
@example(kind="params", row=0, field=0, edit="1,2")  # n_nodes = 1,2
@example(kind="params", row=2, field=1, edit="drop")  # capacity_range_mbps = 300.0
@example(kind="params", row=9, field=0, edit="1,2")  # rate_fixed_mbps = 1,2
@example(kind="params", row=12, field=0, edit="none")  # seed = none
def test_mutated_row_exits_0_or_names_the_file(scenarios, tmp_path, capsys, kind, row, field, edit):
    scenario, name = FILES[kind][:2]
    source = scenarios / scenario / name
    example_dir = Path(tmp_path) / f"{kind}-{row}-{field}-{edit.replace(',', '_')}"
    example_dir.mkdir(exist_ok=True)
    mutated = example_dir / source.name
    mutated.write_text(_mutate(source.read_text(), kind, row, field, edit))
    capsys.readouterr()
    code = main([str(a) for a in _command(scenarios, kind, mutated, example_dir / "out")])
    err = capsys.readouterr().err
    assert code in (0, 2), err
    assert "Traceback" not in err
    if code == 2:
        keys = "|".join(f.name for f in fields(SyntheticParams))
        where = r"line \d+: " if kind != "params" else rf"(line \d+: |({keys}) )"
        assert re.match(f"input error: {re.escape(str(mutated))}: {where}", err), err
