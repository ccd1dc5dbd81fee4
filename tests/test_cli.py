import csv
import json
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from recolor import (
    Coloring,
    Graph,
    ImproperStep,
    experiments,
    mcs_order,
    pipeline_theorem,
)
from recolor.cli import main


def run(*argv):
    return main(list(argv))


def _write(path, obj):
    path.write_text(json.dumps(obj))


def test_gen_check_decompose_recolor_audit_flow(tmp_path, capsys):
    g = tmp_path / "g.json"
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    peo = tmp_path / "peo.json"
    seq = tmp_path / "seq.json"
    report = tmp_path / "report.json"

    assert run(
        "gen", "--family", "chordal-omega3", "--n", "20", "--seed", "3",
        "--out", str(g), "--coloring-out", str(a), "--coloring-seed", "7",
    ) == 0
    assert run(
        "gen", "--family", "chordal-omega3", "--n", "20", "--seed", "3",
        "--out", str(g), "--coloring-out", str(b), "--coloring-seed", "8",
    ) == 0
    assert run("check", "--graph", str(g), "--coloring", str(a)) == 0
    assert run("decompose", "--graph", str(g), "--peo", str(peo)) == 0
    assert run(
        "recolor", "--graph", str(g), "--peo", str(peo), "--alpha", str(a),
        "--beta", str(b), "--k", "5", "--out", str(seq), "--trace",
    ) == 0
    assert run(
        "check", "--graph", str(g), "--seq", str(seq), "--expect-final", str(b)
    ) == 0
    assert run(
        "audit", "--graph", str(g), "--peo", str(peo), "--seq", str(seq),
        "--json-out", str(report),
    ) == 0
    blob = json.loads(report.read_text())
    assert blob["violations"] == []

    reduced = tmp_path / "reduced.json"
    assert run(
        "reduce", "--graph", str(g), "--alpha", str(a), "--out", str(reduced),
    ) == 0
    merged = json.loads(reduced.read_text())
    assert set(merged) == {"graph", "merge_map", "coloring"}

    # K4 has treewidth 3, so the elimination stalls: one error line, exit 1
    k4 = tmp_path / "k4.json"
    _write(k4, {"n": 4, "edges": [[i, j] for i in range(4) for j in range(i + 1, 4)]})
    _write(a, {"k": 5, "colors": [1, 2, 3, 4]})
    assert run("reduce", "--graph", str(k4), "--alpha", str(a), "--out", str(reduced)) == 1
    err = capsys.readouterr().err
    assert err == "error: NotWidth2: all remaining vertices have degree at least 3\n"


def test_check_flags_improper_coloring(tmp_path, capsys):
    g = tmp_path / "g.json"
    c = tmp_path / "c.json"
    seq = tmp_path / "seq.json"
    _write(g, {"n": 2, "edges": [[0, 1]]})
    _write(c, {"k": 2, "colors": [1, 1]})
    assert run("check", "--graph", str(g), "--coloring", str(c)) == 1
    assert capsys.readouterr().out == "improper\n"

    _write(seq, {"start": {"k": 3, "colors": [1, 2]}, "steps": [[0, 2]]})
    assert run("check", "--graph", str(g), "--seq", str(seq)) == 1
    assert capsys.readouterr().out == "invalid: step 0: vertex 0 -> 2 collides with neighbor 1\n"

    # the sequence ends at [3, 2], not at its start [1, 2]
    _write(seq, {"start": {"k": 3, "colors": [1, 2]}, "steps": [[0, 3]]})
    _write(c, {"k": 3, "colors": [1, 2]})
    assert run("check", "--graph", str(g), "--seq", str(seq), "--expect-final", str(c)) == 1
    assert capsys.readouterr().out.splitlines() == [
        "valid sequence of 1 steps", "final coloring does not match the expected one",
    ]

    # an expected final coloring of another length is rejected before the replay
    for colors in ([1], [1, 2, 3]):
        _write(c, {"k": 3, "colors": colors})
        assert run("check", "--graph", str(g), "--seq", str(seq), "--expect-final", str(c)) == 1
        err = f"error: InvalidColoring: expected final coloring has {len(colors)} entries, not 2\n"
        assert capsys.readouterr() == ("", err)

    # decompose has one output, so argparse rejects a run without it
    with pytest.raises(SystemExit) as exit_info:
        run("decompose", "--graph", str(g))
    assert exit_info.value.code == 2
    assert "the following arguments are required: --peo" in capsys.readouterr().err


def test_pipeline_and_oracle(tmp_path, capsys):
    g = tmp_path / "g.json"
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    seq = tmp_path / "seq.json"
    k3 = tmp_path / "k3.json"
    rainbow = tmp_path / "rainbow.json"
    shifted = tmp_path / "shifted.json"
    _write(g, {"n": 3, "edges": [[0, 1], [1, 2]]})
    _write(a, {"k": 5, "colors": [1, 2, 1]})
    _write(b, {"k": 5, "colors": [2, 1, 2]})
    _write(k3, {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]})
    _write(rainbow, {"k": 3, "colors": [1, 2, 3]})
    _write(shifted, {"k": 3, "colors": [2, 3, 1]})
    g8 = tmp_path / "g8.json"
    assert run("gen", "--family", "partial-2tree", "--n", "8", "--seed", "1", "--out", str(g8)) == 0
    assert run(
        "pipeline", "--graph", str(g), "--alpha", str(a), "--beta", str(b),
        "--out", str(seq),
    ) == 0
    assert run(
        "check", "--graph", str(g), "--seq", str(seq), "--expect-final", str(b)
    ) == 0
    assert run(
        "oracle", "distance", "--graph", str(g), "--k", "5",
        "--alpha", str(a), "--beta", str(b),
    ) == 0
    assert run("oracle", "connected", "--graph", str(g), "--k", "3") == 0
    # rainbow colorings of K3 at k = 3 are frozen
    for argv in (
        ("distance", "--graph", str(k3), "--k", "3", "--alpha", str(rainbow),
         "--beta", str(shifted)),
        ("distance", "--graph", str(k3), "--k", "3", "--alpha", str(rainbow),
         "--beta", str(rainbow)),
        ("connected", "--graph", str(k3), "--k", "3"),
        ("connected", "--graph", str(k3), "--k", "4"),
        # no proper colouring: an empty space is connected
        ("connected", "--graph", str(k3), "--k", "2"),
        ("connected", "--graph", str(g8), "--k", "1"),
    ):
        assert run("oracle", *argv) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[-8:] == [
        "4", "connected", "unreachable", "0", "disconnected", "connected", "connected", "connected",
    ]


def test_oracle_on_the_empty_graph_at_a_huge_k(tmp_path, capsys):
    # the empty graph's one state is its whole space at any k
    g = tmp_path / "e0.json"
    e = tmp_path / "e.json"
    _write(g, {"n": 0, "edges": []})
    _write(e, {"k": 10**18, "colors": []})
    oracle = ("oracle", "--graph", str(g), "--k", str(10**18))
    assert run(*oracle, "connected") == 0
    assert run(*oracle, "distance", "--alpha", str(e), "--beta", str(e)) == 0
    assert capsys.readouterr() == ("connected\n0\n", "")


def test_oracle_on_one_vertex_at_the_largest_k_the_cap_admits(tmp_path, capsys):
    # 2,000,000^1 states fill the default cap; the distance search rewrites
    # the one frontier state to every colour in one broadcast, so the call
    # ends in milliseconds where a batch per colour took about 10 s
    k = 2_000_000
    g, a, b = (tmp_path / name for name in ("g.json", "a.json", "b.json"))
    _write(g, {"n": 1, "edges": []})
    _write(a, {"k": k, "colors": [1]})
    _write(b, {"k": k, "colors": [k]})
    oracle = ("oracle", "--graph", str(g), "--k", str(k))
    started = time.perf_counter()
    assert run(*oracle, "distance", "--alpha", str(a), "--beta", str(b)) == 0
    assert time.perf_counter() - started < 5
    assert run(*oracle, "connected") == 0
    assert capsys.readouterr() == ("1\nconnected\n", "")


def test_oracle_too_large_is_an_error(tmp_path):
    g = tmp_path / "g.json"
    _write(g, {"n": 40, "edges": []})
    assert run("oracle", "connected", "--graph", str(g), "--k", "5") == 1


def test_oracle_diameter_is_a_usage_error(tmp_path, capsys):
    # the oracle answers distances and connectivity only
    g = tmp_path / "g.json"
    _write(g, {"n": 1, "edges": []})
    with pytest.raises(SystemExit) as exc:
        run("oracle", "diameter", "--graph", str(g))
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    errors = [line for line in err.splitlines() if "error:" in line]
    assert out == "" and len(errors) == 1
    assert "invalid choice: 'diameter'" in errors[0] and "'distance', 'connected'" in errors[0]


def test_bad_input_is_one_error_line(tmp_path, capsys):
    g = tmp_path / "g.json"
    c = tmp_path / "c.json"
    bad = tmp_path / "bad.json"
    path3 = tmp_path / "path3.json"
    a3 = tmp_path / "a3.json"
    b3 = tmp_path / "b3.json"
    seq3 = tmp_path / "seq3.json"
    short = tmp_path / "short.json"
    dup = tmp_path / "dup.json"
    _write(g, {"n": 2, "edges": [[0, 1]]})
    _write(c, {"k": 2, "colors": [1, 2]})
    _write(bad, {"n": 2, "edges": [[0, 5]]})
    _write(path3, {"n": 3, "edges": [[0, 1], [1, 2]]})
    _write(a3, {"k": 5, "colors": [1, 2, 1]})
    _write(b3, {"k": 5, "colors": [2, 1, 2]})
    _write(seq3, {"start": {"k": 5, "colors": [1, 2, 1]}, "steps": [[0, 3]]})
    _write(short, {"order": [0, 1]})
    _write(dup, {"order": [0, 0, 1]})
    no_colors = tmp_path / "no_colors.json"
    no_edges = tmp_path / "no_edges.json"
    not_json = tmp_path / "not_json.json"
    _write(no_colors, {"k": 2})
    _write(no_edges, {"n": 2})
    not_json.write_text("{not json")
    # floats where integers belong, which int() would have truncated
    floats = tmp_path / "floats.json"
    float_colors = tmp_path / "float_colors.json"
    _write(floats, {"n": 3.9, "edges": [[0.2, 1.7]]})
    _write(float_colors, {"k": 5, "colors": [1.5, 2.9, 1]})
    missing = str(tmp_path / "missing.json")
    recolor3 = ("recolor", "--graph", str(path3), "--alpha", str(a3), "--beta", str(b3))
    audit3 = ("audit", "--graph", str(path3), "--seq", str(seq3))
    for argv in (
        ("oracle", "distance", "--graph", str(g), "--k", "3"),
        ("oracle", "distance", "--graph", str(g), "--alpha", str(c)),
        ("oracle", "connected", "--graph", str(g), "--k", "0"),
        ("oracle", "connected", "--graph", str(g), "--k", "-1"),
        ("check", "--graph", str(bad), "--coloring", str(c)),
        recolor3 + ("--peo", str(short), "--out", str(tmp_path / "out.json")),
        recolor3 + ("--peo", str(dup), "--out", str(tmp_path / "out.json")),
        audit3 + ("--peo", str(short)),
        audit3 + ("--peo", str(dup)),
        ("check", "--graph", str(g), "--coloring", str(no_colors)),
        ("check", "--graph", str(no_edges), "--coloring", str(c)),
        ("check", "--graph", str(not_json), "--coloring", str(c)),
        ("check", "--graph", str(floats), "--coloring", str(float_colors)),
        ("check", "--graph", str(path3), "--coloring", str(float_colors)),
        ("check", "--graph", missing, "--coloring", str(c)),
        ("check", "--graph", str(path3), "--seq", str(seq3), "--expect-final", missing),
        ("check", "--graph", str(path3), "--coloring", str(a3), "--expect-final", str(b3)),
        ("pipeline", "--graph", str(path3), "--alpha", str(a3), "--beta", missing,
         "--out", str(tmp_path / "out.json")),
        ("bench", "--family", "chordal-omega3", "--sizes", "a,b",
         "--out", str(tmp_path / "bench.csv")),
        ("gen", "--family", "partial-2tree", "--n", "10", "--keep-prob", "2",
         "--out", str(tmp_path / "gen.json")),
    ):
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidInput: ") and err.count("\n") == 1

    # 5^30 states pass this cap but exceed numpy's largest array index
    edgeless30 = tmp_path / "edgeless30.json"
    _write(edgeless30, {"n": 30, "edges": []})
    assert run(
        "oracle", "connected", "--graph", str(edgeless30),
        "--state-cap", "1000000000000000000000",
    ) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: TooLarge: ") and err.count("\n") == 1


def test_audit_exit_code_on_violation(tmp_path):
    g = tmp_path / "g.json"
    peo = tmp_path / "peo.json"
    seq = tmp_path / "seq.json"
    _write(g, {"n": 2, "edges": [[0, 1]]})
    _write(peo, {"order": [0, 1]})
    _write(
        seq,
        {"start": {"k": 5, "colors": [1, 2]}, "steps": [[0, 3], [0, 4]]},
    )
    assert run("audit", "--graph", str(g), "--peo", str(peo), "--seq", str(seq)) == 1


def test_audit_and_recolor_reject_an_ordering_that_is_not_perfect(tmp_path, capsys):
    g, peo, seq = tmp_path / "g.json", tmp_path / "peo.json", tmp_path / "seq.json"
    a, b, out = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "out.json"
    # the path 0-1-2 with 1 first: its later neighbours 0 and 2 are not adjacent
    _write(g, {"n": 3, "edges": [[0, 1], [1, 2]]})
    _write(peo, {"order": [1, 0, 2]})
    _write(a, {"k": 5, "colors": [1, 2, 1]})
    _write(b, {"k": 5, "colors": [2, 1, 2]})
    # a valid sequence from a to b, so only the ordering is at fault
    _write(seq, {"start": {"k": 5, "colors": [1, 2, 1]},
                 "steps": [[1, 3], [0, 2], [2, 2], [1, 1]]})
    assert run("check", "--graph", str(g), "--seq", str(seq), "--expect-final", str(b)) == 0
    capsys.readouterr()
    for argv in (
        ("audit", "--seq", str(seq)),
        ("recolor", "--alpha", str(a), "--beta", str(b), "--out", str(out)),
    ):
        assert run(*argv, "--graph", str(g), "--peo", str(peo)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: InvalidInput: ordering is not a perfect elimination ordering\n"
        )
    assert not out.exists()


def test_bench_writes_csv(tmp_path):
    out = tmp_path / "bench.csv"
    assert run(
        "bench", "--family", "chordal-omega3", "--sizes", "6,9", "--seeds", "2",
        "--state-cap", "20000", "--out", str(out),
    ) == 0
    with open(out) as handle:
        rows = list(csv.reader(handle))
    assert len(rows) == 1 + 8
    assert rows[0][0] == "schema_version"


def test_bench_reports_violations(tmp_path, capsys, monkeypatch):
    def failing(g, alpha, beta):
        raise ImproperStep(0, "injected")

    monkeypatch.setattr(experiments, "pipeline_theorem", failing)
    out = tmp_path / "bench.csv"
    assert run(
        "bench", "--family", "partial-2tree", "--sizes", "5", "--seeds", "2",
        "--out", str(out),
    ) == 1
    captured = capsys.readouterr()
    assert captured.out == f"wrote 4 records to {out}\n"
    assert captured.err == "violations found\n"
    with open(out) as handle:
        rows = list(csv.DictReader(handle))
    assert [row["status"] for row in rows] == ["ImproperStep"] * 4


def test_bench_rejects_bad_generator_request(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    # a request the library rejects stops the batch
    huge_cap = ("--state-cap", "10000000000000000000000000")
    for args, error in (
        (("--family", "2tree", "--sizes", "2", "--seeds", "1"), "InvalidSize: "),
        (("--family", "partial-2tree", "--sizes", "6", "--keep-prob", "2"), "InvalidInput: "),
        (("--family", "partial-2tree", "--sizes", "8", "--k", "6"), "InvalidColoring: "),
        (("--family", "chordal-omega3", "--sizes", "30", "--k", "3", "--seeds", "2"),
         "InvalidInput: need k >= 4, got 3"),
        (("--family", "partial-2tree", "--sizes", "30", "--seeds", "2", *huge_cap),
         "TooLarge: "),
        (("--family", "2tree", "--sizes", "8,1000001"),
         "InvalidInput: graph declares 1000001 vertices, above 1000000"),
    ):
        assert run("bench", *args, "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {error}") and captured.err.count("\n") == 1
        assert "violations found" not in captured.out + captured.err
        assert not out.exists()


def test_gen_rejects_bad_size(tmp_path, capsys):
    out = tmp_path / "g.json"
    # an n above the JSON loader's cap is rejected before the graph is built
    for n, error in (
        ("2", "InvalidSize: "),
        ("1000001", "InvalidInput: graph declares 1000001 vertices, above 1000000\n"),
    ):
        assert run("gen", "--family", "2tree", "--n", n, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {error}") and err.count("\n") == 1
        assert not out.exists()


def test_out_in_missing_directory_is_one_error_line(tmp_path, capsys):
    g = tmp_path / "g.json"
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    _write(g, {"n": 3, "edges": [[0, 1], [1, 2]]})
    _write(a, {"k": 5, "colors": [1, 2, 1]})
    _write(b, {"k": 5, "colors": [2, 1, 2]})
    missing = tmp_path / "missing"
    for argv in (
        ("bench", "--family", "partial-2tree", "--sizes", "6", "--seeds", "1",
         "--out", str(missing / "bench.csv")),
        ("gen", "--family", "2tree", "--n", "5", "--out", str(missing / "g.json")),
        ("gen", "--family", "2tree", "--n", "5", "--out", str(tmp_path / "g5.json"),
         "--coloring-out", str(missing / "c.json")),
        ("pipeline", "--graph", str(g), "--alpha", str(a), "--beta", str(b),
         "--out", str(missing / "seq.json")),
        ("decompose", "--graph", str(g), "--peo", str(tmp_path)),
    ):
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidInput: cannot write ") and err.count("\n") == 1
    # the directory is checked before any work, so no file was written
    assert not (tmp_path / "g5.json").exists()


def test_batch_that_checks_nothing_is_rejected(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    g = tmp_path / "g.json"
    _write(g, {"n": 3, "edges": [[0, 1], [1, 2]]})
    bench = ("bench", "--family", "partial-2tree", "--sizes", "6", "--out", str(out))
    for argv in (
        bench + ("--seeds", "0"),
        bench + ("--seeds", "-2"),
        bench + ("--state-cap", "0"),
        bench + ("--state-cap", "-5"),
        ("oracle", "connected", "--graph", str(g), "--state-cap", "-5"),
        ("oracle", "connected", "--graph", str(g), "--state-cap", "0"),
    ):
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidInput: ") and err.count("\n") == 1
        assert not out.exists()


# A small width-2 instance and its valid files; the fuzz below mixes them
# with corrupt ones and with flag values drawn from a small alphabet.
_G = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)])
_A = Coloring(5, (1, 2, 3, 1, 2))
_B = Coloring(5, (2, 3, 1, 2, 3))
FILES = {
    "g": json.dumps(_G.to_json()),
    "a": json.dumps(_A.to_json()),
    "b": json.dumps(_B.to_json()),
    "peo": json.dumps(mcs_order(_G).to_json()),
    "seq": json.dumps(pipeline_theorem(_G, _A, _B).to_json()),
    "k4": json.dumps({"n": 4, "edges": [[i, j] for i in range(4) for j in range(i + 1, 4)]}),
    "text": "{not json",
    "empty": "",
    "list": "[]",
    "null": "null",
    "deep": "[" * 100_000,
    "edge_out_of_range": '{"n": 5, "edges": [[0, 9]]}',
    "huge_n": '{"n": 1e400, "edges": []}',
    "improper": '{"k": 5, "colors": [1, 1, 1, 1, 1]}',
    "short": '{"k": 5, "colors": [1, 2]}',
    "nan_color": '{"k": 5, "colors": [NaN, 1, 2, 3, 4]}',
    "k0": '{"k": 0, "colors": []}',
    "dup_order": '{"order": [0, 0, 1, 2, 3]}',
    "bad_step": json.dumps({"start": _A.to_json(), "steps": [[9, 1]]}),
    "noop_step": json.dumps({"start": _A.to_json(), "steps": [[0, 1]]}),
    "bad_start": '{"start": 5, "steps": []}',
}
# besides the files: a missing file, the directory itself, a file in a missing
# directory, a fresh output path and the empty path
PATHS = tuple(FILES) + ("missing", "dir", "nodir", "new", "")
VALID = {
    "--graph": "g", "--alpha": "a", "--beta": "b", "--coloring": "a", "--seq": "seq",
    "--expect-final": "b", "--peo": "peo", "--out": "new",
    "--json-out": "new", "--coloring-out": "new",
}
NUMBERS = ("-1", "0", "1", "2", "3", "5", "7", "1.5", "x", "")
VALUES = {
    **{flag: PATHS for flag in VALID},
    **dict.fromkeys(
        ("--n", "--seed", "--k", "--coloring-seed", "--seeds", "--state-cap"),
        NUMBERS,
    ),
    "--keep-prob": ("0.6", "0", "1", "-1", "nan", "inf", "x"),
    "--family": ("chordal-omega3", "2tree", "partial-2tree", "tree"),
    "--sizes": ("3", "3,5", "5,7", "0", "-1", "3,,5", "x", ""),
}
SWITCHES = ("--trace",)
COMMANDS = {
    "gen": ("--family", "--n", "--seed", "--keep-prob", "--out", "--coloring-out", "--k",
            "--coloring-seed"),
    "check": ("--graph", "--coloring", "--seq", "--expect-final"),
    "decompose": ("--graph", "--peo"),
    "reduce": ("--graph", "--alpha", "--out"),
    "recolor": ("--graph", "--peo", "--alpha", "--beta", "--k", "--out", "--trace"),
    "pipeline": ("--graph", "--alpha", "--beta", "--out"),
    "oracle": ("--graph", "--k", "--alpha", "--beta", "--state-cap"),
    "audit": ("--graph", "--peo", "--seq", "--json-out"),
    "bench": ("--family", "--sizes", "--seeds", "--k", "--keep-prob", "--state-cap", "--out"),
    "nope": (),
}
LOOSE = ("-h", "--bogus", "distance", "5", "@g", "@missing")
# exit 1 or 2 without an error line: a verdict the command exists to give
VERDICTS = ("improper", "invalid: ", "final coloring does not match", '{"vertex": ',
            "violations found")


def _value(flag):
    if flag in VALID:
        return st.one_of(st.just(VALID[flag]), st.sampled_from(VALUES[flag])).map("@".__add__)
    return st.sampled_from(VALUES[flag])


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [command]
    if command == "oracle":
        argv.append(draw(st.sampled_from(("distance", "connected", "diameter", "radius"))))
    for flag in COMMANDS[command]:
        if draw(st.integers(0, 3)):  # usually present
            argv.append(flag)
            if flag not in SWITCHES:
                argv.append(draw(_value(flag)))
    argv += draw(st.lists(st.sampled_from(LOOSE), max_size=2))
    return argv


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(cli_argv())
@example(["check", "--graph", "@deep", "--coloring", "@a"])
@example(["gen", "--family", "2tree", "--n", "5", "--out", "@"])
@example(["check", "--graph", "@g", "--coloring", "@"])
def test_fuzzed_argv_exits_cleanly(tmp_path, capsys, argv):
    """Every run exits 0, or 1 or 2 with one error line or a verdict; no traceback."""
    root = Path(tempfile.mkdtemp(dir=tmp_path))
    for name, text in FILES.items():
        (root / f"{name}.json").write_text(text)
    paths = {"dir": str(root), "nodir": str(root / "nodir" / "x.json"), "": ""}
    argv = [
        paths.get(arg[1:], str(root / f"{arg[1:]}.json")) if arg.startswith("@") else arg
        for arg in argv
    ]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse: exit 2 on a usage error, 0 for -h
        code = exc.code
    out, err = capsys.readouterr()
    errors = [line for line in err.splitlines() if "error:" in line]
    assert code in (0, 1, 2), (argv, code)
    if code == 0:
        assert not errors, (argv, err)
    elif errors:
        assert len(errors) == 1, (argv, err)
    else:
        assert any(v in out + err for v in VERDICTS), (argv, code, out, err)
