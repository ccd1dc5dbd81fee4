"""The CLI twin of test_contract: every file argument of every subcommand,
swapped for a junk file while the others stay valid, makes the call exit 0 or
1 with at most one error line and no traceback."""

import json

import pytest

from recolor import Coloring, Graph, best_choice_recoloring, mcs_order
from recolor.cli import main

# a small chordal instance whose valid files every form starts from; its
# sequence is best choice's, so that the audit passes it
G = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)])
ALPHA = Coloring(5, (1, 2, 3, 1, 2))
BETA = Coloring(5, (2, 3, 1, 2, 3))
PEO = mcs_order(G)
VALID = {
    "g": json.dumps(G.to_json()),
    "a": json.dumps(ALPHA.to_json()),
    "b": json.dumps(BETA.to_json()),
    "peo": json.dumps(PEO.to_json()),
    "seq": json.dumps(best_choice_recoloring(G, PEO, ALPHA, BETA, 5).to_json()),
}


def _graph(n, edges):
    return json.dumps({"n": n, "edges": edges})


def _coloring(k, colors):
    return json.dumps({"k": k, "colors": colors})


def _seq(steps):
    return json.dumps({"start": ALPHA.to_json(), "steps": steps})


# each junk file's text (bytes for the binary one); each is given to every
# file argument, so a graph's junk is read as a coloring too
JUNK = {
    "null": "null",
    "list": "[]",
    "object": "{}",
    "negative_n": _graph(-1, []),
    "float_n": _graph(5.0, []),
    "huge_n": _graph(10**7, []),
    "triple_edge": _graph(5, [[0, 1, 2]]),
    "single_edge": _graph(5, [[0]]),
    "string_edge": _graph(5, "01"),
    "string_colors": _coloring(5, ["1", "2", "3", "1", "2"]),
    "k0": _coloring(0, [1, 2, 3, 1, 2]),
    "huge_k": _coloring(10**30, [1, 2, 3, 1, 2]),
    "short_coloring": _coloring(5, [1, 2]),
    "long_coloring": _coloring(5, [1, 2, 3, 1, 2, 3]),
    "repeated_order": json.dumps({"order": [0, 0, 1, 2, 3]}),
    "short_step": _seq([[0]]),
    "negative_step": _seq([[-1, 4]]),
    "out_of_range_step": _seq([[5, 4]]),
    "deep": "[" * 100_000,
    "binary": bytes(range(256)),
    "empty": "",
    "nan": "NaN",
    "infinity": '{"n": Infinity, "edges": []}',
    "nan_color": _coloring(5, [float("nan"), 2, 3, 1, 2]),
    "digits": "9" * 5000,
    "digits_k": '{"k": ' + "9" * 5000 + ', "colors": [1, 2, 3, 1, 2]}',
    "missing": None,
    "directory": None,
}

# every subcommand form that reads files: its argv with {name} for each file,
# whose flag the test swaps
FORMS = {
    "check-coloring": "check --graph {g} --coloring {a}",
    "check-seq": "check --graph {g} --seq {seq} --expect-final {b}",
    "decompose": "decompose --graph {g} --peo {out}",
    "reduce": "reduce --graph {g} --alpha {a} --out {out}",
    "recolor": "recolor --graph {g} --peo {peo} --alpha {a} --beta {b} --out {out}",
    "pipeline": "pipeline --graph {g} --alpha {a} --beta {b} --out {out}",
    "oracle-distance": "oracle distance --graph {g} --alpha {a} --beta {b}",
    "oracle-connected": "oracle connected --graph {g}",
    "audit": "audit --graph {g} --peo {peo} --seq {seq} --json-out {out}",
}
SWAPS = [
    (form, word[1:-1])
    for form, template in FORMS.items()
    for word in template.split()
    if word.startswith("{") and word != "{out}"
]


@pytest.mark.parametrize("form, name", SWAPS, ids=[f"{f}-{n}" for f, n in SWAPS])
def test_junk_file_exits_with_one_error_line(tmp_path, capsys, form, name):
    paths = {"out": str(tmp_path / "out.json")}
    for key, text in VALID.items():
        paths[key] = str(tmp_path / f"{key}.json")
        (tmp_path / f"{key}.json").write_text(text)
    assert main(FORMS[form].format(**paths).split()) == 0
    capsys.readouterr()
    for junk, text in JUNK.items():
        path = tmp_path / f"junk_{junk}.json"
        if junk == "directory":
            path.mkdir()
        elif isinstance(text, bytes):
            path.write_bytes(text)
        elif text is not None:
            path.write_text(text)
        try:
            code = main(FORMS[form].format(**{**paths, name: str(path)}).split())
        except Exception as exc:  # a traceback at the command line
            pytest.fail(f"{junk}: {exc!r}")
        out, err = capsys.readouterr()
        assert code in (0, 1), (junk, code)
        assert sum("error:" in line for line in err.splitlines()) <= 1, (junk, err)
        assert "Traceback" not in out + err, (junk, out, err)


# the forms that take two endpoint colorings and a palette of 5 colors
PALETTE_SWAPS = [(form, name) for form in ("recolor", "pipeline", "oracle-distance") for name in "ab"]


@pytest.mark.parametrize("form, name", PALETTE_SWAPS, ids=[f"{f}-{n}" for f, n in PALETTE_SWAPS])
def test_coloring_declared_above_the_palette_exits_with_one_error_line(
    tmp_path, capsys, form, name
):
    # huge_k's colors are a proper coloring of G in 1..3; only its k is above 5
    paths = {"out": str(tmp_path / "out.json")}
    for key, text in {**VALID, name: JUNK["huge_k"]}.items():
        paths[key] = str(tmp_path / f"{key}.json")
        (tmp_path / f"{key}.json").write_text(text)
    assert main(FORMS[form].format(**paths).split()) == 1
    out, err = capsys.readouterr()
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"error: InvalidColoring: {'alpha' if name == 'a' else 'beta'} is a {10**30}-coloring,"
        " above 5 colors"
    ]
    assert "Traceback" not in out + err
