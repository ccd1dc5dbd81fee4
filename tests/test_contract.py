"""One contract for every callable `recolor` exports: whatever one argument is
swapped for, the call returns or raises a RecolorError. A parameter annotated
with a value type rejects a value of another type with an InvalidInput whose
message starts with "<name> must be of type"."""

import inspect
import math
import os

import pytest

import recolor
from recolor import (
    AuditReport,
    Coloring,
    EliminationOrdering,
    ExperimentConfig,
    ExperimentRecord,
    Graph,
    InvalidColoring,
    InvalidInput,
    MergeMap,
    RecoloringSequence,
    RecolorError,
    write_csv,
)

# the path 0-1-2 and two proper colorings of it within 1..3, declared at k = 5
# and again at k = 3 for the oracle (at k = 3) and the bridge (at d = 2),
# which reject a coloring declared above their palette of 3 colors
G = Graph.from_edges(3, [(0, 1), (1, 2)])
ALPHA, BETA = Coloring(5, (1, 2, 1)), Coloring(5, (2, 3, 2))
ALPHA3, BETA3 = Coloring(3, ALPHA.colors), Coloring(3, BETA.colors)
PEO = recolor.mcs_order(G)
SEQ = recolor.best_choice_recoloring(G, PEO, ALPHA, BETA, 5)
_, MERGE_MAP, ALPHA_H = recolor.merge_same_colored(G, ALPHA)

# each exported callable with a tiny valid argument tuple, under its export name
CASES = {
    "AuditReport": (AuditReport, ((0,), (0,), (0,))),
    "Coloring": (Coloring, (5, (1, 2, 1))),
    "Coloring.from_json": (Coloring.from_json, ({"k": 5, "colors": [1, 2]},)),
    "EliminationOrdering": (EliminationOrdering, ((0, 1, 2),)),
    "EliminationOrdering.from_json": (EliminationOrdering.from_json, ({"order": [1, 0]},)),
    "ExperimentConfig": (ExperimentConfig, ("2tree", (3,), (0,), 5, 0.6, 100)),
    "ExperimentRecord": (ExperimentRecord, ("2tree", "2tree-n3-s0", 3, 5, 0, "forward", "ok")),
    "Graph": (Graph, (3, ((1,), (0, 2), (1,)))),
    "Graph.from_edges": (Graph.from_edges, (3, [(0, 1)])),
    "Graph.from_json": (Graph.from_json, ({"n": 2, "edges": [[0, 1]]},)),
    "MergeMap": (MergeMap, ((0, 1, 0), ((0, 2), (1,)))),
    "RecoloringSequence": (RecoloringSequence, (ALPHA, ((1, 3),))),
    "RecoloringSequence.from_json": (
        RecoloringSequence.from_json,
        ({"start": {"k": 5, "colors": [1, 2]}, "steps": [[0, 3]]},),
    ),
    "audit_best_choice": (recolor.audit_best_choice, (SEQ, PEO, G, True)),
    "best_choice_recoloring": (recolor.best_choice_recoloring, (G, PEO, ALPHA, BETA, 5)),
    "bfs_distance": (recolor.bfs_distance, (G, 3, ALPHA3, BETA3, 100)),
    "degeneracy_order": (recolor.degeneracy_order, (G,)),
    "gen_2tree": (recolor.gen_2tree, (4, 0)),
    "gen_chordal_omega3": (recolor.gen_chordal_omega3, (4, 0)),
    "gen_partial_2tree": (recolor.gen_partial_2tree, (4, 0.5, 0)),
    "greedy_coloring": (recolor.greedy_coloring, (G, PEO)),
    "is_perfect_elimination": (recolor.is_perfect_elimination, (G, PEO)),
    "is_proper": (recolor.is_proper, (G, ALPHA)),
    "later_neighbors": (recolor.later_neighbors, (G, PEO)),
    "lift_sequence": (recolor.lift_sequence, (RecoloringSequence(ALPHA_H, ()), MERGE_MAP, G)),
    "mcs_order": (recolor.mcs_order, (G,)),
    "merge_same_colored": (recolor.merge_same_colored, (G, ALPHA)),
    "pipeline_theorem": (recolor.pipeline_theorem, (G, ALPHA, BETA)),
    "proper_coloring_count": (recolor.proper_coloring_count, (G, 3, 100)),
    "random_proper_coloring": (recolor.random_proper_coloring, (G, PEO, 5, 0)),
    "reconfig_connected": (recolor.reconfig_connected, (G, 3, 100)),
    "reconfig_diameter": (recolor.reconfig_diameter, (G, 3, 100)),
    "run_experiments": (recolor.run_experiments, (ExperimentConfig("2tree", (3,), (0,)),)),
    "two_phase_transform": (recolor.two_phase_transform, (G, ALPHA3, BETA3, 2, 5)),
    "verify_sequence": (recolor.verify_sequence, (G, SEQ)),
    "write_csv": (write_csv, (os.devnull, [])),
}

# the value types a parameter's annotation can name, and the types each accepts
VALUE_TYPES = {
    "Graph": Graph,
    "Coloring": Coloring,
    "EliminationOrdering": EliminationOrdering,
    "RecoloringSequence": RecoloringSequence,
    "MergeMap": MergeMap,
    "ExperimentConfig": ExperimentConfig,
    "list[ExperimentRecord]": list,
    "str | os.PathLike": (str, os.PathLike),
}


def _junk():
    """Every junk value, built afresh so that no case sees an iterator another
    case consumed, or a list another case changed."""
    values = [None, True, 1.5, -1, "x", (), [], {}, [1, 2, 3], math.nan]
    return values + [Coloring(2, (1, 2)), Graph(1, ((),)), iter((0, 1))]


def test_cases_cover_every_export():
    exported = {
        name
        for name, obj in vars(recolor).items()
        if callable(obj) and not (isinstance(obj, type) and issubclass(obj, BaseException))
    }
    loaders = {f"{name}.from_json" for name in exported if hasattr(vars(recolor)[name], "from_json")}
    assert set(CASES) == exported | loaders | {"Graph.from_edges"}
    # every value type is named by some annotation, so none is skipped unseen
    params = [p for call, _ in CASES.values() for p in inspect.signature(call).parameters.values()]
    assert set(VALUE_TYPES) <= {p.annotation for p in params}


# every junk value in every parameter; an int path is a file descriptor to
# `open`, which would close it, and a str one a file in the working directory
@pytest.mark.parametrize(
    "label, index, j",
    [
        (label, i, j)
        for label, (call, args) in CASES.items()
        for i in range(len(args))
        for j, junk in enumerate(_junk())
        if not (call is write_csv and i == 0 and isinstance(junk, (int, str)))
    ],
)
def test_one_swapped_argument_returns_or_raises_a_recolor_error(label, index, j):
    call, args = CASES[label]
    param = list(inspect.signature(call).parameters.values())[index]
    junk = _junk()[j]
    swapped = args[:index] + (junk,) + args[index + 1 :]
    kind = VALUE_TYPES.get(param.annotation)
    if kind is not None and not isinstance(junk, kind):
        with pytest.raises(InvalidInput, match=f"^{param.name} must be of type "):
            call(*swapped)
        return
    try:
        call(*swapped)
    except RecolorError:
        pass


@pytest.mark.parametrize(
    "gen, rest",
    [
        (recolor.gen_2tree, (1,)),
        (recolor.gen_partial_2tree, (0.5, 1)),
        (recolor.gen_chordal_omega3, (1,)),
    ],
)
def test_generators_reject_n_above_the_cap_before_building(gen, rest):
    with pytest.raises(InvalidInput, match=r"^graph declares 1000001 vertices, above 1000000$"):
        gen(10**6 + 1, *rest)


# each call that takes two endpoint colorings, with its palette and the k its
# sequence starts at (None for the distance)
PALETTES = {
    "best_choice_recoloring": (lambda a, b: recolor.best_choice_recoloring(G, PEO, a, b, 5), 5, 5),
    "pipeline_theorem": (lambda a, b: recolor.pipeline_theorem(G, a, b), 5, 5),
    "bfs_distance": (lambda a, b: recolor.bfs_distance(G, 3, a, b), 3, None),
    "two_phase_transform": (lambda a, b: recolor.two_phase_transform(G, a, b, 2, 5), 3, 5),
}


@pytest.mark.parametrize("label", PALETTES)
def test_an_endpoint_is_declared_at_most_at_the_palette(label):
    call, palette, start_k = PALETTES[label]
    # greedy declares the colors it uses, 2 on the path: below either palette
    low, beta = recolor.greedy_coloring(G, PEO), Coloring(palette, BETA.colors)
    assert low.k < palette
    above = Coloring(palette + 1, low.colors)
    # under the name the call gives the endpoint, alpha or gamma_s and so on
    message = rf"^\w+ is a {palette + 1}-coloring, above {palette} colors$"
    for args in ((above, beta), (beta, above)):
        with pytest.raises(InvalidColoring, match=message):
            call(*args)
    # a declaration below the palette changes nothing but the start's k
    result = call(low, beta)
    assert result == call(Coloring(palette, low.colors), beta)
    if start_k is not None:
        assert result.start == Coloring(start_k, low.colors)


def test_write_csv_rejects_a_file_descriptor():
    read_end, write_end = os.pipe()
    try:
        with pytest.raises(InvalidInput, match=r"^path must be of type str or PathLike, got int$"):
            write_csv(write_end, [])
        os.fstat(write_end)  # still open
    finally:
        os.close(read_end)
        os.close(write_end)
