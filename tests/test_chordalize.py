import hashlib
import json
import random
import time
import tracemalloc
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recolor import (
    Coloring,
    EliminationOrdering,
    Graph,
    ImproperStep,
    InvalidColoring,
    InvalidInput,
    LiftFailure,
    MergeMap,
    NotWidth2,
    NoOpStep,
    RecoloringSequence,
    best_choice_recoloring,
    degeneracy_order,
    gen_2tree,
    gen_chordal_omega3,
    gen_partial_2tree,
    greedy_coloring,
    is_perfect_elimination,
    is_proper,
    later_neighbors,
    lift_sequence,
    mcs_order,
    merge_same_colored,
    pipeline_theorem,
    random_proper_coloring,
    two_phase_transform,
    verify_sequence,
)
from recolor import bestchoice, chordalize, decomposition, graphs, sequences
from recolor.chordalize import PER_VERTEX_PIPELINE_BOUND

import helpers

K3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
K4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
P3 = Graph.from_edges(3, [(0, 1), (1, 2)])
# the path 1-0-2: vertex 0 goes first, so its bag (0, 1, 2) joins the ends
CHERRY = Graph.from_edges(3, [(0, 1), (0, 2)])


def _merge_invariants(g, alpha, h, merge_map, alpha_h):
    """Each class is one color of alpha and independent in g, every edge of g
    is an edge of h between two classes, alpha_h is proper on h, h is chordal
    with at most 2 later neighbors along mcs_order, and the classes, h and
    alpha_h are those of the plain merge-and-fill reference."""
    ref_h, ref_classes, ref_colors = helpers.merge_reference(g, alpha)
    assert merge_map.classes == tuple(map(tuple, ref_classes))
    assert h == ref_h
    assert alpha_h.colors == ref_colors
    peo = mcs_order(h)
    assert is_perfect_elimination(h, peo)
    assert max(map(len, later_neighbors(h, peo)), default=0) <= 2
    assert is_proper(h, alpha_h)
    to_merged = merge_map.to_merged
    for m, cls in enumerate(merge_map.classes):
        assert [to_merged[v] for v in cls] == [m] * len(cls)
        assert {alpha.colors[v] for v in cls} == {alpha_h.colors[m]}
    assert sorted(v for cls in merge_map.classes for v in cls) == list(range(g.n))
    for u, v in g.edges():
        assert to_merged[u] != to_merged[v]
        assert to_merged[v] in h.adjacency[to_merged[u]]


def test_merge_identity_on_rainbow_triangle():
    alpha = Coloring(3, (1, 2, 3))
    h, merge_map, alpha_h = merge_same_colored(K3, alpha)
    assert h == K3
    assert merge_map.to_merged == (0, 1, 2)
    assert merge_map.classes == ((0,), (1,), (2,))
    assert alpha_h.colors == alpha.colors


def test_merge_path_endpoints():
    alpha = Coloring(2, (2, 1, 1))
    h, merge_map, alpha_h = merge_same_colored(CHERRY, alpha)
    assert h == Graph.from_edges(2, [(0, 1)])
    assert merge_map.classes == ((0,), (1, 2))
    assert alpha_h.colors == (2, 1)
    _merge_invariants(CHERRY, alpha, h, merge_map, alpha_h)


def test_merge_two_vertex_bag():
    # a two-vertex bag holds an edge of g, so a proper coloring never merges it;
    # isolated vertices share no bag, so they stay apart whatever their colors
    g = Graph.from_edges(4, [(0, 1)])
    alpha = Coloring(2, (1, 2, 1, 1))
    h, merge_map, alpha_h = merge_same_colored(g, alpha)
    assert h == g
    assert merge_map.classes == ((0,), (1,), (2,), (3,)) and merge_map.to_merged == (0, 1, 2, 3)
    assert alpha_h.colors == alpha.colors
    _merge_invariants(g, alpha, h, merge_map, alpha_h)


def test_merge_chains_across_bags():
    # the path 2-0-3-1-4: the bags (0, 2, 3) and (1, 3, 4) chain 2, 3 and 4
    # into one class
    p5 = Graph.from_edges(5, [(0, 2), (0, 3), (1, 3), (1, 4)])
    alpha = Coloring(2, (2, 2, 1, 1, 1))
    h, merge_map, alpha_h = merge_same_colored(p5, alpha)
    assert merge_map.classes == ((0,), (1,), (2, 3, 4))
    assert merge_map.to_merged == (0, 1, 2, 2, 2)
    assert h.edges() == [(0, 2), (1, 2)]
    assert alpha_h.colors == (2, 2, 1)
    _merge_invariants(p5, alpha, h, merge_map, alpha_h)


def test_merge_injective_alpha_fills_bags():
    # colors distinct inside the bag: no merging, but the bag becomes a clique
    alpha = Coloring(3, (1, 2, 3))
    h, merge_map, _ = merge_same_colored(CHERRY, alpha)
    assert merge_map.to_merged == (0, 1, 2)
    assert h == K3


def test_merge_rejects_k4():
    with pytest.raises(NotWidth2, match="^all remaining vertices have degree at least 3$"):
        merge_same_colored(K4, Coloring(4, (1, 2, 3, 4)))


def test_merge_rejects_improper_coloring():
    with pytest.raises(InvalidColoring):
        merge_same_colored(K3, Coloring(3, (1, 1, 2)))


@settings(max_examples=30, deadline=None)
@given(st.integers(3, 60), st.integers(0, 10**6), st.integers(3, 10), st.sampled_from((3, 5)))
def test_merge_invariants_random(n, seed, tenths, k):
    for g in (
        gen_partial_2tree(n, tenths / 10, seed),
        gen_2tree(n, seed),
        gen_chordal_omega3(n, seed),
    ):
        alpha = random_proper_coloring(g, degeneracy_order(g), k, seed + 1)
        h, merge_map, alpha_h = merge_same_colored(g, alpha)
        _merge_invariants(g, alpha, h, merge_map, alpha_h)


def test_lift_identity_map():
    merge_map = MergeMap((0, 1), ((0,), (1,)))
    g = Graph.from_edges(2, [(0, 1)])
    seq = RecoloringSequence(Coloring(5, (1, 2)), ((0, 3), (1, 1)))
    assert lift_sequence(seq, merge_map, g).steps == seq.steps


def test_lift_expands_classes_in_ascending_order():
    # class {0, 2} merged as vertex 0 of h = K2
    merge_map = MergeMap((0, 1, 0), ((0, 2), (1,)))
    seq_h = RecoloringSequence(Coloring(5, (1, 2)), ((0, 3),))
    lifted = lift_sequence(seq_h, merge_map, P3)
    assert lifted.start.colors == (1, 2, 1)
    assert lifted.steps == ((0, 3), (2, 3))
    verify_sequence(P3, lifted)


def test_lift_empty_sequence():
    merge_map = MergeMap((0, 1, 0), ((0, 2), (1,)))
    seq_h = RecoloringSequence(Coloring(5, (1, 2)), ())
    assert lift_sequence(seq_h, merge_map, P3).steps == ()


def test_lift_failure_on_broken_map():
    # class {0, 1} is NOT independent in K3: expanding creates a collision
    merge_map = MergeMap((0, 0, 1), ((0, 1), (2,)))
    seq_h = RecoloringSequence(Coloring(5, (1, 2)), ((0, 3),))
    with pytest.raises(LiftFailure):
        lift_sequence(seq_h, merge_map, K3)


def test_lift_failure_on_map_for_another_graph():
    merge_map = MergeMap((0, 1, 0), ((0, 2), (1,)))
    seq_h = RecoloringSequence(Coloring(5, (1, 2)), ((0, 3),))
    k2 = Graph.from_edges(2, [(0, 1)])
    with pytest.raises(LiftFailure, match="does not fit"):
        lift_sequence(seq_h, merge_map, Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]))
    with pytest.raises(LiftFailure, match="does not fit"):
        lift_sequence(RecoloringSequence(Coloring(5, (1, 2, 1)), ()), merge_map, P3)
    with pytest.raises(InvalidInput, match="merged vertex 5 is not"):
        lift_sequence(seq_h, MergeMap((0, 5), ((0,), (1,))), k2)


def test_lift_failure_on_step_outside_classes():
    merge_map = MergeMap((0, 1, 0), ((0, 2), (1,)))
    for m in (2, -1):
        seq_h = RecoloringSequence(Coloring(5, (1, 2)), ((0, 3), (m, 4)))
        with pytest.raises(LiftFailure, match=f"merged vertex {m} "):
            lift_sequence(seq_h, merge_map, P3)


@pytest.mark.parametrize(
    "to_merged, classes",
    [
        ((0, 1, 0), ((0, "a"), (1,))),
        ((0, 1, 0), (5, (1,))),
        ((0.0, 1, 0), ((0, 2), (1,))),
        (None, ((0, 2), (1,))),
        # True == 1, so without the type check this map passes
        ((True, 0, 1), ((1,), (0, 2))),
        # the classes disagree with to_merged: the lift would end elsewhere
        ((0, 1, 0), ((0,), (1, 2))),
        # -1 indexes the last class, so without the range check this map passes
        ((0, 1, -1), ((0,), (1, 2))),
    ],
)
def test_lift_rejects_malformed_merge_map(to_merged, classes):
    seq_h = RecoloringSequence(Coloring(5, (1, 2)), ((0, 3),))
    with pytest.raises(InvalidInput):
        lift_sequence(seq_h, MergeMap(to_merged, classes), P3)


def test_two_phase_single_vertex_noop():
    g = Graph.from_edges(1, [])
    seq = two_phase_transform(g, Coloring(3, (3,)), Coloring(3, (3,)), 2, 5)
    assert seq.steps == ()


def test_two_phase_k3_exact_steps():
    seq = two_phase_transform(K3, Coloring(3, (1, 2, 3)), Coloring(3, (2, 3, 1)), 2, 5)
    assert seq.steps == ((0, 4), (1, 5), (2, 1), (0, 2), (1, 3))
    assert verify_sequence(K3, seq).colors == (2, 3, 1)


def test_pipeline_isolated_vertices_take_one_step_each():
    # both endpoints merge to the 3-coloring (1, 1, 1), so the bridge is empty
    g = Graph.from_edges(3, [])
    seq = pipeline_theorem(g, Coloring(5, (1, 1, 1)), Coloring(5, (2, 2, 2)))
    assert len(seq.steps) == 3


def test_two_phase_rejects_small_k():
    with pytest.raises(InvalidInput):
        two_phase_transform(K3, Coloring(3, (1, 2, 3)), Coloring(3, (2, 3, 1)), 2, 4)


def test_two_phase_rejects_colors_beyond_d_plus_1():
    with pytest.raises(InvalidInput):
        two_phase_transform(K3, Coloring(4, (1, 2, 4)), Coloring(3, (1, 2, 3)), 2, 5)


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 80), st.integers(0, 10**6))
def test_two_phase_at_most_two_steps_per_vertex(n, seed):
    g = gen_partial_2tree(n, 0.6, seed)
    order = degeneracy_order(g)
    gs = random_proper_coloring(g, order, 3, seed + 1)
    gt = random_proper_coloring(g, order, 3, seed + 2)
    seq = two_phase_transform(g, gs, gt, 2, 5)
    assert verify_sequence(g, seq).colors == gt.colors
    assert max(Counter(v for v, _ in seq.steps).values(), default=0) <= 2
    # a vertex whose two colors agree is never parked
    assert {v for v, _ in seq.steps} == {v for v in range(g.n) if gs.colors[v] != gt.colors[v]}


def _old_two_phase(source, target, d):
    """The bridge as it was: one bucket per colour 0..d+1, walked in full."""
    classes = [[] for _ in range(d + 2)]
    for v, (s, t) in enumerate(zip(source, target)):
        if s != t:
            classes[s].append(v)
    steps = []
    for i in range(1, d + 1):
        steps += [(v, d + 1 + i) for v in classes[i]]
    steps += [(v, target[v]) for v in classes[d + 1]]
    for i in range(1, d + 1):
        steps += [(v, target[v]) for v in classes[i]]
    return steps


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(0, 40), st.integers(0, 10**6))
def test_two_phase_steps_match_bucket_rule(d, n, seed):
    rng = random.Random(seed)
    source = [rng.randint(1, d + 1) for _ in range(n)]
    target = [rng.randint(1, d + 1) for _ in range(n)]
    assert chordalize._two_phase(source, target, d) == _old_two_phase(source, target, d)


def test_two_phase_cost_does_not_grow_with_d():
    g = gen_2tree(6, 1)
    gs = greedy_coloring(g, mcs_order(g))
    # the colours turned one place, so every vertex moves
    gt = Coloring(3, tuple(c % 3 + 1 for c in gs.colors))
    d = 10**6
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        seq = two_phase_transform(g, gs, gt, d, 2 * d + 1)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(seq) == 2 * g.n
    assert verify_sequence(g, seq).colors == gt.colors
    assert elapsed < 0.1 and peak < 10**6, (elapsed, peak)


def test_pipeline_round_trip_same_endpoints():
    g = gen_partial_2tree(40, 0.6, 9)
    alpha = random_proper_coloring(g, degeneracy_order(g), 5, 0)
    seq = pipeline_theorem(g, alpha, alpha)
    assert verify_sequence(g, seq).colors == alpha.colors
    empty = Coloring(5, ())
    assert pipeline_theorem(Graph.from_edges(0, []), empty, empty).steps == ()


def test_pipeline_rejects_k4():
    with pytest.raises(NotWidth2):
        pipeline_theorem(
            K4, Coloring(5, (1, 2, 3, 4)), Coloring(5, (2, 3, 4, 1))
        )


def test_pipeline_rejects_improper():
    with pytest.raises(InvalidColoring):
        pipeline_theorem(K3, Coloring(5, (1, 1, 2)), Coloring(5, (1, 2, 3)))


def test_pipeline_rejects_endpoints_that_are_not_5_colorings():
    with pytest.raises(InvalidColoring):
        pipeline_theorem(K3, Coloring(6, (1, 2, 3)), Coloring(5, (2, 3, 1)))
    with pytest.raises(InvalidColoring):
        pipeline_theorem(K3, Coloring(5, (1, 2, 3)), Coloring(4, (2, 3, 1)))


def test_pipeline_partial_2tree_instance():
    g = gen_partial_2tree(100, 0.6, 9)
    order = degeneracy_order(g)
    alpha = random_proper_coloring(g, order, 5, 1)
    beta = random_proper_coloring(g, order, 5, 2)
    seq = pipeline_theorem(g, alpha, beta)
    assert verify_sequence(g, seq).colors == beta.colors
    assert max(Counter(v for v, _ in seq.steps).values()) <= PER_VERTEX_PIPELINE_BOUND
    assert len(seq.steps) <= PER_VERTEX_PIPELINE_BOUND * g.n


@settings(max_examples=15, deadline=None)
@given(st.integers(3, 60), st.integers(0, 10**6), st.integers(2, 10))
def test_pipeline_random_instances(n, seed, tenths):
    g = gen_partial_2tree(n, tenths / 10, seed)
    order = degeneracy_order(g)
    alpha = random_proper_coloring(g, order, 5, seed + 1)
    beta = random_proper_coloring(g, order, 5, seed + 2)
    seq = pipeline_theorem(g, alpha, beta)
    assert verify_sequence(g, seq).colors == beta.colors
    assert max(Counter(v for v, _ in seq.steps).values()) <= PER_VERTEX_PIPELINE_BOUND


@st.composite
def width2_unions(draw):
    """A disjoint union of partial 2-trees and isolated vertices, relabelled at random."""
    parts = draw(st.lists(st.integers(3, 700), max_size=3))
    isolated = draw(st.integers(0, 100))
    seed = draw(st.integers(0, 10**6))
    n = sum(parts) + isolated
    label = list(range(n))
    random.Random(seed).shuffle(label)
    edges, base = [], 0
    for i, size in enumerate(parts):
        part = gen_partial_2tree(size, 0.3 + 0.3 * i, seed + i)
        edges += [(label[base + u], label[base + v]) for u, v in part.edges()]
        base += size
    return Graph.from_edges(n, edges), seed


@settings(max_examples=12, deadline=None)
@given(width2_unions())
@example((Graph.from_edges(0, []), 0))
def test_pipeline_on_disjoint_unions(instance):
    g, seed = instance
    order = degeneracy_order(g)
    alpha = random_proper_coloring(g, order, 5, seed + 1)
    beta = random_proper_coloring(g, order, 5, seed + 2)
    seq = pipeline_theorem(g, alpha, beta)
    assert verify_sequence(g, seq).colors == beta.colors
    moves = Counter(v for v, _ in seq.steps)
    assert max(moves.values(), default=0) <= PER_VERTEX_PIPELINE_BOUND


def _assert_elimination_order_reads_merged_graph(g, coloring):
    """merge_same_colored's output is a valid reduction, and the elimination
    order, its later table and its greedy target match those of its h."""
    h, merge_map, coloring_h = merge_same_colored(g, coloring)
    _merge_invariants(g, coloring, h, merge_map, coloring_h)
    elim = decomposition._eliminate(g)
    to_merged, classes = merge_map.to_merged, merge_map.classes
    # a preference of 0 never applies, so the target is h's greedy coloring
    order, later, target = chordalize._elimination_order(elim, to_merged, [0] * len(classes))
    peo = EliminationOrdering(tuple(order))
    assert is_perfect_elimination(h, peo)
    # h is built from this table, so this holds by construction; the reference
    # comparison in _merge_invariants is what checks the table against h
    assert tuple(later) == later_neighbors(h, peo)
    assert tuple(target) == greedy_coloring(h, peo).colors
    # the pipeline's two preferences: the class's own color, and another
    # coloring's color at its smallest member
    other = random_proper_coloring(g, degeneracy_order(g), 5, g.n).colors
    for prefer in (coloring_h.colors, [other[c[0]] for c in classes]):
        order_p, later_p, target = chordalize._elimination_order(elim, to_merged, prefer)
        assert (order_p, later_p) == (order, later)
        assert is_proper(h, Coloring(3, tuple(target)))
        for x, p in enumerate(prefer):
            free = 1 <= p <= 3 and all(target[y] != p for y in later[x])
            assert (target[x] == p) == free


def test_elimination_order_on_digest_corpus():
    for n in (3, 10, 50, 200):
        for s in range(10):
            g = gen_partial_2tree(n, 0.6, s)
            order = degeneracy_order(g)
            for seed in (2 * s + 1, 2 * s + 2):
                _assert_elimination_order_reads_merged_graph(
                    g, random_proper_coloring(g, order, 5, seed)
                )
            h = gen_chordal_omega3(n, s)
            _assert_elimination_order_reads_merged_graph(
                h, random_proper_coloring(h, mcs_order(h), 5, s)
            )


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 120), st.integers(0, 10**6), st.integers(0, 10), st.integers(3, 5))
def test_elimination_order_on_partial_2trees(n, seed, tenths, k):
    g = gen_partial_2tree(n, tenths / 10, seed)
    coloring = random_proper_coloring(g, degeneracy_order(g), k, seed + 1)
    _assert_elimination_order_reads_merged_graph(g, coloring)


def test_merge_map_json_round_trip():
    merge_map = MergeMap((0, 1, 0), ((0, 2), (1,)))
    blob = {"to_merged": [0, 1, 0], "classes": [[0, 2], [1]]}
    assert json.loads(json.dumps(merge_map.to_json())) == blob


# SHA-256 of the fixed-seed outputs below; a change to any produced sequence
# breaks it. Refresh it only with a stated and measured change of outputs.
CORPUS_DIGEST = "d2f8b3bfcffbe8ae81c8649962d2557a3a83298508f6306761b948d6af8ff98d"


def test_outputs_match_recorded_digest():
    digest = hashlib.sha256()
    for n in (3, 10, 50, 200):
        for s in range(10):
            g = gen_partial_2tree(n, 0.6, s)
            order = degeneracy_order(g)
            alpha = random_proper_coloring(g, order, 5, 2 * s + 1)
            beta = random_proper_coloring(g, order, 5, 2 * s + 2)
            digest.update(json.dumps(pipeline_theorem(g, alpha, beta).to_json()).encode())

            h = gen_chordal_omega3(n, s)
            peo = mcs_order(h)
            alpha = random_proper_coloring(h, peo, 5, s)
            seq = best_choice_recoloring(h, peo, alpha, greedy_coloring(h, peo), 5)
            digest.update(json.dumps(seq.to_json()).encode())
    assert digest.hexdigest() == CORPUS_DIGEST


# The same outputs at the benchmark's n = 1600, where CORPUS_DIGEST stops at
# n = 200: the pipeline, and best-choice on chordal graphs.
LARGE_CORPUS_DIGEST = "ca88e077b89416f0de446f8928a37cbb2fd6f4f9386160760f09ff46a6db5f20"


def test_large_outputs_match_recorded_digest():
    digest = hashlib.sha256()
    for s in range(3):
        g = gen_partial_2tree(1600, 0.6, s)
        order = degeneracy_order(g)
        alpha = random_proper_coloring(g, order, 5, 2 * s + 1)
        beta = random_proper_coloring(g, order, 5, 2 * s + 2)
        digest.update(json.dumps(pipeline_theorem(g, alpha, beta).to_json()).encode())

        h = gen_chordal_omega3(1600, s)
        peo = mcs_order(h)
        alpha = random_proper_coloring(h, peo, 5, s)
        seq = best_choice_recoloring(h, peo, alpha, greedy_coloring(h, peo), 5)
        digest.update(json.dumps(seq.to_json()).encode())
    assert digest.hexdigest() == LARGE_CORPUS_DIGEST


DECOMPOSITION_DIGEST = "f5aef6e6e196c68efc80f1302de7673df1d9da37e8b56e145795868f1889f80e"


def test_decomposition_outputs_match_recorded_digest():
    digest = hashlib.sha256()
    for n in (10, 200, 1600):
        for s in range(2):
            for g in (
                gen_partial_2tree(n, 0.6, s),
                gen_partial_2tree(n, 1.0, s),
                gen_chordal_omega3(n, s),
            ):
                order = degeneracy_order(g)
                h, merge_map, alpha_h = merge_same_colored(
                    g, random_proper_coloring(g, order, 3, s)
                )
                for part in (mcs_order(g), order, h, merge_map, alpha_h):
                    digest.update(json.dumps(part.to_json()).encode())
    assert digest.hexdigest() == DECOMPOSITION_DIGEST


def test_pipeline_replays_and_validates_once(monkeypatch):
    g = gen_partial_2tree(400, 0.6, 1)
    order = degeneracy_order(g)
    alpha = random_proper_coloring(g, order, 5, 1)
    beta = random_proper_coloring(g, order, 5, 2)
    # the pipeline checks its endpoints itself, so it replays through the
    # step loop alone and never through verify_sequence; both halves merge
    # over one shared elimination; it builds no merged graph, so none of the
    # next four runs, its stages pass plain lists, so it builds no merge map
    # or ordering, and it joins its three parts into one step list, so it
    # builds one sequence
    calls = dict.fromkeys(
        ("verify_sequence", "_replay", "_eliminate", "from_edges", "mcs_order",
         "later_neighbors", "greedy_coloring", "MergeMap", "EliminationOrdering",
         "RecoloringSequence"),
        0,
    )

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # raising=False: a module that does not import a name gets the counter
    # anyway, so a call added there is counted too
    for module in (chordalize, bestchoice, sequences):
        monkeypatch.setattr(
            module, "verify_sequence", counting("verify_sequence", verify_sequence),
            raising=False,
        )
    # every replay, public or private, runs the one step loop
    monkeypatch.setattr(sequences, "_replay", counting("_replay", sequences._replay))
    for module in (chordalize, decomposition):
        monkeypatch.setattr(
            module, "_eliminate", counting("_eliminate", decomposition._eliminate)
        )
    monkeypatch.setattr(
        Graph, "from_edges", staticmethod(counting("from_edges", Graph.from_edges))
    )
    for module in (chordalize, bestchoice, decomposition, graphs):
        for name in ("mcs_order", "later_neighbors", "greedy_coloring"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    for cls in (MergeMap, EliminationOrdering, RecoloringSequence):
        monkeypatch.setattr(cls, "__init__", counting(cls.__name__, cls.__init__))
    pipeline_theorem(g, alpha, beta)
    assert calls == {
        **dict.fromkeys(calls, 0),
        "_replay": 1,
        "_eliminate": 1,
        "RecoloringSequence": 1,
    }


@pytest.mark.parametrize(
    "seed, error", [(8, AssertionError), (0, ImproperStep), (2, NoOpStep)]
)
def test_pipeline_raises_when_a_segment_misses_its_end(monkeypatch, seed, error):
    # a bridge that stops one step short leaves the undone beta half starting
    # from the wrong coloring. The one replay from alpha catches it: the end
    # misses beta, or a step collides or changes nothing. (On other instances
    # the half's first step on that vertex repairs it, and the replay accepts
    # a valid alpha-to-beta sequence.)
    g = gen_partial_2tree(400, 0.6, seed)
    order = degeneracy_order(g)
    alpha = random_proper_coloring(g, order, 5, 1)
    beta = random_proper_coloring(g, order, 5, 2)
    bridge = chordalize._two_phase

    def short_bridge(source, target, d):
        steps = bridge(source, target, d)
        assert steps
        return steps[:-1]

    monkeypatch.setattr(chordalize, "_two_phase", short_bridge)
    with pytest.raises(error):
        pipeline_theorem(g, alpha, beta)
