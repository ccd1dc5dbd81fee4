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
    # a merged sequence names only the classes of its start, so lift_sequence
    # never sees a step outside them: -1 would index, and lift, the last class
    for m in (2, -1):
        with pytest.raises(InvalidColoring, match=f"^step 1 recolors unknown vertex {m}$"):
            RecoloringSequence(Coloring(5, (1, 2)), ((0, 3), (m, 4)))


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


def test_two_phase_checks_two_steps_per_vertex(monkeypatch):
    # a bridge patched to park vertex 2 at 4 and bring it back after its real
    # step stays valid and ends at the target, but moves vertex 2 three times
    bridge = chordalize._two_phase
    monkeypatch.setattr(
        chordalize, "_two_phase", lambda *args: bridge(*args) + [(2, 4), (2, 1)]
    )
    with pytest.raises(AssertionError, match="vertex 2 is recolored 3 times, over the bound 2"):
        two_phase_transform(K3, Coloring(3, (1, 2, 3)), Coloring(3, (2, 3, 1)), 2, 5)


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


def test_pipeline_partial_2tree_instance():
    g = gen_partial_2tree(100, 0.6, 9)
    order = degeneracy_order(g)
    alpha = random_proper_coloring(g, order, 5, 1)
    beta = random_proper_coloring(g, order, 5, 2)
    seq = pipeline_theorem(g, alpha, beta)
    assert verify_sequence(g, seq).colors == beta.colors
    assert max(Counter(v for v, _ in seq.steps).values()) <= PER_VERTEX_PIPELINE_BOUND
    assert len(seq.steps) <= PER_VERTEX_PIPELINE_BOUND * g.n


def _counting_best_choice(monkeypatch):
    runs = []
    best_choice = chordalize._best_choice

    def counting(*args):
        runs.append(args)
        return best_choice(*args)

    monkeypatch.setattr(chordalize, "_best_choice", counting)
    return runs


@pytest.mark.parametrize("n, length", [(13, 15), (200, 250)])
def test_pipeline_on_squared_path_runs_best_choice_once(monkeypatch, n, length):
    # no bag of P_n^2 holds two vertices of one color in either endpoint, so
    # the pipeline runs one best-choice pass from alpha to beta (the two halves
    # and the bridge gave 23 and 413 steps, with up to 4 per vertex)
    runs = _counting_best_choice(monkeypatch)
    g, alpha, beta = helpers.squared_path(n, 5)
    seq = pipeline_theorem(g, alpha, beta)
    assert len(runs) == 1 and runs[0][2:] == (alpha.colors, beta.colors, 5)
    assert len(seq.steps) == length
    assert max(Counter(v for v, _ in seq.steps).values()) == 2
    assert verify_sequence(g, seq).colors == beta.colors


def test_pipeline_compacts_its_one_best_choice_run(monkeypatch):
    # no bag holds two vertices of one color in either endpoint, so the
    # pipeline runs one best-choice pass, of 12 steps; its compaction folds
    # three of them away, one in each of its three passes
    runs = _counting_best_choice(monkeypatch)
    g = gen_partial_2tree(8, 0.7, 72)
    order = degeneracy_order(g)
    alpha = random_proper_coloring(g, order, 5, 1)
    beta = random_proper_coloring(g, order, 5, 2)
    seq = pipeline_theorem(g, alpha, beta)
    assert len(runs) == 1 and len(bestchoice._best_choice(*runs[0])) == 12
    assert len(seq.steps) == 9
    assert verify_sequence(g, seq).colors == beta.colors


@pytest.mark.parametrize(
    "alpha, beta, length",
    [((1, 2, 1, 2), (3, 4, 5, 1), 4), ((3, 4, 5, 1), (1, 2, 1, 2), 6)],
    ids=["alpha-merges", "beta-merges"],
)
def test_pipeline_on_c4_with_monochromatic_fill_pairs_runs_both_halves(
    monkeypatch, alpha, beta, length
):
    # C4 colored 1, 2, 1, 2: both possible fill pairs share a color, so that
    # endpoint merges 1 and 3 and the pipeline goes through both halves,
    # whichever endpoint it is; 3, 4, 5, 1 merges nothing, so a route test
    # reading one endpoint only would run best choice once (4 steps when
    # beta merges)
    runs = _counting_best_choice(monkeypatch)
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    seq = pipeline_theorem(g, Coloring(5, alpha), Coloring(5, beta))
    assert len(runs) == 2
    assert len(seq.steps) == length
    assert verify_sequence(g, seq).colors == beta


@settings(max_examples=15, deadline=None)
@given(st.integers(3, 60), st.integers(0, 10**6), st.integers(2, 10))
def test_pipeline_random_instances(n, seed, tenths):
    g = gen_partial_2tree(n, tenths / 10, seed)
    order = degeneracy_order(g)
    alpha = random_proper_coloring(g, order, 5, seed + 1)
    beta = random_proper_coloring(g, order, 5, seed + 2)
    seq = pipeline_theorem(g, alpha, beta)
    assert verify_sequence(g, seq).colors == beta.colors
    # alpha and beta can be equal, and then there are no steps
    moves = Counter(v for v, _ in seq.steps)
    assert max(moves.values(), default=0) <= PER_VERTEX_PIPELINE_BOUND


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
    # the pipeline's test for the one-run route agrees with the merge
    assert (not any(chordalize._merge_pairs(elim, coloring.colors))) == (len(classes) == g.n)
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


def _digest_corpus_colorings():
    """The graphs and colorings of the pipeline digest corpus, plus one
    colored chordal graph of clique number <= 3 per size and seed."""
    for n in (3, 10, 50, 200):
        for s in range(10):
            g = gen_partial_2tree(n, 0.6, s)
            order = degeneracy_order(g)
            for seed in (2 * s + 1, 2 * s + 2):
                yield g, random_proper_coloring(g, order, 5, seed)
            h = gen_chordal_omega3(n, s)
            yield h, random_proper_coloring(h, mcs_order(h), 5, s)


def test_elimination_order_on_digest_corpus():
    for g, coloring in _digest_corpus_colorings():
        _assert_elimination_order_reads_merged_graph(g, coloring)


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 120), st.integers(0, 10**6), st.integers(0, 10), st.integers(3, 5))
def test_elimination_order_on_partial_2trees(n, seed, tenths, k):
    g = gen_partial_2tree(n, tenths / 10, seed)
    coloring = random_proper_coloring(g, degeneracy_order(g), k, seed + 1)
    _assert_elimination_order_reads_merged_graph(g, coloring)


def _assert_roots_name_merge_classes(g, coloring):
    """_merge_classes names each class of merge_same_colored by its smallest
    member and lists exactly the classes of two or more, and a pipeline half
    lifts its best-choice run as lift_sequence lifts that run on h."""
    _, merge_map, coloring_h = merge_same_colored(g, coloring)
    to_merged, classes = merge_map.to_merged, merge_map.classes
    elim = decomposition._eliminate(g)
    root, merged = chordalize._merge_classes(elim, coloring.colors)
    assert root == [classes[to_merged[v]][0] for v in range(g.n)]
    assert merged == {cls[0]: list(cls) for cls in classes if len(cls) > 1}
    if not any(chordalize._merge_pairs(elim, coloring.colors)):
        assert (root, merged) == (list(range(g.n)), {})
    # the alpha half's run, named by roots, then in merge_same_colored's numbering
    order, later, target = chordalize._elimination_order(elim, root, coloring.colors)
    steps_r = bestchoice._best_choice(order, later, coloring.colors, target, 5)
    seq_h = RecoloringSequence(
        Coloring(5, coloring_h.colors), tuple((to_merged[v], c) for v, c in steps_r)
    )
    steps, gamma = chordalize._toward_3coloring(elim, coloring.colors, coloring.colors)
    assert tuple(steps) == lift_sequence(seq_h, merge_map, g).steps
    assert gamma == [target[r] for r in root]


def test_merge_roots_on_digest_corpus():
    for g, coloring in _digest_corpus_colorings():
        _assert_roots_name_merge_classes(g, coloring)


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 120), st.integers(0, 10**6), st.integers(0, 10), st.integers(3, 5))
def test_merge_roots_on_partial_2trees(n, seed, tenths, k):
    g = gen_partial_2tree(n, tenths / 10, seed)
    coloring = random_proper_coloring(g, degeneracy_order(g), k, seed + 1)
    _assert_roots_name_merge_classes(g, coloring)


def test_merge_map_json_round_trip():
    merge_map = MergeMap((0, 1, 0), ((0, 2), (1,)))
    blob = {"to_merged": [0, 1, 0], "classes": [[0, 2], [1]]}
    assert json.loads(json.dumps(merge_map.to_json())) == blob


# SHA-256 of the fixed-seed outputs below; a change to any produced sequence
# breaks it. Refresh it only with a stated and measured change of outputs.
# 13 of its 40 pipeline instances merge in neither endpoint and take the one
# best-choice run; the other 27 go through both halves. The pipeline
# outputs total 2989 steps.
CORPUS_DIGEST = "f89219a9a581cd7dd11c35aa3a0a1f1dfa10e4f3e2c4995447f61c6d4c4edcff"


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
# n = 200: the pipeline, and best-choice on chordal graphs. The pipeline
# outputs total 5729 steps.
LARGE_CORPUS_DIGEST = "6d1a507df421632d8bbc1403a6408e3999701c8a7e8cecc57ed03c139ab73a36"


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
    # the partial 2-tree goes through both halves, and the 2-tree, whose
    # endpoints merge nothing, through one best-choice run
    instances = []
    for g in (gen_partial_2tree(400, 0.6, 1), gen_2tree(400, 1)):
        order = degeneracy_order(g)
        alpha = random_proper_coloring(g, order, 5, 1)
        beta = random_proper_coloring(g, order, 5, 2)
        instances.append((g, alpha, beta))
    # the pipeline checks its endpoints itself, so it replays through the
    # step loop alone and never through verify_sequence; both halves merge
    # over one shared elimination; it builds no merged graph, so none of the
    # next four runs, its stages pass plain lists, so it builds no merge map
    # or ordering, and it builds one sequence, with one compaction call on
    # either route
    calls = dict.fromkeys(
        ("verify_sequence", "_replay", "_eliminate", "_compact", "from_edges", "mcs_order",
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
    monkeypatch.setattr(chordalize, "_compact", counting("_compact", sequences._compact))
    monkeypatch.setattr(
        Graph, "from_edges", staticmethod(counting("from_edges", Graph.from_edges))
    )
    for module in (chordalize, bestchoice, decomposition, graphs):
        for name in ("mcs_order", "later_neighbors", "greedy_coloring"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    for cls in (MergeMap, EliminationOrdering, RecoloringSequence):
        monkeypatch.setattr(cls, "__init__", counting(cls.__name__, cls.__init__))
    for g, alpha, beta in instances:
        calls.update(dict.fromkeys(calls, 0))
        pipeline_theorem(g, alpha, beta)
        assert calls == {
            **dict.fromkeys(calls, 0),
            "_replay": 1,
            "_eliminate": 1,
            "_compact": 1,
            "RecoloringSequence": 1,
        }


@pytest.mark.parametrize(
    "g, bound, other",
    [
        (gen_partial_2tree(400, 0.6, 1), "PER_VERTEX_PIPELINE_BOUND", "PER_VERTEX_CHORDAL_BOUND"),
        (gen_2tree(400, 1), "PER_VERTEX_CHORDAL_BOUND", "PER_VERTEX_PIPELINE_BOUND"),
    ],
    ids=["two-halves", "one-run"],
)
def test_pipeline_checks_its_routes_bound_in_its_one_replay(monkeypatch, g, bound, other):
    # the partial 2-tree goes through both halves and is held to the pipeline
    # bound; the 2-tree takes the one best-choice run and is held to the
    # chordal bound. Lowered to the output's largest count, the route's bound
    # passes; one below, the one replay raises. The other route's bound is
    # not read
    order = degeneracy_order(g)
    alpha = random_proper_coloring(g, order, 5, 1)
    beta = random_proper_coloring(g, order, 5, 2)
    top = max(Counter(v for v, _ in pipeline_theorem(g, alpha, beta).steps).values())
    monkeypatch.setattr(chordalize, other, 0)
    monkeypatch.setattr(chordalize, bound, top)
    pipeline_theorem(g, alpha, beta)
    monkeypatch.setattr(chordalize, bound, top - 1)
    with pytest.raises(AssertionError, match=f"recolored {top} times, over the bound {top - 1}"):
        pipeline_theorem(g, alpha, beta)


@pytest.mark.parametrize(
    "g, folds, length",
    [(gen_2tree(1600, 1), 2, 1746), (gen_partial_2tree(1600, 0.6, 1), 3, 1927)],
    ids=["2tree", "partial-2tree"],
)
def test_pipeline_compacts_in_up_to_three_passes(monkeypatch, g, folds, length):
    # the CI instances. The 2-tree's one best-choice run loses no step in the
    # plain pass or in the first two-way pass, so the second is skipped. The
    # partial 2-tree's first two-way pass removes steps, so all three run
    calls = []
    fold = sequences._fold

    def counting(*args):
        calls.append(args)
        return fold(*args)

    monkeypatch.setattr(sequences, "_fold", counting)
    order = mcs_order(g)
    alpha = random_proper_coloring(g, order, 5, 1)
    beta = random_proper_coloring(g, order, 5, 2)
    seq = pipeline_theorem(g, alpha, beta)
    assert len(calls) == folds
    assert len(seq.steps) == length


def test_pipeline_compacts_with_a_plain_pass_first():
    # an oracle-small instance (seed 16, instance 24). The plain first pass
    # unwinds the raw steps' interleaved moves of adjacent vertices, which
    # two-way passes alone cannot: they would leave 13 steps, with one vertex
    # recolored 4 times
    g = gen_partial_2tree(8, 0.7, 16024)
    order = degeneracy_order(g)
    alpha = random_proper_coloring(g, order, 5, 32049)
    beta = random_proper_coloring(g, order, 5, 32050)
    seq = pipeline_theorem(g, alpha, beta)
    assert len(seq.steps) == 7
    assert max(Counter(v for v, _ in seq.steps).values()) == 1


def _short_bridge_instance(monkeypatch, seed):
    """A pipeline instance whose bridge is patched to stop one step short."""
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
    return g, alpha, beta


@pytest.mark.parametrize(
    "seed, error", [(8, AssertionError), (13, ImproperStep), (11, NoOpStep)]
)
def test_pipeline_raises_when_a_segment_misses_its_end(monkeypatch, seed, error):
    # a bridge that stops one step short leaves the undone beta half starting
    # from the wrong coloring. The one replay from alpha catches it: the end
    # misses beta, or a step collides or changes nothing
    g, alpha, beta = _short_bridge_instance(monkeypatch, seed)
    with pytest.raises(error):
        pipeline_theorem(g, alpha, beta)


@pytest.mark.parametrize("seed", [2, 20])
def test_pipeline_returns_a_short_bridge_only_when_its_replay_passes(monkeypatch, seed):
    # on other instances a later step on the vertex the bridge left behind
    # repairs it, here once the compaction folds steps together (on seed 20
    # only from its first two-way pass on), and the one replay from alpha accepts a
    # valid alpha-to-beta sequence
    g, alpha, beta = _short_bridge_instance(monkeypatch, seed)
    assert verify_sequence(g, pipeline_theorem(g, alpha, beta)).colors == beta.colors
