import hashlib
import json
import random
import re
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recolor import (
    AuditViolation,
    Coloring,
    EliminationOrdering,
    Graph,
    ImproperStart,
    ImproperStep,
    InvalidColoring,
    InvalidInput,
    MergeMap,
    NoOpStep,
    RecolorError,
    RecoloringSequence,
    audit_best_choice,
    best_choice_recoloring,
    degeneracy_order,
    gen_chordal_omega3,
    gen_partial_2tree,
    greedy_coloring,
    lift_sequence,
    mcs_order,
    random_proper_coloring,
    verify_sequence,
)
from recolor import sequences
from recolor.sequences import _compact, _fold, _undo

import helpers

K2 = Graph.from_edges(2, [(0, 1)])
P3 = Graph.from_edges(3, [(0, 1), (1, 2)])
PEO01 = EliminationOrdering((0, 1))


def seq_of(start_k, start_colors, steps):
    return RecoloringSequence(Coloring(start_k, tuple(start_colors)), tuple(steps))


def test_verify_empty_returns_start():
    s = seq_of(3, (1, 2), [])
    assert verify_sequence(K2, s).colors == (1, 2)


def test_verify_detects_improper_step():
    s = seq_of(3, (1, 2), [(0, 2)])
    with pytest.raises(ImproperStep) as err:
        verify_sequence(K2, s)
    assert err.value.index == 0


@pytest.mark.parametrize("error, last", [(ImproperStep, (0, 1)), (NoOpStep, (1, 1))])
def test_verify_indexes_a_later_failing_step(error, last):
    # the index counts every step replayed before the failing one, of
    # whichever vertex
    with pytest.raises(error) as err:
        verify_sequence(K2, seq_of(3, (1, 2), [(0, 3), (1, 1), last]))
    assert err.value.index == 2


def test_verify_swap_through_spare_color():
    s = seq_of(3, (1, 2), [(0, 3), (1, 1), (0, 2)])
    assert verify_sequence(K2, s).colors == (2, 1)


def test_verify_rejects_noop():
    s = seq_of(3, (1, 2), [(1, 2)])
    with pytest.raises(NoOpStep):
        verify_sequence(K2, s)


def test_verify_rejects_step_out_of_range():
    for step, message in (
        ((5, 1), r"^step 0 recolors unknown vertex 5$"),
        ((0, 4), r"^step 0 uses color 4 outside 1\.\.3$"),
    ):
        with pytest.raises(InvalidColoring, match=message):
            verify_sequence(K2, seq_of(3, (1, 2), [step]))


@pytest.mark.parametrize(
    "step", [(0.0, 3), ("0", 3), (0, "3"), (0,), (0, 3, 4), (0, 3.0), (True, 3), [0, 3]]
)
def test_malformed_step_is_named(step):
    # after one valid step the error names index 1; lift_sequence expands that
    # step over the class {0, 2}, so a lifted index would read 2. The sequence
    # is rejected when it is built, before the step after it
    message = rf"^step 1 {re.escape(repr(step))} is not a \(vertex, color\) pair of integers$"
    steps = [(0, 3), step, (0, 1)]
    with pytest.raises(InvalidInput, match=message):
        verify_sequence(K2, seq_of(3, (1, 2), steps))
    with pytest.raises(InvalidInput, match=message):
        lift_sequence(seq_of(5, (1, 2), steps), MergeMap((0, 1, 0), ((0, 2), (1,))), P3)


def test_one_shot_iterator_step_is_rejected():
    # an iterator would pass one unpacking when the sequence is built and be
    # empty when it is replayed, so a step must be a tuple
    step = iter([0, 3])
    with pytest.raises(InvalidInput, match=r"^step 0 <.*> is not a \(vertex, color\) pair"):
        verify_sequence(K2, RecoloringSequence(Coloring(3, (1, 2)), (step,)))
    assert next(step) == 0


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: Coloring(5, None), "colors"),
        (lambda: EliminationOrdering(None), "order"),
        (lambda: verify_sequence(K2, RecoloringSequence(Coloring(3, (1, 2)), None)), "steps"),
        (lambda: verify_sequence(K2, RecoloringSequence((1, 2), ())), "start"),
    ],
)
def test_malformed_field_is_named(build, field):
    with pytest.raises(InvalidInput, match=rf"^{field} must be "):
        build()


JUNK = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 6)
    | st.floats(-2, 6)
    | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(-1, 3), st.integers(0, 6)) | JUNK, max_size=5))
@example([(3, 1)])
def test_junk_steps_build_or_raise_invalid_input(steps):
    # junk steps: floats, bools, strings, None, nested tuples and tuples of
    # any arity, among pairs of ints that may lie out of range
    try:
        seq = seq_of(5, (1, 2), steps)
    except InvalidInput:
        return
    n = len(seq.start.colors)
    assert all(type(v) is type(c) is int and 0 <= v < n and 1 <= c <= 5 for v, c in seq.steps)
    for run in (
        lambda: verify_sequence(K2, seq),
        lambda: lift_sequence(seq, MergeMap((0, 1, 0), ((0, 2), (1,))), P3),
    ):
        try:
            run()
        except RecolorError:
            pass


def test_verify_rejects_improper_start():
    s = seq_of(3, (1, 1), [])
    with pytest.raises(ImproperStart):
        verify_sequence(K2, s)


def _reverse(s):
    """The sequence that undoes s, as the pipeline undoes its beta half."""
    end, back = _undo(s.start.colors, s.steps)
    return RecoloringSequence(Coloring(s.start.k, end), tuple(back))


def test_reverse_round_trip():
    s = seq_of(3, (1, 2), [(0, 3), (1, 1), (0, 2)])
    back = _reverse(s)
    assert verify_sequence(K2, back).colors == s.start.colors
    assert back.start.colors == verify_sequence(K2, s).colors


def test_saved_steps_all_saved_when_vertex_untouched():
    # v=0 never recolored: every out-neighbor step is saved
    s = seq_of(5, (1, 2), [(1, 3), (1, 4), (1, 5)])
    assert audit_best_choice(s, PEO01, K2, strict=False).saved[0] == 3


def test_saved_steps_trace_v_w_w_w():
    # restricted trace v,w,w,w: w-steps saved via the no-later-step rule,
    # the last one also via the two-clear-predecessors rule
    s = seq_of(5, (1, 2), [(0, 3), (1, 4), (1, 5), (1, 2)])
    assert audit_best_choice(s, PEO01, K2, strict=False).saved[0] == 3


def test_saved_steps_alternation_never_saved():
    # restricted trace v,w,v,w,v
    s = seq_of(5, (1, 2), [(0, 3), (1, 4), (0, 1), (1, 5), (0, 2)])
    assert audit_best_choice(s, PEO01, K2, strict=False).saved[0] == 0


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 60), st.integers(0, 10**6))
def test_saved_steps_matches_definition_oracle(n, seed):
    g = gen_chordal_omega3(n, seed)
    peo = mcs_order(g)
    a = random_proper_coloring(g, peo, 5, seed + 1)
    b = greedy_coloring(g, peo)
    s = best_choice_recoloring(g, peo, a, b, 5)
    report = audit_best_choice(s, peo, g)
    for v in range(g.n):
        assert report.saved[v] == len(helpers.saved_positions_oracle(s, peo, g, v))


def test_audit_empty_sequence_clean():
    s = seq_of(5, (1, 2), [])
    assert audit_best_choice(s, PEO01, K2).clean


def test_audit_flags_immediate_repeat():
    s = seq_of(5, (1, 2), [(0, 3), (0, 4)])
    verify_sequence(K2, s)
    with pytest.raises(AuditViolation) as err:
        audit_best_choice(s, PEO01, K2)
    assert err.value.rule == "repeat-pattern"
    report = audit_best_choice(s, PEO01, K2, strict=False)
    assert not report.clean
    blob = report.to_json()
    assert blob["violations"][0]["vertex"] == 0


def test_audit_flags_early_alternation():
    # v,w,v,w in the restriction: the v,w,v alternation is not at the end
    s = seq_of(5, (1, 2), [(0, 3), (1, 1), (0, 4), (1, 5)])
    verify_sequence(K2, s)
    report = audit_best_choice(s, PEO01, K2, strict=False)
    assert any(v.rule == "repeat-pattern" for v in report.violations)


def test_sequence_json_round_trip():
    s = seq_of(3, (1, 2), [(0, 3), (1, 1)])
    assert RecoloringSequence.from_json(s.to_json()) == s


LOADERS = (
    Graph.from_json,
    Coloring.from_json,
    EliminationOrdering.from_json,
    RecoloringSequence.from_json,
)
LOADER_KEYS = ("n", "edges", "k", "colors", "order", "start", "steps")
# Integers stay small, so Graph never allocates a huge n; the floats include
# infinities and NaN.
JSON_LIKE = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 8)
    | st.floats(-8, 8)
    | st.sampled_from([float("inf"), float("-inf"), float("nan")])
    | st.sampled_from(LOADER_KEYS + ("", "2", "x")),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(LOADER_KEYS), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(LOADERS), JSON_LIKE)
def test_loaders_return_or_raise_recolor_error(load, obj):
    try:
        load(obj)
    except RecolorError:
        pass


# each value type names the value it rejects; the loaders pass JSON values on as they are
FLOAT_AND_BOOL_CASES = [
    (Graph.from_json, {"n": 3.9, "edges": []}, "vertex count must be an integer, got 3.9"),
    (Graph.from_json, {"n": 3, "edges": [[0.2, 1.7]]}, "edge endpoint must be an integer, got 0.2"),
    (Graph.from_json, {"n": True, "edges": []}, "vertex count must be an integer, got True"),
    (Coloring.from_json, {"k": 5, "colors": [1.5, 2.9, 1]}, "color 1.5 outside 1..5"),
    (Coloring.from_json, {"k": 5.0, "colors": [1]}, "k must be an integer, got 5.0"),
    (Coloring.from_json, {"k": 5, "colors": [True, 2]}, "color True outside 1..5"),
    (Coloring.from_json, {"k": 5, "colors": ["1"]}, "color '1' outside 1..5"),
    (EliminationOrdering.from_json, {"order": [1, 0.0]},
     "ordering entry must be an integer, got 0.0"),
    (RecoloringSequence.from_json, {"start": {"k": 5, "colors": [1]}, "steps": [[0.0, 2]]},
     "step 0 (0.0, 2) is not a (vertex, color) pair of integers"),
    (RecoloringSequence.from_json, {"start": {"k": 5, "colors": [1]}, "steps": [[0, 2.5]]},
     "step 0 (0, 2.5) is not a (vertex, color) pair of integers"),
]


@pytest.mark.parametrize(
    "load, obj, message",
    FLOAT_AND_BOOL_CASES,
    ids=[f"from_json-obj{i}" for i in range(len(FLOAT_AND_BOOL_CASES))],
)
def test_loaders_reject_floats_and_booleans(load, obj, message):
    with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
        load(obj)


def test_loader_error_names_loader_and_key():
    with pytest.raises(InvalidInput, match="Coloring.from_json: KeyError: 'colors'"):
        Coloring.from_json({"k": 2})


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 50), st.integers(0, 10**6))
def test_reverse_of_generated_sequences(n, seed):
    g = gen_chordal_omega3(n, seed)
    peo = mcs_order(g)
    a = random_proper_coloring(g, peo, 5, seed + 3)
    b = random_proper_coloring(g, peo, 5, seed + 4)
    s = best_choice_recoloring(g, peo, a, b, 5)
    assert verify_sequence(g, _reverse(s)).colors == a.colors


def _random_walk(g, start, length, rng):
    """A valid sequence of up to `length` random proper recolorings from start."""
    cur = list(start.colors)
    steps = []
    for _ in range(length):
        v = rng.randrange(g.n)
        free = [
            c
            for c in range(1, start.k + 1)
            if c != cur[v] and all(cur[w] != c for w in g.adjacency[v])
        ]
        if free:
            cur[v] = rng.choice(free)
            steps.append((v, cur[v]))
    return RecoloringSequence(start, tuple(steps))


def _assert_compacts(g, seq, compact=_compact):
    """compact's steps replay from the same start to the same end, and no count rises.

    A rewritten step is not one of the input's, so the output need not be a
    subsequence of the input.
    """
    steps = compact(g.adjacency, seq.start.colors, list(seq.steps))
    assert len(steps) <= len(seq.steps)
    assert verify_sequence(g, RecoloringSequence(seq.start, tuple(steps))) == verify_sequence(
        g, seq
    )
    counts = Counter(v for v, _ in seq.steps)
    assert all(c <= counts[v] for v, c in Counter(v for v, _ in steps).items())
    return steps


@settings(max_examples=150, deadline=None)
@given(
    st.booleans(),
    st.integers(3, 24),
    st.integers(4, 6),
    st.integers(0, 60),
    st.integers(0, 10**6),
)
def test_compact_keeps_random_walks_valid(chordal, n, k, length, seed):
    # _compact is valid with the walk's end and no count rises. It is never
    # longer than its plain first pass alone, and it stops before
    # COMPACT_PASSES only where one more two-way pass would change nothing
    g, start = _walk_start(chordal, n, k, seed)
    walk = _random_walk(g, start, length, random.Random(seed))
    with mock.patch.object(sequences, "_fold", wraps=_fold) as fold:
        steps = _assert_compacts(g, walk)
    assert len(steps) <= len(_fold(g.adjacency, start.colors, list(walk.steps)))
    if fold.call_count < sequences.COMPACT_PASSES:
        assert _fold(g.adjacency, start.colors, steps, True) == steps


def _two_way(adjacency, start, steps):
    """One two-way pass of _fold."""
    return _fold(adjacency, start, steps, True)


def _walk_start(chordal, n, k, seed):
    """A chordal graph or a partial 2-tree, and a proper k-coloring of it."""
    if chordal:
        g = gen_chordal_omega3(n, seed)
        order = mcs_order(g)
    else:
        g = gen_partial_2tree(n, 0.6, seed)
        order = degeneracy_order(g)
    return g, random_proper_coloring(g, order, k, seed + 1)


@settings(max_examples=150, deadline=None)
@given(
    st.booleans(),
    st.integers(3, 24),
    st.integers(4, 6),
    st.integers(0, 60),
    st.integers(0, 10**6),
)
def test_compact_backward_keeps_random_walks_valid(chordal, n, k, length, seed):
    # a valid walk undone is a valid walk from its end back to its start,
    # which _compact keeps valid with that end and with no vertex's count
    # above the walk's
    g, start = _walk_start(chordal, n, k, seed)
    walk = _random_walk(g, start, length, random.Random(seed))
    end, back = _undo(start.colors, walk.steps)
    steps = _assert_compacts(g, RecoloringSequence(Coloring(k, end), tuple(back)))
    assert verify_sequence(g, RecoloringSequence(Coloring(k, end), tuple(steps))) == start


def test_two_way_pass_folds_backward():
    # vertex 0 goes 1 -> 3 -> 2, and vertex 1 holds 2 at vertex 0's step to 3,
    # so the plain pass cannot give vertex 0 its 2 early and keeps every step.
    # No neighbor takes 1 after that step, so the two-way pass keeps vertex 0
    # at 1 until its step to 2, and _compact finds that fold after a plain
    # pass that removed nothing
    seq = seq_of(4, (1, 2), [(0, 3), (1, 4), (0, 2)])
    assert _assert_compacts(K2, seq, _fold) == list(seq.steps)
    assert _assert_compacts(K2, seq, _two_way) == [(1, 4), (0, 2)]
    assert _assert_compacts(K2, seq) == [(1, 4), (0, 2)]


def test_two_way_pass_folds_a_return_forward():
    # vertex 1 goes 4 -> 3 -> 4, back to its color from before its first
    # step. A backward fold would keep it at 4 and leave its step to 4, which
    # changes nothing; the forward fold drops both steps instead
    seq = seq_of(4, (2, 4), [(1, 3), (1, 4)])
    assert _assert_compacts(K2, seq, _two_way) == []


def test_compact_drops_a_step_and_its_return():
    # vertex 1 goes 2 -> 3 -> 2 while vertex 0 stands still: both steps go,
    # and the return is not kept as a step that changes nothing
    seq = seq_of(4, (1, 2), [(1, 3), (1, 2)])
    assert _assert_compacts(K2, seq) == []


def test_compact_keeps_last_moved_time_of_dropped_steps():
    # star centred at 1. Vertex 1's steps 3 and 4 cancel, so both go, and its
    # chain of kept steps ends at its step 1 to color 3 again. Walked back,
    # that chain shows vertex 1 at its start color 4 when vertex 0 stepped to
    # 2, so vertex 0's step to 2 cannot become its step to 4 and stays
    star = Graph.from_edges(4, [(0, 1), (1, 2), (1, 3)])
    seq = seq_of(4, (3, 4, 1, 2), [(0, 2), (1, 3), (2, 4), (1, 1), (1, 3), (0, 4)])
    assert _assert_compacts(star, seq) == [(0, 2), (1, 3), (2, 4), (0, 4)]


def test_compact_rewrites_a_step_to_the_next_steps_color():
    # vertex 1 goes 2 -> 3 -> 5 while vertex 0 moves from 1 to 4: no neighbor
    # holds 5 in between, so the step to 3 becomes a step to 5 and the second
    # step goes, though a neighbor moved
    seq = seq_of(5, (1, 2), [(1, 3), (0, 4), (1, 5)])
    assert _assert_compacts(K2, seq) == [(1, 5), (0, 4)]


def test_compact_keeps_a_step_whose_color_a_neighbor_held_in_between():
    # on the path 0 - 1 - 2, vertex 1 holds 4 from step 1 to step 3, inside
    # vertex 0's interval from step 0 to step 4, so vertex 0's step to 5
    # cannot become its step to 4; vertex 1's step to 3 takes a color that
    # vertex 2 held in vertex 1's own interval, so it stays too. Backward, no
    # neighbor takes 2 in vertex 0's interval, so it keeps 2 until its last step
    seq = seq_of(5, (2, 1, 3), [(0, 5), (1, 4), (2, 1), (1, 3), (0, 4)])
    assert _assert_compacts(P3, seq, _fold) == list(seq.steps)
    assert _assert_compacts(P3, seq) == [(1, 4), (2, 1), (1, 3), (0, 4)]


def test_compact_sees_a_neighbors_step_rewritten_inside_the_interval():
    # vertex 1's step to 4 is rewritten to 5 at step 2, inside vertex 0's
    # interval, so vertex 1's chain holds 5 from step 0 to step 3. Vertex 0's
    # step to 3 must then stay: rewritten to 5 it would collide with vertex 1
    # at step 1.
    # The two-way pass finds no neighbor taking 1 in vertex 1's interval, so
    # it keeps vertex 1 at 1 until its step to 2. That frees vertex 0's
    # interval of vertex 1's 5, so the same pass then folds vertex 0's step
    # to 3 into its step to 5
    seq = seq_of(5, (2, 1, 3), [(1, 4), (0, 3), (1, 5), (1, 2), (0, 5)])
    assert _assert_compacts(P3, seq, _fold) == [(1, 5), (0, 3), (1, 2), (0, 5)]
    assert _assert_compacts(P3, seq) == [(0, 5), (1, 2)]


def test_fold_reads_no_dropped_step_of_a_neighbor():
    # vertex 0 goes 1 -> 3 -> 1 and both steps go, so its chain holds only its
    # start color 1. Vertex 1's walk over that chain finds no 3, so its step
    # to 2 and its return to 3 go as well
    seq = seq_of(4, (1, 3), [(1, 2), (0, 3), (0, 1), (1, 3)])
    assert _assert_compacts(K2, seq, _fold) == []


def test_compact_folds_past_a_neighbors_rewritten_color():
    # vertex 1's step to 3 is rewritten to 2, its next step's color, so its
    # chain never holds 3 and vertex 0's step to 1 becomes its step to 3.
    # Backward, vertex 0's step to 3 goes too
    seq = seq_of(4, (2, 4), [(0, 1), (1, 3), (1, 2), (0, 3), (0, 4), (1, 1)])
    assert _assert_compacts(K2, seq, _fold) == [(0, 3), (1, 1), (0, 4)]
    assert _assert_compacts(K2, seq) == [(1, 1), (0, 4)]


def _audit_corpus():
    """(sequence, ordering, graph) triples: best-choice outputs, which pass the
    audit, and random walks, which are valid but break its rules."""
    rng = random.Random(8)
    for n in range(1, 41):
        g = gen_chordal_omega3(n, n)
        peo = mcs_order(g)
        a = random_proper_coloring(g, peo, 5, n + 1)
        b = random_proper_coloring(g, peo, 5, n + 2)
        yield best_choice_recoloring(g, peo, a, b, 5), peo, g
        for k in (5, 6):
            start = random_proper_coloring(g, peo, k, n + k)
            yield _random_walk(g, start, 4 * n, rng), peo, g
    for n in range(2, 5):
        for seed in range(8):
            g = gen_chordal_omega3(n, seed)
            peo = mcs_order(g)
            start = random_proper_coloring(g, peo, 5, seed)
            for length in range(13):
                yield _random_walk(g, start, length, rng), peo, g


# SHA-256 of every report (strict=False) and strict=True message on the corpus
# above; a change to any count, saved total, violation or message breaks it.
AUDIT_DIGEST = "174e78107ff17996b681f51ee032c9328514e14af198c7c8e396f1c8ab06567c"


def test_audit_reports_match_recorded_digest():
    digest = hashlib.sha256()
    rules = Counter()
    for seq, peo, g in _audit_corpus():
        report = audit_best_choice(seq, peo, g, strict=False)
        rules.update(v.rule for v in report.violations)
        digest.update(json.dumps(report.to_json()).encode())
        try:
            audit_best_choice(seq, peo, g)
            digest.update(b"clean")
        except AuditViolation as err:
            digest.update(str(err).encode())
    assert set(rules) == {"repeat-pattern", "count-bound", "color-distinctness"}
    assert digest.hexdigest() == AUDIT_DIGEST


def _large_audit_corpus():
    """Best-choice sequences at benchmark size, with the chordal benchmark's
    endpoints: alpha random and beta greedy along mcs_order."""
    for seed in (1, 2, 3):
        g = gen_chordal_omega3(1600, seed)
        peo = mcs_order(g)
        a = random_proper_coloring(g, peo, 5, seed * 2 + 1)
        b = greedy_coloring(g, peo)
        yield best_choice_recoloring(g, peo, a, b, 5), peo, g


# SHA-256 of every report (strict=False) on the corpus above.
LARGE_AUDIT_DIGEST = "1b4bdda5de5bea7351889261c3f05b08aca04828ac3ae67b70232b446bf2fe04"


def test_large_audit_reports_match_recorded_digest():
    digest = hashlib.sha256()
    for seq, peo, g in _large_audit_corpus():
        digest.update(json.dumps(audit_best_choice(seq, peo, g, strict=False).to_json()).encode())
    assert digest.hexdigest() == LARGE_AUDIT_DIGEST


def _strict_outcome(audit, seq, peo, g):
    try:
        return audit(seq, peo, g).to_json()
    except AuditViolation as err:
        return str(err), err.to_json()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 30), st.integers(5, 6), st.integers(0, 90), st.integers(0, 10**6))
def test_audit_matches_every_vertex_reference(n, k, length, seed):
    # walks of up to 3n steps leave vertices with no step, one step and more
    g = gen_chordal_omega3(n, seed)
    peo = mcs_order(g)
    start = random_proper_coloring(g, peo, k, seed + 1)
    seq = _random_walk(g, start, min(length, 3 * n), random.Random(seed))
    report = audit_best_choice(seq, peo, g, strict=False)
    assert report.to_json() == helpers.audit_reference(seq, peo, g, strict=False).to_json()
    assert _strict_outcome(audit_best_choice, seq, peo, g) == _strict_outcome(
        helpers.audit_reference, seq, peo, g
    )


def test_strict_audit_raises_the_first_collected_violation():
    flagged = 0
    for seq, peo, g in _audit_corpus():
        report = audit_best_choice(seq, peo, g, strict=False)
        if report.clean:
            assert audit_best_choice(seq, peo, g) == report
            continue
        flagged += 1
        with pytest.raises(AuditViolation) as err:
            audit_best_choice(seq, peo, g)
        first = report.violations[0]
        assert (err.value.vertex, err.value.rule, err.value.index, err.value.detail) == (
            first.vertex, first.rule, first.index, first.detail
        )
    assert flagged
