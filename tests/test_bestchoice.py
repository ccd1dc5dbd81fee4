import hashlib
import json
import random
import time
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recolor import (
    AuditViolation,
    Coloring,
    EliminationOrdering,
    Graph,
    InvalidInput,
    OmegaTooLarge,
    audit_best_choice,
    best_choice_recoloring,
    gen_chordal_omega3,
    greedy_coloring,
    is_perfect_elimination,
    later_neighbors,
    mcs_order,
    random_proper_coloring,
    verify_sequence,
)
from recolor import bestchoice, decomposition
from recolor.bestchoice import _choose_color
from recolor.chordalize import PER_VERTEX_CHORDAL_BOUND
from recolor.sequences import RecoloringSequence

import helpers

K2 = Graph.from_edges(2, [(0, 1)])


def test_best_choice_rule1_target_wins():
    # valid = {3,4,5}, future colors 2,3; target 5 is valid and fresh
    assert _choose_color({1, 2}, [2, 3], target=5, k=5) == 5


def test_best_choice_rule2_smallest_fresh():
    # valid = {3,4}, target 1 is burned in the future; both 3 and 4 fresh
    assert _choose_color({1, 2, 5}, [1, 2, 5], target=1, k=5) == 3


def test_best_choice_rule3_latest_first_occurrence():
    assert _choose_color({1}, [3, 1, 1, 3, 2, 1, 2], target=1, k=3) == 2


def _old_choose_color(forbidden, future, target, k):
    """The rule over an explicit list of valid colors, as first written."""
    valid = [c for c in range(1, k + 1) if c not in forbidden]
    upcoming = set(future)
    if target in valid and target not in upcoming:
        return target
    fresh = [c for c in valid if c not in upcoming]
    if fresh:
        return min(fresh)
    first_at = {}
    for pos, c in enumerate(future):
        if c not in first_at:
            first_at[c] = pos
    return max(valid, key=lambda c: (first_at[c], -c))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 12).flatmap(
        lambda k: st.tuples(
            # at most k - 1 forbidden colors, so one is free: best choice's k >= 2 + width
            st.sets(st.integers(1, k), max_size=min(4, k - 1)),
            st.lists(st.integers(1, k), max_size=12),
            st.integers(1, k),
            st.just(k),
        )
    )
)
def test_choose_color_matches_listing_rule(args):
    assert _choose_color(*args) == _old_choose_color(*args)


def test_choose_color_matches_listing_rule_on_instances(monkeypatch):
    # every forced move of best_choice_recoloring, k = 5..12, on random chordal
    # instances and on 3-trees, whose vertices have three later neighbors
    picks = []

    def both(forbidden, future, target, k):
        # fewer than k forbidden colors of 1..k leave one free: k >= 2 + width
        assert len(forbidden) < k
        got = _choose_color(forbidden, future, target, k)
        assert got == _old_choose_color(forbidden, future, target, k)
        picks.append(len(forbidden | set(future)) >= k)
        return got

    monkeypatch.setattr(bestchoice, "_choose_color", both)
    for k in range(5, 13):
        for s in range(3):
            for g in (gen_chordal_omega3(200, s), _three_tree(200, s)):
                peo = mcs_order(g)
                alpha = random_proper_coloring(g, peo, k, s + k)
                beta = random_proper_coloring(g, peo, k, s + 2 * k)
                best_choice_recoloring(g, peo, alpha, beta, k)
    # both the first two rules and the last, where every color up to k is
    # forbidden or upcoming, ran
    assert any(picks) and not all(picks)


def test_choose_color_cost_does_not_grow_with_k():
    g = gen_chordal_omega3(40, 3)
    peo = mcs_order(g)
    alpha = random_proper_coloring(g, peo, 5, 1)
    beta = greedy_coloring(g, peo)
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        seq = best_choice_recoloring(g, peo, alpha, beta, 10**9)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verify_sequence(g, seq).colors == beta.colors
    assert elapsed < 1 and peak < 10**6, (elapsed, peak)


def _k2_steps(alpha, beta):
    return best_choice_recoloring(
        K2, EliminationOrdering((0, 1)), Coloring(5, alpha), Coloring(5, beta), 5
    ).steps


def test_extend_noop_when_never_conflicted_and_already_at_target():
    # the neighbor moves to a color u never holds, and u is already at its target
    assert _k2_steps((1, 2), (1, 3)) == ((1, 3),)


def test_extend_k2_swap():
    # u=0 goes 1->2 while v=1 goes 2->1; u must detour through a spare color
    assert _k2_steps((1, 2), (2, 1)) == ((0, 3), (1, 1), (0, 2))


def test_extend_appends_trailing_target_step():
    assert _k2_steps((1, 2), (4, 3)) == ((1, 3), (0, 4))


def test_recoloring_single_vertex():
    g = Graph.from_edges(1, [])
    peo = EliminationOrdering((0,))
    seq = best_choice_recoloring(g, peo, Coloring(5, (1,)), Coloring(5, (2,)), 5)
    assert seq.steps == ((0, 2),)


def test_recoloring_identical_endpoints_empty():
    g = gen_chordal_omega3(20, 1)
    peo = mcs_order(g)
    a = random_proper_coloring(g, peo, 5, 2)
    assert best_choice_recoloring(g, peo, a, a, 5).steps == ()


def test_recoloring_rejects_improper_inputs():
    with pytest.raises(InvalidInput):
        best_choice_recoloring(
            K2, EliminationOrdering((0, 1)), Coloring(5, (1, 1)), Coloring(5, (1, 2)), 5
        )


def test_recoloring_rejects_small_k():
    # K3 has a vertex with two later neighbors, so k must be at least 4
    k3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    with pytest.raises(InvalidInput):
        best_choice_recoloring(
            k3,
            EliminationOrdering((0, 1, 2)),
            Coloring(5, (1, 2, 3)),
            Coloring(5, (2, 3, 1)),
            3,
        )


def test_recoloring_rejects_non_peo():
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    with pytest.raises(InvalidInput):
        best_choice_recoloring(
            c4,
            EliminationOrdering((0, 1, 2, 3)),
            Coloring(5, (1, 2, 1, 2)),
            Coloring(5, (2, 1, 2, 1)),
            5,
        )


def _fan(n: int, missing: int | None = None) -> Graph:
    """Hub 0 joined to every vertex of the path 1..n-1, except to `missing`."""
    spokes = [(0, v) for v in range(1, n) if v != missing]
    return Graph.from_edges(n, spokes + [(v, v + 1) for v in range(1, n - 1)])


def test_perfect_elimination_on_a_fan_with_a_hub():
    # the hub comes last, so every path vertex's later neighbours are its
    # successor and the hub, looked up in the hub's long adjacency tuple
    n = 20000
    fan = _fan(n)
    peo = EliminationOrdering(tuple(range(1, n)) + (0,))
    assert is_perfect_elimination(fan, peo)
    assert is_perfect_elimination(fan, mcs_order(fan))
    a = random_proper_coloring(fan, peo, 5, 1)
    b = greedy_coloring(fan, peo)
    assert verify_sequence(fan, best_choice_recoloring(fan, peo, a, b, 5)).colors == b.colors

    # without the chord (0, 10), vertex 9's later neighbours 10 and 0 are not adjacent
    broken = _fan(n, missing=10)
    assert not is_perfect_elimination(broken, peo)
    with pytest.raises(InvalidInput, match="not a perfect elimination ordering"):
        best_choice_recoloring(broken, peo, a, greedy_coloring(broken, peo), 5)


def test_one_positions_pass_per_public_call(monkeypatch):
    calls = []
    positions = EliminationOrdering.positions

    def counting(self):
        calls.append(self)
        return positions(self)

    monkeypatch.setattr(EliminationOrdering, "positions", counting)
    decomposition._later_table.cache_clear()
    g = gen_chordal_omega3(60, 5)
    peo = mcs_order(g)
    a = random_proper_coloring(g, peo, 5, 0)
    b = greedy_coloring(g, peo)
    seq = best_choice_recoloring(g, peo, a, b, 5)
    assert len(calls) == 1
    # the audit of the same (g, peo) reads the table best-choice built
    audit_best_choice(seq, peo, g)
    assert len(calls) == 1
    # another (g, peo) and the switch back each build it again
    h = gen_chordal_omega3(60, 6)
    assert is_perfect_elimination(h, mcs_order(h))
    assert len(calls) == 2
    audit_best_choice(seq, peo, g)
    assert len(calls) == 3


def test_one_later_table_build_per_ordering():
    decomposition._later_table.cache_clear()
    g = gen_chordal_omega3(60, 7)
    peo = mcs_order(g)
    a = random_proper_coloring(g, peo, 5, 0)
    b = greedy_coloring(g, peo)
    seq = best_choice_recoloring(g, peo, a, b, 5)
    assert best_choice_recoloring(g, peo, a, b, 5) == seq
    audit_best_choice(seq, peo, g)
    assert is_perfect_elimination(g, peo)
    later_neighbors(g, peo)
    # the table and its verdict come from the one build; every later call hits
    assert decomposition._later_table.cache_info().misses == 1


def test_best_choice_and_audit_share_one_rejection_per_ordering():
    # a 3-tree has width 3: best choice runs at k = 5, and the audit, which
    # holds the ordering to width 2, rejects it; the two read one build
    decomposition._later_table.cache_clear()
    g = _three_tree(60, 2)
    peo = mcs_order(g)
    a = random_proper_coloring(g, peo, 5, 1)
    b = random_proper_coloring(g, peo, 5, 2)
    seq = best_choice_recoloring(g, peo, a, b, 5)
    with pytest.raises(OmegaTooLarge, match="later neighbors"):
        audit_best_choice(seq, peo, g)
    assert decomposition._later_table.cache_info().misses == 1

    # 1 comes first on the path 0-1-2, and its later neighbours 0 and 2 are
    # not adjacent: both calls raise the one InvalidInput from one build
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    order = EliminationOrdering((1, 0, 2))
    start, end = Coloring(5, (1, 2, 1)), Coloring(5, (2, 1, 2))
    with pytest.raises(InvalidInput) as recolor_exc:
        best_choice_recoloring(path, order, start, end, 5)
    seq = RecoloringSequence(start, ((1, 3), (0, 2), (2, 2), (1, 1)))
    with pytest.raises(InvalidInput) as audit_exc:
        audit_best_choice(seq, order, path)
    message = "ordering is not a perfect elimination ordering"
    assert str(recolor_exc.value) == str(audit_exc.value) == message
    assert decomposition._later_table.cache_info().misses == 2


def test_recoloring_large_instance_bounded():
    g = gen_chordal_omega3(200, 11)
    peo = mcs_order(g)
    a = random_proper_coloring(g, peo, 5, 0)
    b = greedy_coloring(g, peo)
    seq = best_choice_recoloring(g, peo, a, b, 5)
    final = verify_sequence(g, seq)
    assert final.colors == b.colors
    assert max(Counter(v for v, _ in seq.steps).values()) <= PER_VERTEX_CHORDAL_BOUND


def test_recoloring_checks_the_bound_at_k5_only(monkeypatch):
    # a run patched to move vertex 0 to 3 and back 272 times after its real
    # steps stays valid and ends at beta, but recolors vertex 0 at least 544
    # times: the one replay rejects it at k = 5, and at k = 4, where no bound
    # holds, returns it
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    peo = EliminationOrdering((0, 1, 2))
    best_choice = bestchoice._best_choice

    def padded(*args):
        return best_choice(*args) + [(0, 3), (0, 2)] * 272

    monkeypatch.setattr(bestchoice, "_best_choice", padded)
    a, b = (1, 2, 1), (2, 1, 2)
    over = r"vertex 0 is recolored 54\d times, over the bound 542"
    with pytest.raises(AssertionError, match=over):
        best_choice_recoloring(g, peo, Coloring(5, a), Coloring(5, b), 5)
    seq = best_choice_recoloring(g, peo, Coloring(4, a), Coloring(4, b), 4)
    assert verify_sequence(g, seq).colors == b


def test_recoloring_holds_no_k4_graph_to_the_bound_at_k5(monkeypatch):
    # 542 is a claim for at most 2 later neighbors; at k = 5 a 3-tree, with
    # 3 later neighbors, is accepted but held to no bound, even a bound of 0
    monkeypatch.setattr(bestchoice, "PER_VERTEX_CHORDAL_BOUND", 0)
    g = _three_tree(100, 1)
    peo = mcs_order(g)
    assert max(map(len, later_neighbors(g, peo))) == 3
    a = random_proper_coloring(g, peo, 5, 1)
    b = random_proper_coloring(g, peo, 5, 2)
    seq = best_choice_recoloring(g, peo, a, b, 5)
    assert seq.steps and verify_sequence(g, seq).colors == b.colors


def test_recoloring_checks_a_lowered_bound(monkeypatch):
    # the replay compares the largest count with the bound: equal passes,
    # one less raises
    g = gen_chordal_omega3(200, 11)
    peo = mcs_order(g)
    a = random_proper_coloring(g, peo, 5, 0)
    b = greedy_coloring(g, peo)
    top = max(Counter(v for v, _ in best_choice_recoloring(g, peo, a, b, 5).steps).values())
    monkeypatch.setattr(bestchoice, "PER_VERTEX_CHORDAL_BOUND", top)
    best_choice_recoloring(g, peo, a, b, 5)
    monkeypatch.setattr(bestchoice, "PER_VERTEX_CHORDAL_BOUND", top - 1)
    with pytest.raises(AssertionError, match=f"recolored {top} times, over the bound {top - 1}"):
        best_choice_recoloring(g, peo, a, b, 5)


def test_closure_on_suffixes():
    # the restriction to any suffix of the ordering is a valid sequence on the
    # induced subgraph, from alpha to beta restricted
    g = gen_chordal_omega3(40, 7)
    peo = mcs_order(g)
    a = random_proper_coloring(g, peo, 5, 1)
    b = greedy_coloring(g, peo)
    seq = best_choice_recoloring(g, peo, a, b, 5)
    for i in range(0, g.n, 7):
        suffix = set(peo.order[i:])
        sub = Graph.from_edges(g.n, [e for e in g.edges() if suffix.issuperset(e)])
        part = RecoloringSequence(a, tuple(s for s in seq.steps if s[0] in suffix))
        final = verify_sequence(sub, part)
        assert all(final.colors[v] == b.colors[v] for v in suffix)


def test_insertions_are_caused_with_vacated_color():
    g = gen_chordal_omega3(60, 13)
    peo = mcs_order(g)
    a = random_proper_coloring(g, peo, 5, 3)
    b = greedy_coloring(g, peo)
    seq = best_choice_recoloring(g, peo, a, b, 5)
    later = later_neighbors(g, peo)

    cur = list(a.colors)
    last_step_of = {}
    for t, (v, _) in enumerate(seq.steps):
        last_step_of[v] = t
    for t, (v, c) in enumerate(seq.steps):
        old = cur[v]
        if t != last_step_of[v]:
            # the causing step is the first later step touching N+(v), and it
            # takes the color v just vacated
            cause = next((s, col) for s, col in seq.steps[t + 1 :] if s in later[v])
            assert cause[1] == old
        cur[v] = c


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 80), st.integers(0, 10**6))
def test_recoloring_verifies_and_audits_clean(n, seed):
    g = gen_chordal_omega3(n, seed)
    peo = mcs_order(g)
    a = random_proper_coloring(g, peo, 5, seed + 1)
    b = random_proper_coloring(g, peo, 5, seed + 2)
    seq = best_choice_recoloring(g, peo, a, b, 5)
    assert verify_sequence(g, seq).colors == b.colors
    assert audit_best_choice(seq, peo, g).clean


def test_audit_flags_best_choice_at_four_colors():
    """Negative control: on the squared path the k = 4 run breaks the audit, k = 5 does not.

    At k = 4 the interior of alpha is frozen, each vertex seeing the other
    three colors, and the per-vertex bound is a k = 5 claim.
    """
    for k, length, violations, most in (
        (4, 48, {"repeat-pattern": 8, "count-bound": 3}, 8),
        (5, 15, {}, 2),
    ):
        g, alpha, beta = helpers.squared_path(13, k)
        peo = mcs_order(g)
        seq = best_choice_recoloring(g, peo, alpha, beta, k)
        assert len(seq.steps) == length
        assert verify_sequence(g, seq).colors == beta.colors
        report = audit_best_choice(seq, peo, g, strict=False)
        assert Counter(v.rule for v in report.violations) == violations
        assert max(report.counts) == most
        if violations:
            with pytest.raises(AuditViolation):
                audit_best_choice(seq, peo, g, strict=True)


# SHA-256 of the fixed-seed outputs below, at n up to 2000 and on a 3-tree whose
# vertices have three later neighbors; a change to any produced sequence breaks
# it. Refresh it only with a stated and measured change of outputs.
BEST_CHOICE_DIGEST = "3d0beeed43a6e11789cd50b7392888a843c2c745626562af54067c37a5d41558"


def _three_tree(n, seed):
    """K4 on 0..3, then each vertex joins a random triangle of an earlier K4."""
    rng = random.Random(seed)
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    cliques = [(0, 1, 2, 3)]
    for v in range(4, n):
        tri = rng.sample(rng.choice(cliques), 3)
        edges += [(w, v) for w in tri]
        cliques.append((*tri, v))
    return Graph.from_edges(n, edges)


def test_best_choice_outputs_match_recorded_digest():
    digest = hashlib.sha256()
    for n in (1000, 2000):
        h = gen_chordal_omega3(n, n)
        peo = mcs_order(h)
        alpha = random_proper_coloring(h, peo, 5, 1)
        beta = random_proper_coloring(h, peo, 5, 2)
        seq = best_choice_recoloring(h, peo, alpha, beta, 5)
        digest.update(json.dumps(seq.to_json()).encode())

    g = _three_tree(300, 3)
    peo = EliminationOrdering(tuple(reversed(range(300))))
    assert max(map(len, later_neighbors(g, peo))) == 3
    alpha = random_proper_coloring(g, peo, 6, 1)
    beta = random_proper_coloring(g, peo, 6, 2)
    seq = best_choice_recoloring(g, peo, alpha, beta, 6)
    digest.update(json.dumps(seq.to_json()).encode())
    assert digest.hexdigest() == BEST_CHOICE_DIGEST
