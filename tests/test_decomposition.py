import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from recolor import (
    Coloring,
    EliminationOrdering,
    Graph,
    InvalidInput,
    NotWidth2,
    OmegaTooLarge,
    RecoloringSequence,
    degeneracy_order,
    gen_2tree,
    gen_chordal_omega3,
    gen_partial_2tree,
    audit_best_choice,
    is_perfect_elimination,
    later_neighbors,
    mcs_order,
)
from recolor import decomposition

import helpers

K3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
K4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
C4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def _random_graph(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def test_mcs_k3_is_perfect():
    assert is_perfect_elimination(K3, mcs_order(K3))


def test_mcs_edgeless_any_order_fine():
    g = Graph.from_edges(5, [])
    assert is_perfect_elimination(g, mcs_order(g))


def _is_chordal(g):
    return is_perfect_elimination(g, mcs_order(g))


def _clique_number(g):
    """1 + the most later neighbors along mcs_order: the clique number of a
    chordal graph, whose later-neighbor sets along a PEO are cliques."""
    return 1 + max(map(len, later_neighbors(g, mcs_order(g))), default=-1)


def test_c4_not_chordal():
    assert not _is_chordal(C4)


def test_k4_chordal():
    assert _is_chordal(K4)


def test_2tree_chordal():
    assert _is_chordal(gen_2tree(15, 2))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(0, 10**6), st.integers(1, 9))
def test_is_chordal_matches_brute_force(n, seed, tenths):
    g = _random_graph(n, tenths / 10, seed)
    assert is_perfect_elimination(g, mcs_order(g)) == helpers.brute_is_chordal(g)


def test_clique_number_k3():
    assert _clique_number(K3) == 3


def test_clique_number_edgeless():
    assert _clique_number(Graph.from_edges(4, [])) == 1


def test_clique_number_empty_graph():
    assert _clique_number(Graph.from_edges(0, [])) == 0


def test_clique_number_matches_brute_force():
    g = gen_chordal_omega3(40, 5)
    got = _clique_number(g)
    assert got == helpers.brute_max_clique(g, cap=4)
    assert got <= 3


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 12), st.integers(0, 10**6))
def test_clique_number_brute_small(n, seed):
    g = gen_chordal_omega3(n, seed)
    assert _clique_number(g) == helpers.brute_max_clique(g)


def test_clique_number_rejects_non_peo():
    # along this ordering vertex 0's later neighbors 1 and 3 are not adjacent
    assert not is_perfect_elimination(C4, EliminationOrdering((0, 1, 2, 3)))


@st.composite
def elimination_inputs(draw):
    """(graph, whether it holds a K4), over the elimination's cases, relabelled.

    Partial 2-trees across keep probabilities, chordal graphs of clique number
    <= 3, a fan whose hub meets every vertex, disjoint unions with isolated
    vertices, and partial 2-trees with a K4 added on four of their vertices.
    """
    family = draw(st.sampled_from(["partial-2tree", "chordal", "fan", "union", "k4"]))
    n = draw(st.integers(4, 60))
    seed = draw(st.integers(0, 10**6))
    if family == "chordal":
        edges = gen_chordal_omega3(n, seed).edges()
    elif family == "fan":
        edges = [(0, v) for v in range(1, n)] + [(v, v + 1) for v in range(1, n - 1)]
    else:
        edges = gen_partial_2tree(n, draw(st.integers(0, 10)) / 10, seed).edges()
    if family == "union":
        other = gen_partial_2tree(n, 0.7, seed + 1).edges()
        edges += [(u + n, v + n) for u, v in other]
        n = 2 * n + draw(st.integers(1, 5))
    elif family == "k4":
        quad = sorted(random.Random(seed).sample(range(n), 4))
        edges = sorted(set(edges) | {(u, v) for u in quad for v in quad if u < v})
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges]), family == "k4"


@settings(max_examples=120, deadline=None)
@given(elimination_inputs())
@example((Graph.from_edges(0, []), False))
@example((K4, True))
# with a pendant path 3-4-5-6 the path is eliminated first, and K4 still stalls
@example((Graph.from_edges(7, K4.edges() + [(3, 4), (4, 5), (5, 6)]), True))
def test_eliminate_matches_reference(instance):
    g, has_k4 = instance
    if has_k4:
        for eliminate in (helpers.eliminate_reference, decomposition._eliminate):
            with pytest.raises(NotWidth2, match="^all remaining vertices have degree at least 3$"):
                eliminate(g)
    else:
        expected = [(v, *nb) for v, nb in helpers.eliminate_reference(g)]
        assert decomposition._eliminate(g) == expected


def test_reduce_width2_k4_rejected():
    # the elimination that replaced reduce_width2 stalls on K4, also after a
    # pendant path 3-4-5-6 has been eliminated first
    k4_path = Graph.from_edges(7, K4.edges() + [(3, 4), (4, 5), (5, 6)])
    for g in (K4, k4_path):
        with pytest.raises(NotWidth2, match="degree at least 3"):
            decomposition._eliminate(g)


@settings(max_examples=60, deadline=None)
@given(elimination_inputs())
def test_elimination_bags_form_width2_tree(instance):
    # hung below the bag of its neighbor eliminated first, the bags (v, *N(v))
    # are a width-2 tree decomposition of g: every edge lies in a bag, and the
    # bags holding a vertex are connected, topped by its own bag
    g, has_k4 = instance
    assume(not has_k4)
    elim = decomposition._eliminate(g)
    index = {bag[0]: i for i, bag in enumerate(elim)}
    assert sorted(index) == list(range(g.n))
    for bag in elim:
        assert len(bag) <= 3 and all(index[u] > index[bag[0]] for u in bag[1:])
        if len(bag) > 1:
            parent = elim[min(index[u] for u in bag[1:])]
            assert set(bag[1:]) <= set(parent)
    for u, v in g.edges():
        first = elim[min(index[u], index[v])]
        assert u in first and v in first


def test_later_neighbors_last_vertex_empty():
    peo = mcs_order(K3)
    assert later_neighbors(K3, peo)[peo.order[-1]] == ()


def test_later_neighbors_k3_first_vertex():
    peo = EliminationOrdering((0, 1, 2))
    assert later_neighbors(K3, peo)[0] == (1, 2)


def test_later_neighbors_pairs_adjacent():
    g = gen_chordal_omega3(25, 1)
    peo = mcs_order(g)
    for outs in later_neighbors(g, peo):
        if len(outs) == 2:
            assert outs[1] in g.adjacency[outs[0]]


def test_later_neighbors_rejects_wrong_length():
    with pytest.raises(InvalidInput):
        later_neighbors(K3, EliminationOrdering((0, 1)))


def test_later_neighbors_keyed_by_value():
    decomposition._later_table.cache_clear()
    g = gen_chordal_omega3(40, 3)
    peo = mcs_order(g)
    pos = peo.positions()
    want = tuple(tuple(w for w in g.adjacency[v] if pos[w] > pos[v]) for v in range(g.n))
    assert later_neighbors(g, peo) == want
    # an equal graph and ordering, built anew, find the same table
    twin_g, twin_peo = Graph(g.n, g.adjacency), EliminationOrdering(peo.order)
    assert twin_g is not g and twin_peo is not peo
    assert later_neighbors(twin_g, twin_peo) == want
    assert decomposition._later_table.cache_info().misses == 1


def test_rejected_later_neighbors_call_caches_nothing():
    decomposition._later_table.cache_clear()
    with pytest.raises(InvalidInput):
        later_neighbors(K3, EliminationOrdering((0, 1)))
    assert decomposition._later_table.cache_info().currsize == 0
    assert later_neighbors(K3, EliminationOrdering((0, 1, 2))) == ((1, 2), (2,), ())
    assert decomposition._later_table.cache_info().misses == 1


def test_audit_rejects_three_later_neighbors():
    peo = EliminationOrdering((0, 1, 2, 3))
    assert len(later_neighbors(K4, peo)[0]) == 3
    seq = RecoloringSequence(Coloring(5, (1, 2, 3, 4)), ())
    with pytest.raises(OmegaTooLarge):
        audit_best_choice(seq, peo, K4)


def test_audit_rejects_an_ordering_that_is_not_perfect():
    # 1 comes first and its later neighbours 0 and 2 are not adjacent; the
    # sequence itself is valid, so only the ordering can be rejected
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    peo = EliminationOrdering((1, 0, 2))
    seq = RecoloringSequence(Coloring(5, (1, 2, 1)), ((1, 3), (0, 2), (2, 2), (1, 1)))
    assert not is_perfect_elimination(path, peo)
    for strict in (True, False):
        with pytest.raises(InvalidInput, match="not a perfect elimination ordering"):
            audit_best_choice(seq, peo, path, strict)


def test_ordering_must_be_a_permutation():
    with pytest.raises(InvalidInput):
        EliminationOrdering((0, 0, 1))


def test_degeneracy_order_on_partial_2tree():
    g = gen_partial_2tree(30, 0.6, 4)
    order = degeneracy_order(g)
    pos = order.positions()
    for v in range(g.n):
        assert sum(1 for w in g.adjacency[v] if pos[w] > pos[v]) <= 2


def test_peo_json_round_trip():
    peo = mcs_order(K3)
    assert EliminationOrdering.from_json(peo.to_json()) == peo
