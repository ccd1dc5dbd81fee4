import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recolor import (
    Coloring,
    EliminationOrdering,
    Graph,
    InvalidDecomposition,
    InvalidInput,
    NotWidth2,
    OmegaTooLarge,
    RecoloringSequence,
    TreeDecomposition,
    degeneracy_order,
    gen_2tree,
    gen_chordal_omega3,
    gen_partial_2tree,
    audit_best_choice,
    is_perfect_elimination,
    later_neighbors,
    mcs_order,
    reduce_width2,
    validate_decomposition,
)
from recolor import decomposition

import helpers

K3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
K4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
C4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
C5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])


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


def test_reduce_width2_k3_single_bag():
    td = reduce_width2(K3)
    assert td.bags == (frozenset({0, 1, 2}),)
    assert td.width() == 2


def test_reduce_width2_empty_graph_one_empty_bag():
    empty = Graph.from_edges(0, [])
    td = reduce_width2(empty)
    assert td.bags == (frozenset(),) and td.tree_edges == ()
    validate_decomposition(empty, td)


def test_reduce_width2_k4_rejected():
    # with a pendant path 3-4-5-6, the path eliminates first and K4 still stalls
    k4_path = Graph.from_edges(7, K4.edges() + [(3, 4), (4, 5), (5, 6)])
    for g in (K4, k4_path):
        with pytest.raises(NotWidth2, match="degree at least 3"):
            reduce_width2(g)


def test_reduce_width2_c5_three_bags():
    td = reduce_width2(C5)
    assert len(td.bags) == 3
    validate_decomposition(C5, td)


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 50), st.integers(0, 10**6), st.integers(0, 10))
def test_reduce_width2_valid_on_partial_2trees(n, seed, tenths):
    g = gen_partial_2tree(n, tenths / 10, seed)
    td = reduce_width2(g)
    validate_decomposition(g, td)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(3, 25), st.integers(0, 10), st.integers(0, 10**6)),
        min_size=1,
        max_size=3,
    ),
    st.integers(0, 4),
    st.integers(0, 10**6),
)
def test_reduce_width2_keeps_only_maximal_bags(parts, isolated, seed):
    # relabelled disjoint union of partial 2-trees plus isolated vertices
    edges, n = [], 0
    for size, tenths, part_seed in parts:
        part = gen_partial_2tree(size, tenths / 10, part_seed)
        edges += [(u + n, v + n) for u, v in part.edges()]
        n += size
    n += isolated
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    g = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])
    td = reduce_width2(g)
    validate_decomposition(g, td)
    for i, a in enumerate(td.bags):
        assert not any(a <= b for j, b in enumerate(td.bags) if j != i)


def test_reduce_width2_relabelled_fan():
    # hub 4 joined to every vertex of the path 6-0-3-7-1-5-2, which the
    # digest corpus never covers: its graphs are not relabelled
    path = [6, 0, 3, 7, 1, 5, 2]
    fan = Graph.from_edges(8, [(4, v) for v in path] + list(zip(path, path[1:])))
    assert reduce_width2(fan).to_json() == {
        "bags": [[3, 4, 7], [0, 3, 4], [0, 4, 6], [1, 4, 7], [1, 4, 5], [2, 4, 5]],
        "tree_edges": [[0, 1], [0, 3], [1, 2], [3, 4], [4, 5]],
    }


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
def test_eliminate_matches_reference(instance):
    g, has_k4 = instance
    if has_k4:
        for eliminate in (helpers.eliminate_reference, decomposition._eliminate):
            with pytest.raises(NotWidth2, match="^all remaining vertices have degree at least 3$"):
                eliminate(g)
    else:
        expected = [(v, *nb) for v, nb in helpers.eliminate_reference(g)]
        assert decomposition._eliminate(g) == expected


def test_validator_catches_missing_edge():
    td = TreeDecomposition((frozenset({0, 1}), frozenset({1, 2})), ((0, 1),))
    with pytest.raises(InvalidDecomposition, match=r"^edge \(0, 2\) is in no bag$"):
        validate_decomposition(K3, td)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 40), st.integers(0, 10**6), st.integers(0, 4))
def test_validator_edge_cover_matches_definition(n, seed, extra):
    # a valid decomposition of g, checked against g plus a few random edges
    g = gen_partial_2tree(n, 0.6, seed)
    td = reduce_width2(g)
    rng = random.Random(seed)
    added = [tuple(sorted(rng.sample(range(n), 2))) for _ in range(extra)]
    wider = Graph.from_edges(n, g.edges() + added)
    covered = {(u, v) for bag in td.bags for u in bag for v in bag if u < v}
    missing = [e for e in wider.edges() if e not in covered]
    if missing:
        u, v = missing[0]
        with pytest.raises(InvalidDecomposition, match=rf"^edge \({u}, {v}\) is in no bag$"):
            validate_decomposition(wider, td)
    else:
        validate_decomposition(wider, td)


def test_validator_catches_disconnected_vertex_set():
    td = TreeDecomposition(
        (frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})),
        ((0, 1), (1, 2)),
    )
    # vertex 0 sits in bags 0 and 2, which are not adjacent
    with pytest.raises(InvalidDecomposition):
        validate_decomposition(K3, td)


def test_validator_names_vertex_with_disconnected_bags():
    # path 0-1-2-3 rooted at bag 0: vertex 3 tops bags 1 and 3, not bag 2
    path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    td = TreeDecomposition(
        (frozenset({0, 1}), frozenset({1, 2, 3}), frozenset({2}), frozenset({2, 3})),
        ((0, 1), (1, 2), (2, 3)),
    )
    with pytest.raises(
        InvalidDecomposition, match=r"^bags containing vertex 3 are not connected$"
    ):
        validate_decomposition(path, td)


def test_validator_names_first_vertex_in_no_bag():
    # vertex 1 is in no bag; vertex 2's bags are not connected, but 1 comes first
    g = Graph.from_edges(4, [])
    td = TreeDecomposition(
        (frozenset({0, 2}), frozenset({3}), frozenset({2})), ((0, 1), (1, 2))
    )
    with pytest.raises(InvalidDecomposition, match=r"^vertex 1 is in no bag$"):
        validate_decomposition(g, td)


def test_validator_catches_oversized_bag():
    td = TreeDecomposition((frozenset({0, 1, 2, 3}),), ())
    with pytest.raises(InvalidDecomposition, match=r"^bag \[0, 1, 2, 3\] exceeds size 3$"):
        validate_decomposition(K4, td)


ALL3 = frozenset({0, 1, 2})


@pytest.mark.parametrize(
    "bags, tree_edges, message",
    [
        ((), (), r"^decomposition has no nodes$"),
        ((frozenset({0, 7}),), (), r"^bag vertex 7 out of range$"),
        ((ALL3, frozenset({0})), (), r"^tree edge count is not nodes-1$"),
        ((ALL3, frozenset({0})), ((0, 0),), r"^bad tree edge \(0, 0\)$"),
        ((ALL3, frozenset({0}), frozenset({1})), ((0, 1), (0, 1)), r"^tree is not connected$"),
        ((ALL3, 5), ((0, 1),), r"^bag 5 is not a set of vertices$"),
        ((ALL3, frozenset({0})), ((0,),), r"^tree edge \(0,\) is not a pair of nodes$"),
        ((ALL3, frozenset({0})), ((0, 1, 2),), r"^tree edge \(0, 1, 2\) is not a pair of nodes$"),
        (5, (), r"^bags 5 are not a collection of bags$"),
        ((ALL3, frozenset({0})), 5, r"^tree edges 5 are not a collection of pairs$"),
    ],
)
def test_validator_names_broken_tree(bags, tree_edges, message):
    with pytest.raises(InvalidDecomposition, match=message):
        validate_decomposition(K3, TreeDecomposition(bags, tree_edges))


@pytest.mark.parametrize(
    "bags, tree_edges, message",
    [
        ((frozenset({"a"}),), (), r"^bag entry must be an integer, got 'a'$"),
        # True == 1, so without the type check this passes as a bag of K3
        ((frozenset({0, True, 2}),), (), r"^bag entry must be an integer, got True$"),
        ((ALL3, frozenset({0})), ((0, 1.0),), r"^tree edge endpoint must be an integer, got 1\.0$"),
        ((ALL3, frozenset({0})), ((True, 0),), r"^tree edge endpoint must be an integer, got True$"),
    ],
)
def test_validator_rejects_non_integer_entries(bags, tree_edges, message):
    with pytest.raises(InvalidInput, match=message):
        validate_decomposition(K3, TreeDecomposition(bags, tree_edges))


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


def test_audit_rejects_three_later_neighbors():
    peo = EliminationOrdering((0, 1, 2, 3))
    assert len(later_neighbors(K4, peo)[0]) == 3
    seq = RecoloringSequence(Coloring(5, (1, 2, 3, 4)), ())
    with pytest.raises(OmegaTooLarge):
        audit_best_choice(seq, peo, K4)


def test_ordering_must_be_a_permutation():
    with pytest.raises(InvalidInput):
        EliminationOrdering((0, 0, 1))


def test_degeneracy_order_on_partial_2tree():
    g = gen_partial_2tree(30, 0.6, 4)
    order = degeneracy_order(g)
    pos = order.positions()
    for v in range(g.n):
        assert sum(1 for w in g.adjacency[v] if pos[w] > pos[v]) <= 2


def test_td_json_round_trip():
    td = reduce_width2(C5)
    assert TreeDecomposition.from_json(td.to_json()) == td


def test_peo_json_round_trip():
    peo = mcs_order(K3)
    assert EliminationOrdering.from_json(peo.to_json()) == peo
