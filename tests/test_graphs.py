import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recolor import (
    Coloring,
    EliminationOrdering,
    ExperimentConfig,
    Graph,
    InvalidColoring,
    InvalidInput,
    InvalidSize,
    NotEnoughColors,
    best_choice_recoloring,
    bfs_distance,
    degeneracy_order,
    gen_2tree,
    gen_chordal_omega3,
    gen_partial_2tree,
    greedy_coloring,
    is_perfect_elimination,
    is_proper,
    mcs_order,
    pipeline_theorem,
    proper_coloring_count,
    random_proper_coloring,
    reconfig_connected,
    reconfig_diameter,
    run_experiments,
    two_phase_transform,
)

import helpers

K3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
K2 = Graph.from_edges(2, [(0, 1)])
P3 = Graph.from_edges(3, [(0, 1), (1, 2)])


def test_is_proper_rainbow_triangle():
    assert is_proper(K3, Coloring(3, (1, 2, 3)))


def test_is_proper_monochromatic_edge():
    assert not is_proper(K2, Coloring(2, (1, 1)))


def test_is_proper_alternating_path():
    assert is_proper(P3, Coloring(2, (1, 2, 1)))


def test_is_proper_length_mismatch():
    with pytest.raises(InvalidColoring):
        is_proper(K3, Coloring(3, (1, 2)))


def test_coloring_rejects_out_of_range():
    with pytest.raises(InvalidColoring):
        Coloring(2, (1, 3))
    # the message names the first color out of range, and a NaN is out of
    # range; a color is an int, so a bool, a float or a string is out of range
    # even where it equals a color in 1..5
    for colors, bad in (
        ((1, 6, 0), "6"), ((1, 0, 6), "0"), ((2, float("nan")), "nan"),
        ((True, 2), "True"), ((1, 2.0), "2.0"), (("a",), "'a'"), ((2, None), "None"),
    ):
        with pytest.raises(InvalidColoring, match=rf"^color {bad} outside 1\.\.5$"):
            Coloring(5, colors)
    assert Coloring(5, ()).colors == ()
    # k is an int of at least 1, and a colour that hashes like one in 1..k but
    # is no int, or cannot be hashed, is still named
    with pytest.raises(InvalidInput, match=r"^k must be an integer, got 'a'$"):
        Coloring("a", (1,))
    with pytest.raises(InvalidInput, match=r"^need k >= 1, got 0$"):
        Coloring(0, ())
    with pytest.raises(InvalidColoring, match=r"^color True outside 1\.\.5$"):
        Coloring(5, (1, True))
    with pytest.raises(InvalidColoring, match=r"^color \[1\] outside 1\.\.5$"):
        Coloring(5, ([1],))


@pytest.mark.parametrize("bad", [True, "1", 1.0, None])
def test_vertex_lists_reject_non_integers(bad):
    # a bool would be stored as a vertex and break the JSON round trip, and a
    # string would fail a comparison deep inside
    with pytest.raises(InvalidInput, match=rf"^edge endpoint must be an integer, got {bad!r}$"):
        Graph.from_edges(3, [(0, 2), (0, bad)])
    with pytest.raises(InvalidInput, match=rf"^ordering entry must be an integer, got {bad!r}$"):
        EliminationOrdering((bad, 0))


@pytest.mark.parametrize("edge", [(0, 1, 2), 5, (0,), None])
def test_from_edges_names_an_edge_that_is_not_a_pair(edge):
    with pytest.raises(InvalidInput, match=rf"^edge {re.escape(repr(edge))} is not a pair of vertices$"):
        Graph.from_edges(3, [(0, 1), edge])


@pytest.mark.parametrize("edges", [None, 5, 1.5, True])
def test_from_edges_rejects_edges_that_are_not_iterable(edges):
    message = rf"^edges must be an iterable of vertex pairs, got {type(edges).__name__}$"
    with pytest.raises(InvalidInput, match=message):
        Graph.from_edges(3, edges)


def test_graph_rejects_self_loop():
    for n, edges in ((2, [(0, 0)]), (2, [(0, 5)]), (-1, [])):
        with pytest.raises(InvalidInput):
            Graph.from_edges(n, edges)
    with pytest.raises(InvalidInput):
        Graph.from_json({"n": -1, "edges": []})


UNSORTED = "adjacency rows must be sorted, without repeats, and symmetric"


def test_graph_constructor_checks_its_fields():
    # an out-of-range neighbour or an asymmetric row is rejected when built,
    # not met as a TypeError, IndexError or KeyError inside a call
    alpha, beta = Coloring(5, (1, 2)), Coloring(5, (2, 1))
    for call in (
        lambda: reconfig_connected(Graph(2, ((5,), ())), 5),
        lambda: is_proper(Graph(2, ((5,), ())), alpha),
        lambda: pipeline_theorem(Graph(2, ((5,), ())), alpha, beta),
        lambda: pipeline_theorem(Graph(2, ((1,), ())), alpha, beta),
    ):
        with pytest.raises(InvalidInput):
            call()
    for n, adjacency, message in (
        (2.0, ((), ()), r"^vertex count must be an integer, got 2\.0$"),
        (-1, (), r"^need vertex count >= 0, got -1$"),
        (2, [(), ()], r"^adjacency must be a tuple of 2 tuples$"),
        (2, ((), [0]), r"^adjacency must be a tuple of 2 tuples$"),
        (2, ((1,),), r"^adjacency must be a tuple of 2 tuples$"),
        (2, ((True,), (0,)), r"^edge endpoint must be an integer, got True$"),
        (2, ((-1,), ()), r"^edge \(0, -1\) out of range for n=2$"),
        (2, ((0,), ()), r"^self-loop at vertex 0$"),
        (3, ((2, 1), (0,), (0,)), rf"^{UNSORTED}$"),
        (3, ((1, 1), (0,), ()), rf"^{UNSORTED}$"),
        (3, ((1,), (0, 2), (0,)), rf"^{UNSORTED}$"),
    ):
        with pytest.raises(InvalidInput, match=message):
            Graph(n, adjacency)
    for g in (K3, P3, Graph.from_edges(0, []), gen_2tree(50, 1), gen_partial_2tree(50, 0.5, 2)):
        assert Graph(g.n, g.adjacency) == g


def test_graph_constructor_check_is_not_quadratic_in_degree():
    # a star's centre row holds 20000 leaves, which a scan of the centre's row
    # per leaf would read 20000 times
    star = Graph.from_edges(20001, [(0, v) for v in range(1, 20001)])
    start = time.perf_counter()
    assert Graph(star.n, star.adjacency) == star
    assert time.perf_counter() - start < 1.0


def test_graph_json_rejects_huge_n_before_allocating():
    start = time.perf_counter()
    with pytest.raises(InvalidInput, match=r"declares 1000000000 vertices, above 1000000"):
        Graph.from_json({"n": 10**9, "edges": []})
    assert time.perf_counter() - start < 1.0


def test_gen_2tree_base_is_triangle():
    assert gen_2tree(3, 0) == K3


def test_gen_2tree_n4_is_k4_minus_edge():
    g = gen_2tree(4, 1)
    assert g.num_edges() == 5
    assert sorted(map(len, g.adjacency)) == [2, 2, 3, 3]


def test_gen_2tree_edge_count_n20():
    assert gen_2tree(20, 7).num_edges() == 2 * 20 - 3


def test_gen_2tree_too_small():
    with pytest.raises(InvalidSize):
        gen_2tree(2, 0)


def test_gen_2tree_reproducible():
    assert gen_2tree(15, 9) == gen_2tree(15, 9)
    assert gen_2tree(15, 9) != gen_2tree(15, 10)


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 60), st.integers(0, 10**6))
def test_gen_2tree_properties(n, seed):
    g = gen_2tree(n, seed)
    assert g.num_edges() == 2 * n - 3
    assert is_perfect_elimination(g, mcs_order(g))


def test_gen_partial_2tree_too_small():
    with pytest.raises(InvalidSize, match="at least 3 vertices, got 2"):
        gen_partial_2tree(2, 0.6, 0)


def test_gen_partial_2tree_keep_all():
    assert gen_partial_2tree(12, 1.0, 5) == gen_2tree(12, 5)


def test_gen_partial_2tree_keep_none():
    g = gen_partial_2tree(10, 0.0, 5)
    assert g.num_edges() == 0 and g.n == 10


@pytest.mark.parametrize("keep_prob", [2.0, -0.1, float("nan")])
def test_gen_partial_2tree_rejects_bad_keep_prob(keep_prob):
    with pytest.raises(InvalidInput, match="keep_prob"):
        gen_partial_2tree(10, keep_prob, 5)


def test_gen_partial_2tree_accepted_by_reduction():
    from recolor import decomposition

    g = gen_partial_2tree(10, 0.5, 1)
    assert sorted(bag[0] for bag in decomposition._eliminate(g)) == list(range(g.n))


def test_gen_chordal_single_vertex():
    g = gen_chordal_omega3(1, 0)
    assert g.n == 1 and g.num_edges() == 0


def test_gen_chordal_rejects_no_vertices():
    with pytest.raises(InvalidSize, match="at least 1 vertex, got 0"):
        gen_chordal_omega3(0, 4)


def _old_partial_2tree(n, keep_prob, seed):
    """gen_partial_2tree as it was: the whole 2-tree built, then its edges filtered."""
    rng = random.Random(seed)
    edges = [(0, 1), (0, 2), (1, 2)]
    for v in range(3, n):
        a, b = edges[rng.randrange(len(edges))]
        edges += [(a, v), (b, v)]
    base = Graph.from_edges(n, edges)
    assert base == gen_2tree(n, seed)
    return Graph.from_edges(n, [e for e in base.edges() if rng.random() < keep_prob])


@pytest.mark.parametrize("n", [3, 4, 10, 200])
def test_gen_partial_2tree_matches_build_then_filter(n):
    for keep_prob in (0.0, 0.3, 0.6, 0.95, 1.0):
        for seed in range(6):
            assert gen_partial_2tree(n, keep_prob, seed) == _old_partial_2tree(
                n, keep_prob, seed
            )


def test_gen_chordal_can_produce_k3():
    # seed found by search; all-size-2 choices collapse to K3 at n=3
    assert gen_chordal_omega3(3, 4) == K3


def test_gen_chordal_chordal_and_omega_le_3():
    g = gen_chordal_omega3(50, 3)
    assert is_perfect_elimination(g, mcs_order(g))
    assert helpers.brute_max_clique(g, cap=4) <= 3


def test_random_proper_coloring_edgeless_k1():
    g = Graph.from_edges(4, [])
    col = random_proper_coloring(g, mcs_order(g), 1, 0)
    assert col.colors == (1, 1, 1, 1)


def test_random_proper_coloring_k3_rainbow():
    col = random_proper_coloring(K3, mcs_order(K3), 3, 11)
    assert sorted(col.colors) == [1, 2, 3]


def test_random_proper_coloring_chordal():
    g = gen_chordal_omega3(30, 3)
    col = random_proper_coloring(g, mcs_order(g), 5, 2)
    assert is_proper(g, col)


def test_random_proper_coloring_not_enough():
    with pytest.raises(NotEnoughColors):
        random_proper_coloring(K3, mcs_order(K3), 2, 0)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 40), st.integers(0, 10**6), st.integers(0, 10**6))
def test_random_proper_coloring_always_proper(n, gseed, cseed):
    g = gen_chordal_omega3(n, gseed)
    for k in (3, 4, 5):
        assert is_proper(g, random_proper_coloring(g, mcs_order(g), k, cseed))


def _listing_coloring(g, peo, k, seed):
    """random_proper_coloring over an explicit list of free colors, as first written."""
    rng = random.Random(seed)
    colors = [0] * g.n
    for v in reversed(peo.order):
        used = {colors[w] for w in g.adjacency[v] if colors[w]}
        avail = [c for c in range(1, k + 1) if c not in used]
        if not avail:
            return None
        colors[v] = rng.choice(avail)
    return tuple(colors)


def test_random_proper_coloring_matches_listing_rule():
    for s in range(4):
        for g in (gen_chordal_omega3(30, s), gen_2tree(12, s), gen_partial_2tree(20, 0.6, s)):
            for order in (mcs_order(g), degeneracy_order(g)):
                for k in range(1, 13):
                    for seed in range(3):
                        try:
                            got = random_proper_coloring(g, order, k, seed).colors
                        except NotEnoughColors:
                            got = None
                        assert got == _listing_coloring(g, order, k, seed), (s, k, seed)


def test_random_proper_coloring_cost_does_not_grow_with_k():
    g = gen_chordal_omega3(40, 3)
    peo = mcs_order(g)
    t0 = time.perf_counter()
    col = random_proper_coloring(g, peo, 10**9, 1)
    assert time.perf_counter() - t0 < 0.1
    assert is_proper(g, col)


def test_greedy_coloring_uses_three_colors_on_chordal():
    g = gen_chordal_omega3(40, 8)
    col = greedy_coloring(g, mcs_order(g))
    assert col.k <= 3
    assert is_proper(g, col)


@pytest.mark.parametrize("order", [(0, 1, 2, 3), (0, 1)])
def test_greedy_coloring_rejects_wrong_length_ordering(order):
    with pytest.raises(InvalidInput, match=f"ordering has {len(order)} vertices"):
        greedy_coloring(P3, EliminationOrdering(order))


def test_graph_json_round_trip():
    g = gen_partial_2tree(9, 0.7, 2)
    blob = g.to_json()
    assert blob["edges"] == sorted(blob["edges"])
    assert all(u < v for u, v in blob["edges"])
    assert Graph.from_json(blob) == g


def test_coloring_json_round_trip():
    col = Coloring(5, (1, 4, 2))
    assert Coloring.from_json(col.to_json()) == col


def _k3_calls(k):
    """Every public call that takes an integer parameter, on the triangle."""
    order = EliminationOrdering((0, 1, 2))
    rainbow, turned = Coloring(5, (1, 2, 3)), Coloring(5, (2, 3, 1))
    return {
        "random_proper_coloring": lambda: random_proper_coloring(K3, order, k, 1),
        "best_choice_recoloring": lambda: best_choice_recoloring(
            K3, order, rainbow, turned, k
        ),
        "two_phase k": lambda: two_phase_transform(K3, rainbow, turned, 2, k),
        "two_phase d": lambda: two_phase_transform(K3, rainbow, turned, k, 5),
        "bfs_distance": lambda: bfs_distance(K3, k, rainbow, turned),
        "proper_coloring_count": lambda: proper_coloring_count(K3, k),
        "reconfig_connected": lambda: reconfig_connected(K3, k),
        "reconfig_diameter": lambda: reconfig_diameter(K3, k),
    }


@pytest.mark.parametrize(
    "call, k, message",
    [
        (call, k, rf"^{name} must be an integer, got {k!r}$")
        for call in _k3_calls(0)
        for name in ["d" if call == "two_phase d" else "k"]
        for k in (5.0, 5.5, True, "5", None)
    ]
    + [
        ("random_proper_coloring", 0, r"^need k >= 1, got 0$"),
        ("best_choice_recoloring", 3, r"^need k >= 4, got 3$"),
        ("two_phase k", 4, r"^need k >= 5, got 4$"),
        ("two_phase d", -1, r"^need d >= 0, got -1$"),
        ("bfs_distance", 0, r"^need k >= 1, got 0$"),
        ("proper_coloring_count", 0, r"^need k >= 1, got 0$"),
        ("reconfig_connected", -2, r"^need k >= 1, got -2$"),
        ("reconfig_diameter", 0, r"^need k >= 1, got 0$"),
    ],
)
def test_integer_parameters_are_checked(call, k, message):
    with pytest.raises(InvalidInput, match=message):
        _k3_calls(k)[call]()


# Each size or count parameter checked by graphs._require_int, with its name.
_CHECKED_SIZES = {
    "gen_2tree": ("n", lambda x: gen_2tree(x, 1)),
    "gen_partial_2tree": ("n", lambda x: gen_partial_2tree(x, 0.6, 1)),
    "gen_chordal_omega3": ("n", lambda x: gen_chordal_omega3(x, 1)),
    "gen_2tree seed": ("seed", lambda x: gen_2tree(5, x)),
    "gen_partial_2tree seed": ("seed", lambda x: gen_partial_2tree(5, 0.6, x)),
    "gen_chordal_omega3 seed": ("seed", lambda x: gen_chordal_omega3(5, x)),
    "random_proper_coloring seed": (
        "seed",
        lambda x: random_proper_coloring(K3, EliminationOrdering((0, 1, 2)), 5, x),
    ),
    "run_experiments seeds": (
        "seed",
        lambda x: run_experiments(ExperimentConfig("2tree", (4,), (x,))),
    ),
    "from_edges": ("vertex count", lambda x: Graph.from_edges(x, [])),
    "run_experiments state_cap": (
        "state cap",
        lambda x: run_experiments(ExperimentConfig("2tree", (4,), (0,), state_cap=x)),
    ),
    "bfs_distance state_cap": (
        "state cap",
        lambda x: bfs_distance(K2, 3, Coloring(3, (1, 2)), Coloring(3, (2, 1)), x),
    ),
    "proper_coloring_count state_cap": ("state cap", lambda x: proper_coloring_count(K2, 3, x)),
    "reconfig_connected state_cap": ("state cap", lambda x: reconfig_connected(K2, 3, x)),
    "reconfig_diameter state_cap": ("state cap", lambda x: reconfig_diameter(K2, 3, x)),
}


@pytest.mark.parametrize("call", _CHECKED_SIZES)
@pytest.mark.parametrize("value", ["5", 2.5, True])
def test_sizes_and_counts_must_be_integers(call, value):
    name, run = _CHECKED_SIZES[call]
    with pytest.raises(InvalidInput, match=rf"^{name} must be an integer, got {value!r}$"):
        run(value)


@pytest.mark.parametrize("keep_prob", ["0.5", True, None, [0.5]])
def test_keep_prob_must_be_a_number(keep_prob):
    with pytest.raises(InvalidInput, match=r"^keep_prob must be a number, got "):
        gen_partial_2tree(10, keep_prob, 1)
    # an int is a number: keep_prob 1 keeps every edge of the 2-tree
    assert gen_partial_2tree(10, 1, 1) == gen_2tree(10, 1)
