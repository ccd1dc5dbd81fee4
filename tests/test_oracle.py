import json
import os
import subprocess
import sys
import tracemalloc
from itertools import product
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from recolor import (
    Coloring,
    Graph,
    InvalidColoring,
    InvalidInput,
    TooLarge,
    bfs_distance,
    degeneracy_order,
    gen_2tree,
    gen_partial_2tree,
    pipeline_theorem,
    proper_coloring_count,
    random_proper_coloring,
    reconfig_connected,
)
import recolor
from recolor import _kernels, oracle

import helpers

K3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
P3 = Graph.from_edges(3, [(0, 1), (1, 2)])


def test_distance_zero_for_equal_colorings():
    a = Coloring(3, (1, 2, 1))
    assert bfs_distance(P3, 3, a, a) == 0


def test_distance_single_vertex():
    g = Graph.from_edges(1, [])
    assert bfs_distance(g, 2, Coloring(2, (1,)), Coloring(2, (2,))) == 1


def test_distance_path_matches_independent_search():
    a, b = Coloring(3, (1, 2, 1)), Coloring(3, (2, 1, 2))
    got = bfs_distance(P3, 3, a, b)
    want = helpers.naive_bfs_distance(P3, 3, a.colors, b.colors)
    assert got == want is not None


def test_distance_symmetric():
    g = gen_partial_2tree(6, 0.7, 3)
    order = degeneracy_order(g)
    a = random_proper_coloring(g, order, 4, 1)
    b = random_proper_coloring(g, order, 4, 2)
    assert bfs_distance(g, 4, a, b) == bfs_distance(g, 4, b, a)


def test_distance_unreachable_is_none():
    # rainbow colorings of K3 at k=3 are frozen
    a = Coloring(3, (1, 2, 3))
    b = Coloring(3, (2, 3, 1))
    assert bfs_distance(K3, 3, a, b) is None


def test_distance_rejects_improper_inputs():
    with pytest.raises(InvalidColoring):
        bfs_distance(P3, 3, Coloring(3, (1, 1, 1)), Coloring(3, (1, 2, 1)))
    # the packed state holds colours 1..k only, so a colouring declared above k is
    # rejected before packing, whatever colours it uses
    with pytest.raises(InvalidColoring, match="^alpha is a 5-coloring, above 3 colors$"):
        bfs_distance(P3, 3, Coloring(5, (1, 4, 1)), Coloring(3, (1, 2, 1)))


def test_state_cap_guard():
    g = gen_2tree(30, 0)
    with pytest.raises(TooLarge):
        bfs_distance(
            g,
            5,
            random_proper_coloring(g, degeneracy_order(g), 5, 0),
            random_proper_coloring(g, degeneracy_order(g), 5, 1),
        )


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_proper_coloring_count_matches_enumeration(k):
    g = gen_partial_2tree(6, 0.6, 2)
    assert proper_coloring_count(g, k) == len(helpers.proper_colorings(g, k))
    assert proper_coloring_count(K3, k) == k * (k - 1) * (k - 2)


def test_connected_k3_three_colors_frozen():
    assert not reconfig_connected(K3, 3)


def test_connected_k3_four_colors():
    assert reconfig_connected(K3, 4)


def test_connected_edgeless_pair():
    g = Graph.from_edges(2, [])
    assert reconfig_connected(g, 2)


@settings(max_examples=20, deadline=None)
@given(st.integers(3, 6), st.integers(0, 10**5))
def test_connected_when_k_at_least_degeneracy_plus_2(n, seed):
    # 2-degenerate instances are connected at k >= 4
    g = gen_partial_2tree(n, 0.7, seed)
    assert reconfig_connected(g, 4)
    assert reconfig_connected(g, 5)


def test_squared_path_distances():
    # at k = 4 the interior of alpha is frozen, and the distance grows faster
    # than at k = 5
    for k, distances in ((4, (3, 6, 8, 11, 13)), (5, (3, 3, 4, 4, 6))):
        for n, distance in zip(range(4, 9), distances):
            g, alpha, beta = helpers.squared_path(n, k)
            assert bfs_distance(g, k, alpha, beta) == distance


@settings(max_examples=10, deadline=None)
@given(st.integers(3, 6), st.integers(0, 10**5))
def test_distance_never_exceeds_pipeline_length(n, seed):
    g = gen_partial_2tree(n, 0.6, seed)
    order = degeneracy_order(g)
    a = random_proper_coloring(g, order, 5, seed + 1)
    b = random_proper_coloring(g, order, 5, seed + 2)
    seq = pipeline_theorem(g, a, b)
    d = bfs_distance(g, 5, a, b)
    assert d is not None
    assert d <= len(seq.steps)


def _code(colors, k):
    return sum((c - 1) * k**v for v, c in enumerate(colors))


@st.composite
def small_graphs(draw):
    n = draw(st.integers(0, 6))
    if n < 3 or draw(st.booleans()):
        return Graph.from_edges(n, [])
    keep = draw(st.sampled_from((0.4, 0.7, 1.0)))
    return gen_partial_2tree(n, keep, draw(st.integers(0, 10**5)))


@settings(max_examples=30, deadline=None)
@given(small_graphs(), st.integers(1, 5), st.integers(0, 10**5), st.integers(0, 10**5))
def test_kernels_match_brute_force(g, k, pick, pick_goal):
    mask = _kernels.proper_mask(g.n, k, g.edges())
    proper = helpers.proper_colorings(g, k)
    want = np.zeros(k**g.n, dtype=bool)
    want[[_code(c, k) for c in proper]] = True
    assert mask.dtype == np.bool_ and mask.shape == (k**g.n,)
    assert np.array_equal(mask, want)
    if not proper:
        return
    # the meeting search on the mask just checked, between two picked states
    src, goal = (proper[p % len(proper)] for p in (pick, pick_goal))
    got = _kernels.bfs_meet(_code(src, k), _code(goal, k), mask, g.n, k)
    assert got == helpers.naive_bfs_distance(g, k, src, goal)


P4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
K2 = Graph.from_edges(2, [(0, 1)])


# a partial 2-tree whose 60 proper 3-colourings form components of 30: the
# reached set grows for five sweeps before an equal count stops the search
SPLIT = gen_partial_2tree(6, 0.5, 96)


@settings(max_examples=60, deadline=None)
@given(small_graphs(), st.integers(1, 10), st.integers(0, 10**5))
@example(K3, 3, 0)  # frozen: each proper state reaches only itself
# a frozen triangle beside vertex 0: three states on one packed line
@example(Graph.from_edges(4, [(1, 2), (1, 3), (2, 3)]), 3, 5)
@example(P3, 2, 0)
@example(Graph.from_edges(0, []), 3, 0)
@example(Graph.from_edges(1, []), 3, 0)  # n = 1: no axis left after packing
@example(K2, 3, 1)  # n = 2: one axis left after packing
@example(P4, 3, 7)  # three line digits: the high ones outnumber the low ones
@example(SPLIT, 3, 0)
# k >= 9: two bytes on each packed line, and vertex 0's colour in the second
@example(K3, 9, 500)
@example(P3, 10, 800)
@example(Graph.from_edges(1, []), 9, 0)
def test_reaches_all_matches_naive_component(g, k, pick):
    assume(k**g.n <= 5**6)
    proper = helpers.proper_colorings(g, k)
    edges = tuple(g.edges())
    if g.n:  # bit c % 8 of byte c // 8 on line i is state i * k + c
        lines = np.unpackbits(_kernels._packed(g.n, k, edges), axis=1, bitorder="little")
        mask = _kernels.proper_mask(g.n, k, edges)
        assert np.array_equal(lines[:, :k].reshape(-1), mask) and not lines[:, k:].any()
    assert proper_coloring_count(g, k) == len(proper)
    # a space of one proper state or none is connected
    connected = len(proper) < 2
    if proper:
        reach = helpers.naive_all_distances(g, k, proper[pick % len(proper)])
        connected = len(reach) == len(proper)
    assert _kernels.reaches_all(g.n, k, edges) is reconfig_connected(g, k) is connected


def test_reaches_all_stops_when_a_sweep_adds_no_line(monkeypatch):
    proper = helpers.proper_colorings(SPLIT, 3)
    assert (len(proper), len(helpers.naive_all_distances(SPLIT, 3, proper[0]))) == (60, 30)
    closed = []
    close = _kernels._close_lines
    monkeypatch.setattr(_kernels, "_close_lines", lambda *a: closed.append(close(*a)))
    assert not _kernels.reaches_all(SPLIT.n, 3, tuple(SPLIT.edges()))
    # six whole sweeps of five line digits each: five that add lines, one
    # that adds none, and the seventh count equals the sixth
    assert len(closed) == 6 * (SPLIT.n - 1)


def test_reconfig_connected_peak_below_one_point_six_bytes_per_state():
    # reconfig_connected builds no bool mask and reads no cache: reaches_all
    # holds five arrays of k^(n-1) bytes, a fifth of a byte per state each at
    # k = 5: its packed mask, the reached set, their two transposed copies
    # and the hit mask; about 1.07 bytes per state at 5^8 and 1.05 at 5^9,
    # where the cached bool mask beside two more such arrays read 2.27
    for n in (8, 9):
        for s in range(5):
            g = gen_partial_2tree(n, 0.7, s)
            tracemalloc.start()
            try:
                assert reconfig_connected(g, 5)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1.6 * 5**n, (n, s, peak / 5**n)


def test_state_space_build_peak_below_one_point_three_bytes_per_state():
    # adding the last vertex copies the mask over the others into k rows:
    # k^(n-1) bytes beside the new k^n, 1.2 bytes per state at k = 5
    for n in (8, 9):
        for s in range(3):
            g = gen_partial_2tree(n, 0.7, s)
            _kernels.state_space.cache_clear()
            tracemalloc.start()
            try:
                _kernels.state_space(n, 5, tuple(g.edges()))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1.3 * 5**n, (n, s, peak / 5**n)
    _kernels.state_space.cache_clear()


def test_bfs_meet_peak_below_three_bytes_per_state():
    # the int8 mark (one byte per state) plus one level's candidates: each
    # batch holds at most _BATCH codes, or one per frontier state, and its
    # unseen codes stay until the level's sort; the largest levels come at
    # the cap size, 5^9, about 2.22 bytes. K2 at k = 1414 meets at distance 3
    # in a level of one state, whose 1414 rewrites per vertex fit one batch
    # each; about 1.2 bytes per state (21 when a vertex's k colours for
    # every frontier state made one batch of 2M codes)
    cases = []
    for n in (8, 9):
        for s in range(5):
            g = gen_partial_2tree(n, 0.7, s)
            order = degeneracy_order(g)
            ends = (random_proper_coloring(g, order, 5, s + x) for x in (1, 2))
            cases.append((g, 5, *(_code(c.colors, 5) for c in ends)))
        cases.append((Graph.from_edges(n, []), 5, 0, 5**n - 1))
    cases.append((K2, 1414, _code((1, 2), 1414), _code((2, 1), 1414)))
    for g, k, a, b in cases:
        mask = _kernels.proper_mask(g.n, k, g.edges())
        tracemalloc.start()
        try:
            assert _kernels.bfs_meet(a, b, mask, g.n, k) is not None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * k**g.n, (g.edges(), k, peak / k**g.n)


def test_bfs_meet_with_frontiers_past_one_broadcast():
    # the edgeless graph's level j around any state holds C(7, j) * 4^j states
    # at k = 5, and the distance is the Hamming distance, here 7 = 3 + 3 + 1:
    # each side grows three levels in one broadcast each, and the meeting
    # level is grown from a frontier of level 3, two vertices per broadcast
    g, k = Graph.from_edges(7, []), 5
    sizes = [comb(7, j) * (k - 1) ** j for j in range(8)]
    assert sizes[2] * g.n * k <= _kernels._BATCH < sizes[3] * g.n * k
    src = Coloring(k, (1,) * 7)
    for far in ((5,) * 7, (2, 2, 2, 2, 2, 2, 5)):
        assert bfs_distance(g, k, src, Coloring(k, far)) == 7
        assert bfs_distance(g, k, Coloring(k, far), src) == 7
    # the search meets in the first batch, so check every batch of level 3,
    # where two vertices share a broadcast, and of level 4, where each vertex
    # is cut into runs of _BATCH // 8960 = 3 colours, two batches a vertex:
    # together they hold exactly levels j - 1 to j + 1
    level = {c: sum(x != 1 for x in c) for c in product(range(1, k + 1), repeat=g.n)}
    for j, size, batch_count in ((3, 2240, 4), (4, 8960, 14)):
        frontier = np.array(sorted(_code(c, k) for c, i in level.items() if i == j), dtype=np.int64)
        assert frontier.size == sizes[j] == size
        batches = list(_kernels._rewrites(frontier, g.n, k))
        assert len(batches) == batch_count
        assert max(b.size for b in batches) <= max(_kernels._BATCH, frontier.size)
        want = sorted(_code(c, k) for c, i in level.items() if j - 1 <= i <= j + 1)
        assert np.unique(np.concatenate(batches)).tolist() == want
    # one state at the largest k the default cap admits on one vertex: its
    # colours in ceil(k / _BATCH) = 62 runs, each one broadcast of _BATCH codes
    # or fewer, not one batch per colour nor one of all 2M codes
    k = oracle.DEFAULT_STATE_CAP
    batches = list(_kernels._rewrites(np.array([7], dtype=np.int64), 1, k))
    assert len(batches) == 62
    assert np.array_equal(np.concatenate(batches), np.arange(k))


def _oracle_results(g, k, fresh):
    """Distance, connectivity and colouring count on g; with `fresh`, each from a newly built mask."""
    order = degeneracy_order(g)
    a, b = (random_proper_coloring(g, order, k, s) for s in (1, 2))
    results = []
    for call in (
        lambda: bfs_distance(g, k, a, b),
        lambda: reconfig_connected(g, k),
        lambda: proper_coloring_count(g, k),
    ):
        if fresh:
            _kernels.state_space.cache_clear()
        results.append(call())
    return results


def test_mask_cache_keeps_results(monkeypatch):
    built, masks, counted = [], [], []
    build, count = _kernels.proper_mask, np.count_nonzero

    def proper_mask(*a):
        built.append(a)
        masks.append(build(*a))
        return masks[-1]

    def count_nonzero(a, *rest, **kw):
        counted.extend(i for i, m in enumerate(masks) if a is m)
        return count(a, *rest, **kw)

    monkeypatch.setattr(_kernels, "proper_mask", proper_mask)
    monkeypatch.setattr(np, "count_nonzero", count_nonzero)
    ga, gb = gen_partial_2tree(5, 0.8, 2), gen_partial_2tree(5, 0.4, 7)
    assert ga.edges() != gb.edges()
    want = {g: _oracle_results(g, 4, fresh=True) for g in (ga, gb)}
    count_at_5 = _oracle_results(ga, 5, fresh=True)[2]
    _kernels.state_space.cache_clear()
    for log in (built, masks, counted):
        log.clear()
    # A, B, A: each switch of graph builds a mask, and bfs_distance and
    # proper_coloring_count on one graph share it; reconfig_connected
    # neither reads nor fills the cache
    for g in (ga, gb, ga):
        assert _oracle_results(g, 4, fresh=False) == want[g]
    # the same graph at another k misses the cache, and so does the switch back
    assert proper_coloring_count(ga, 5) == count_at_5
    assert proper_coloring_count(ga, 4) == want[ga][2]
    assert [k for _, k, _ in built] == [4, 4, 4, 5, 4]
    # each mask is counted once, when it is built, and a cache hit counts nothing
    assert counted == list(range(len(masks)))


def test_mask_cache_keeps_the_cap_and_is_read_only():
    g = gen_partial_2tree(6, 0.7, 1)
    total = proper_coloring_count(g, 5)
    with pytest.raises(TooLarge, match=r"5\^6 states exceed the cap of 15624"):
        proper_coloring_count(g, 5, 5**6 - 1)
    kernels, space = oracle._checked(g, 5, 5**6)
    mask, cached = kernels.state_space(*space)
    assert kernels.state_space(*space)[0] is mask
    assert total == cached == np.count_nonzero(mask)
    with pytest.raises(ValueError, match="read-only"):
        mask[0] = not mask[0]


@settings(max_examples=100, deadline=None)
@given(small_graphs(), st.integers(1, 5), st.integers(0, 10**5), st.integers(0, 10**5))
@example(K3, 3, 0, 1)
@example(K3, 3, 2, 2)
@example(P3, 2, 0, 1)
@example(Graph.from_edges(0, []), 1, 0, 0)
def test_distance_matches_full_bfs_and_naive_search(g, k, pick_a, pick_b):
    proper = helpers.proper_colorings(g, k)
    if not proper:
        return
    a, b = proper[pick_a % len(proper)], proper[pick_b % len(proper)]
    got = bfs_distance(g, k, Coloring(k, a), Coloring(k, b))
    reach = helpers.naive_all_distances(g, k, a)
    assert got == reach.get(b) == helpers.naive_bfs_distance(g, k, a, b)


_C4 = [(0, 1), (1, 2), (2, 3), (3, 0)]
SMALL = {
    "K1": (1, []),
    "E2": (2, []),
    "K2": (2, [(0, 1)]),
    "E3": (3, []),
    "P3": (3, [(0, 1), (1, 2)]),
    "K3": (3, [(0, 1), (0, 2), (1, 2)]),
    "P4": (4, [(0, 1), (1, 2), (2, 3)]),
    "star": (4, [(0, 1), (0, 2), (0, 3)]),
    "C4": (4, _C4),
    "paw": (4, [(0, 1), (1, 2), (0, 2), (2, 3)]),
    "diamond": (4, _C4 + [(0, 2)]),
    "K4": (4, [(u, v) for u in range(4) for v in range(u + 1, 4)]),
    "C5": (5, [(v, (v + 1) % 5) for v in range(5)]),
    "W4": (5, _C4 + [(v, 4) for v in range(4)]),
    "K5": (5, [(u, v) for u in range(5) for v in range(u + 1, 5)]),
}


# every space of at most 64 proper colourings, empty ones included, so that
# each one's all-pairs check stays under 4096 searches
@pytest.mark.parametrize(
    "name, k",
    [
        (name, k)
        for name, (n, edges) in SMALL.items()
        for k in range(1, 6)
        if len(helpers.proper_colorings(Graph.from_edges(n, edges), k)) <= 64
    ],
)
def test_oracle_answers_every_pair_like_plain_search(name, k):
    g = Graph.from_edges(*SMALL[name])
    proper = helpers.proper_colorings(g, k)
    assert proper_coloring_count(g, k) == len(proper)
    reach = {a: helpers.naive_all_distances(g, k, a) for a in proper}
    # an empty space is connected
    assert reconfig_connected(g, k) == all(len(r) == len(proper) for r in reach.values())
    for a, b in product(proper, repeat=2):
        assert bfs_distance(g, k, Coloring(k, a), Coloring(k, b)) == reach[a].get(b), (a, b)


@pytest.mark.parametrize("k", [0, -1, True])
def test_oracle_rejects_bad_k(k):
    a = Coloring(3, (1, 2, 1))
    with pytest.raises(InvalidInput):
        bfs_distance(P3, k, a, a)
    with pytest.raises(InvalidInput):
        reconfig_connected(P3, k)
    with pytest.raises(InvalidInput):
        proper_coloring_count(P3, k)


def test_size_rule_is_exact():
    for k in range(1, 7):
        for n in range(71):
            size = k**n
            for cap in (1, size - 1, size, size + 1, sys.maxsize):
                assert oracle._within(k, n, cap) == (size <= cap), (k, n, cap)


def test_oracle_rejects_states_beyond_numpy_indexing():
    # 5^30 states fit under the cap but not in one numpy array
    g = Graph.from_edges(30, [])
    a = Coloring(5, (1,) * 30)
    cap = 10**21
    with pytest.raises(TooLarge, match=r"5\^30 states exceed numpy"):
        bfs_distance(g, 5, a, a, cap)
    with pytest.raises(TooLarge, match=r"5\^30 states exceed numpy"):
        reconfig_connected(g, 5, cap)
    with pytest.raises(TooLarge, match=r"5\^30 states exceed numpy"):
        proper_coloring_count(g, 5, cap)


def test_one_color_on_more_vertices_than_numpy_axes():
    # k = 1 keeps 70 vertices at one state, past numpy's limit of 64 axes
    g = Graph.from_edges(70, [])
    assert reconfig_connected(g, 1)
    assert proper_coloring_count(g, 1) == 1
    assert _kernels.proper_mask(70, 1, [(3, 69)]).tolist() == [False]


@pytest.mark.parametrize("k", [5, 10**18, 10**30])
def test_empty_graph_at_any_k(k):
    # n = 0 has one state at every k, so nothing of size k may be built:
    # numpy cannot even allocate ceil(k/8) bytes at k = 10**18 or 10**30
    g = Graph.from_edges(0, [])
    empty = Coloring(k, ())
    tracemalloc.start()
    try:
        assert reconfig_connected(g, k) is True
        assert proper_coloring_count(g, k) == 1
        assert bfs_distance(g, k, empty, empty) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6, peak


# The constructive core, then one oracle call, in a fresh interpreter: numpy
# and the process pool load only for the oracle call.
CORE_THEN_ORACLE = """
import json, sys
import recolor as r

def loaded():
    return [m for m in ("numpy", "concurrent.futures") if m in sys.modules]

g = r.gen_partial_2tree(60, 0.6, 1)
order = r.degeneracy_order(g)
r.pipeline_theorem(g, r.random_proper_coloring(g, order, 5, 1),
                   r.random_proper_coloring(g, order, 5, 2))
h = r.gen_chordal_omega3(60, 1)
peo = r.mcs_order(h)
seq = r.best_choice_recoloring(h, peo, r.random_proper_coloring(h, peo, 5, 0),
                               r.greedy_coloring(h, peo), 5)
r.audit_best_choice(seq, peo, h)
core = loaded()
small = r.gen_partial_2tree(6, 0.6, 3)
order = r.degeneracy_order(small)
a, b = (r.random_proper_coloring(small, order, 5, s) for s in (1, 2))
# calls the oracle's checks reject: a bad k, 5^(10^6) states, and an improper
# alpha, which is rejected before the state space is built
huge = r.Graph(10**6, ((),) * 10**6)
improper = r.Coloring(5, (1,) * small.n)
rejected = []
for call in (lambda: r.bfs_distance(small, 0, a, b), lambda: r.reconfig_connected(small, 0),
             lambda: r.proper_coloring_count(small, 0), lambda: r.reconfig_connected(huge, 5),
             lambda: r.bfs_distance(small, 5, improper, b)):
    try:
        call()
    except (r.InvalidInput, r.TooLarge) as exc:
        rejected.append(type(exc).__name__)
rejected.append(loaded())
d = r.bfs_distance(small, 5, a, b)
print(json.dumps([core, rejected, d, loaded()]))
"""


def test_core_runs_without_numpy_until_an_oracle_call():
    src = str(Path(recolor.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", CORE_THEN_ORACLE],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    core, rejected, distance, after = json.loads(out)
    assert core == []
    assert rejected == ["InvalidInput"] * 3 + ["TooLarge", "InvalidColoring", []]
    assert "numpy" in after
    small = gen_partial_2tree(6, 0.6, 3)
    order = degeneracy_order(small)
    alpha = random_proper_coloring(small, order, 5, 1)
    beta = random_proper_coloring(small, order, 5, 2)
    assert distance == bfs_distance(small, 5, alpha, beta)
