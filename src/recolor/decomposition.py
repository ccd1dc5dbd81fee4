"""Elimination orderings of a graph, their later-neighbor tables, and the
degree-<=2 elimination of treewidth-2 graphs.

The `EliminationOrdering` type and its fit rule live in `graphs`, beside
`Graph`; this module builds orderings and answers what they imply.
`_later_table` is the one place that answers "which neighbors of v come
after v in this ordering" (the out-neighborhood N+(v)) for a graph in hand,
and, in the same build, how many such neighbors a vertex has at most (the
width) and whether every such set is a clique, so whether the ordering is a
perfect elimination ordering. `later_neighbors` and `is_perfect_elimination`
read it through `_checked_later`. The greedy recoloring in `bestchoice` and
the audit in `sequences` read the table and its width through
`_perfect_later`, the one place that rejects an ordering that is not a
perfect elimination ordering; neither recomputes positions, cliques or the
width. The table is remembered with its width and verdict, keyed by the
value of (g, peo), so a best-choice run and then its audit on one (g, peo)
build and check it once; the memo holds one O(n) table plus g and peo until
a call with other arguments. The pipeline never builds its merged graph, so
it reads that graph's table off the elimination instead
(`chordalize._elimination_order`).

Every choice here is lowest index first: among the vertices that qualify,
take the one with the smallest key and, on a tie, the smallest index. Each
such choice pops a `heapq`. A vertex is pushed again whenever its key, or
whether it qualifies, changes, so a popped entry whose key no longer
matches, or whose vertex no longer qualifies, is stale and skipped. No loop
rescans all vertices to make a choice.

`_eliminate` removes one vertex of degree at most 2 at a time and returns
its bags (v, *sorted N(v)): the width-2 witness that `chordalize` merges over.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import combinations

from .errors import InvalidInput, NotWidth2
from .graphs import EliminationOrdering, Graph, _require_instance, _require_ordering_of

# a later-neighbor table: the ascending later neighbors of each vertex
_Later = tuple[tuple[int, ...], ...]


def _pop_order(g: Graph, key: list[int]) -> list[int]:
    """Vertices by repeatedly popping the smallest key (lowest index on ties);
    each pop lowers the key of every unpopped neighbour by one."""
    popped = [False] * g.n
    order: list[int] = []
    heap = [(k, v) for v, k in enumerate(key)]
    heapq.heapify(heap)
    while heap:
        k, best = heapq.heappop(heap)
        if popped[best] or k != key[best]:
            continue
        popped[best] = True
        order.append(best)
        for u in g.adjacency[best]:
            if not popped[u]:
                key[u] -= 1
                heapq.heappush(heap, (key[u], u))
    return order


def mcs_order(g: Graph) -> EliminationOrdering:
    """Reverse of a maximum cardinality search visit order.

    For a chordal graph the result is a perfect elimination ordering. Ties
    are broken toward the lowest vertex index so the output is reproducible.
    Keys start at 0, so each pop is a vertex with the most visited neighbours.
    """
    _require_instance("g", g, Graph)
    return EliminationOrdering(tuple(reversed(_pop_order(g, [0] * g.n))))


def later_neighbors(g: Graph, peo: EliminationOrdering) -> tuple[tuple[int, ...], ...]:
    """For each vertex v, the ascending tuple of its neighbors after v in peo."""
    return _checked_later(g, peo)[0]


def is_perfect_elimination(g: Graph, peo: EliminationOrdering) -> bool:
    """Check that every vertex's later neighbors form a clique."""
    return _checked_later(g, peo)[2]


def _checked_later(g: Graph, peo: EliminationOrdering) -> tuple[_Later, int, bool]:
    """`_later_table(g, peo)`: the table, its width and its verdict, from one cached build.

    The arguments are checked before the cache lookup, so a rejected call
    hashes nothing and caches nothing.
    """
    _require_ordering_of("peo", peo, g)
    return _later_table(g, peo)


def _perfect_later(g: Graph, peo: EliminationOrdering) -> tuple[_Later, int]:
    """The later-neighbor table of a perfect elimination ordering, and its width.

    Raises InvalidInput when peo is not a perfect elimination ordering of g:
    best choice and its audit are defined only along one.
    """
    later, width, perfect = _checked_later(g, peo)
    if not perfect:
        raise InvalidInput("ordering is not a perfect elimination ordering")
    return later, width


@lru_cache(maxsize=1)
def _later_table(g: Graph, peo: EliminationOrdering) -> tuple[_Later, int, bool]:
    """_checked_later's table, width and verdict of a checked (g, peo); the last
    triple is kept, keyed by value.

    The width is the size of the largest later set (0 for no vertex). Only
    entries of two or more vertices can fail the clique check. Each pair
    (u, w) is looked up by bisection in u's sorted adjacency tuple (w is there
    iff its left and right insertion points differ), so a hub of high degree
    costs a logarithmic factor per lookup, not a set of its neighbours, and
    the check stops at the first pair that is not an edge.
    """
    adj, pos = g.adjacency, peo.positions()
    later = tuple([tuple([w for w in nbrs if pos[w] > p]) for nbrs, p in zip(adj, pos)])
    perfect = all(
        bisect_left(adj[u], w) < bisect_right(adj[u], w)
        for outs in later if len(outs) > 1 for u, w in combinations(outs, 2)
    )
    return later, max(map(len, later), default=0), perfect


def degeneracy_order(g: Graph) -> EliminationOrdering:
    """Smallest-degree-first elimination ordering (ties to the lowest index).

    Every vertex has at most d later neighbors, where d is the degeneracy.
    """
    _require_instance("g", g, Graph)
    return EliminationOrdering(tuple(_pop_order(g, [len(a) for a in g.adjacency])))


def _eliminate(g: Graph) -> list[tuple[int, ...]]:
    """The bag (v, *sorted N(v)) of each v, in the order the degree-<=2 elimination removes it.

    Each step removes the lowest-index vertex of degree at most 2 and joins
    its two neighbors when they are not adjacent, so the bag is filled.
    Stalling with all degrees >= 3 raises NotWidth2: treewidth > 2.
    """
    adj = list(map(set, g.adjacency))
    # degrees never rise, so each vertex enters the heap once, on reaching 2
    heap = [v for v, nb in enumerate(adj) if len(nb) <= 2]
    pop, push = heapq.heappop, heapq.heappush
    elim: list[tuple[int, ...]] = []
    while heap:
        v = pop(heap)
        nb = adj[v]
        if len(nb) == 2:
            a, b = nb
            if b < a:
                a, b = b, a
            adj_a, adj_b = adj[a], adj[b]
            adj_a.remove(v)
            adj_b.remove(v)
            # a new fill edge keeps both degrees; otherwise each lost one
            if b in adj_a:
                if len(adj_a) == 2:
                    push(heap, a)
                if len(adj_b) == 2:
                    push(heap, b)
            else:
                adj_a.add(b)
                adj_b.add(a)
            elim.append((v, a, b))
        elif nb:
            (a,) = nb
            adj_a = adj[a]
            adj_a.remove(v)
            if len(adj_a) == 2:
                push(heap, a)
            elim.append((v, a))
        else:
            elim.append((v,))
    if len(elim) < g.n:
        raise NotWidth2("all remaining vertices have degree at least 3")
    return elim

