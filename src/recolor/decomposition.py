"""Elimination orderings and the degree-<=2 elimination of treewidth-2 graphs.

`later_neighbors` is the one place that answers "which neighbors of v come
after v in this ordering" (the out-neighborhood N+(v)) for a graph in hand.
The ordering checks here, the greedy recoloring in `bestchoice` and the audit
in `sequences` all read the table it returns instead of recomputing
positions. The pipeline never builds its merged graph, so it reads that
graph's table off the elimination instead (`chordalize._elimination_order`).

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
from bisect import bisect_left
from dataclasses import dataclass

from .errors import InvalidInput, NotWidth2, _json_loader
from .graphs import Graph, _json_int, _require_ints, _require_ordering_of


@dataclass(frozen=True)
class EliminationOrdering:
    """Permutation of the vertices; position i holds the i-th eliminated vertex."""

    order: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.order, tuple):
            raise InvalidInput(f"order must be a tuple, got {self.order!r}")
        _require_ints("ordering entry", self.order)
        if sorted(self.order) != list(range(len(self.order))):
            raise InvalidInput("ordering is not a permutation of 0..n-1")

    def positions(self) -> list[int]:
        pos = [0] * len(self.order)
        for i, v in enumerate(self.order):
            pos[v] = i
        return pos

    def to_json(self) -> dict:
        return {"order": list(self.order)}

    @staticmethod
    @_json_loader
    def from_json(obj: dict) -> "EliminationOrdering":
        return EliminationOrdering(tuple(map(_json_int, obj["order"])))


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
    return EliminationOrdering(tuple(reversed(_pop_order(g, [0] * g.n))))


def later_neighbors(g: Graph, peo: EliminationOrdering) -> tuple[tuple[int, ...], ...]:
    """For each vertex v, the ascending tuple of its neighbors after v in peo."""
    _require_ordering_of(g, peo)
    pos = peo.positions()
    return tuple([tuple([w for w in nbrs if pos[w] > p]) for nbrs, p in zip(g.adjacency, pos)])


def _later_form_cliques(g: Graph, later: tuple[tuple[int, ...], ...]) -> bool:
    """True iff every entry of a later_neighbors table is a clique of g.

    Only entries of two or more vertices can fail. Each pair is looked up by
    bisection in the sorted adjacency tuple, so a hub of high degree costs
    a logarithmic factor per lookup, not a set of its neighbours.
    """
    adj = g.adjacency
    for outs in later:
        if len(outs) > 1:
            for i, u in enumerate(outs):
                nbrs = adj[u]
                for w in outs[i + 1 :]:
                    j = bisect_left(nbrs, w)
                    if j == len(nbrs) or nbrs[j] != w:
                        return False
    return True


def is_perfect_elimination(g: Graph, peo: EliminationOrdering) -> bool:
    """Check that every vertex's later neighbors form a clique."""
    return _later_form_cliques(g, later_neighbors(g, peo))


def degeneracy_order(g: Graph) -> EliminationOrdering:
    """Smallest-degree-first elimination ordering (ties to the lowest index).

    Every vertex has at most d later neighbors, where d is the degeneracy.
    """
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

