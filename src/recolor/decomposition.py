"""Treewidth-2 decomposition and elimination orderings.

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
its bags (v, *sorted N(v)), all the pipeline reads. `reduce_width2` builds
its tree straight off them: it keeps the inclusion-maximal bags and folds
each other bag into a child bag that holds it.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections.abc import Collection
from dataclasses import dataclass
from itertools import chain

from .errors import InvalidDecomposition, InvalidInput, NotWidth2, _json_loader
from .graphs import Graph, _json_int, _require_ints, _require_ordering_of


@dataclass(frozen=True)
class TreeDecomposition:
    """Tree of bags; width 2 means every bag has at most 3 vertices."""

    bags: tuple[frozenset[int], ...]
    tree_edges: tuple[tuple[int, int], ...]

    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1

    def to_json(self) -> dict:
        return {
            "bags": [sorted(b) for b in self.bags],
            "tree_edges": [[i, j] for i, j in self.tree_edges],
        }

    @staticmethod
    @_json_loader
    def from_json(obj: dict) -> "TreeDecomposition":
        return TreeDecomposition(
            tuple(frozenset(map(_json_int, bag)) for bag in obj["bags"]),
            tuple((_json_int(i), _json_int(j)) for i, j in obj["tree_edges"]),
        )


@dataclass(frozen=True)
class EliminationOrdering:
    """Permutation of the vertices; position i holds the i-th eliminated vertex."""

    order: tuple[int, ...]

    def __post_init__(self):
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


def validate_decomposition(g: Graph, td: TreeDecomposition) -> None:
    """Raise InvalidDecomposition unless td is a width-<=2 decomposition of g."""
    if not isinstance(td.bags, Collection):
        raise InvalidDecomposition(f"bags {td.bags!r} are not a collection of bags")
    if not isinstance(td.tree_edges, Collection):
        raise InvalidDecomposition(f"tree edges {td.tree_edges!r} are not a collection of pairs")
    nodes = len(td.bags)
    if nodes == 0:
        raise InvalidDecomposition("decomposition has no nodes")
    # a bag that is not a collection, or a tree edge that is not a pair, fails
    # to flatten, size or unpack; only then are the entries scanned, to name it
    try:
        _require_ints("bag entry", list(chain.from_iterable(td.bags)))
        _require_ints("tree edge endpoint", list(chain.from_iterable(td.tree_edges)))
        for bag in td.bags:
            if len(bag) > 3:
                raise InvalidDecomposition(f"bag {sorted(bag)} exceeds size 3")
            for v in bag:
                if not (0 <= v < g.n):
                    raise InvalidDecomposition(f"bag vertex {v} out of range")

        # the tree_edges must form a tree over the nodes
        if len(td.tree_edges) != nodes - 1:
            raise InvalidDecomposition("tree edge count is not nodes-1")
        nbrs: list[list[int]] = [[] for _ in range(nodes)]
        for i, j in td.tree_edges:
            if not (0 <= i < nodes and 0 <= j < nodes) or i == j:
                raise InvalidDecomposition(f"bad tree edge ({i}, {j})")
            nbrs[i].append(j)
            nbrs[j].append(i)
    except (TypeError, ValueError):
        for bag in td.bags:
            if not isinstance(bag, Collection):
                raise InvalidDecomposition(f"bag {bag!r} is not a set of vertices") from None
        for edge in td.tree_edges:
            if not isinstance(edge, Collection) or len(edge) != 2:
                raise InvalidDecomposition(f"tree edge {edge!r} is not a pair of nodes") from None
        raise
    parent = [-1] * nodes
    parent[0] = 0
    stack = [0]
    while stack:
        x = stack.pop()
        for y in nbrs[x]:
            if parent[y] < 0:
                parent[y] = x
                stack.append(y)
    if min(parent) < 0:
        raise InvalidDecomposition("tree is not connected")

    # a vertex's bags form a subtree iff exactly one of them (its top) is the
    # root or hangs below a bag without the vertex; -1 marks no top yet and
    # -2 a second one
    bags = td.bags
    top = [-1] * g.n
    for idx, bag in enumerate(bags):
        up = bags[parent[idx]] if idx else ()
        for v in bag:
            if v not in up:
                top[v] = idx if top[v] == -1 else -2
    for v, t in enumerate(top):
        if t == -1:
            raise InvalidDecomposition(f"vertex {v} is in no bag")
        if t == -2:
            raise InvalidDecomposition(f"bags containing vertex {v} are not connected")

    # The bags of u and of v are subtrees, so the bags holding both, if any,
    # are a subtree whose top is top[u] or top[v]: its parent lies in both
    # subtrees unless it is the top of one. Edges go in g.edges() order.
    for u, nbrs in enumerate(g.adjacency):
        up = bags[top[u]]
        for v in nbrs:
            if v > u and v not in up and u not in bags[top[v]]:
                raise InvalidDecomposition(f"edge ({u}, {v}) is in no bag")


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


def reduce_width2(g: Graph) -> TreeDecomposition:
    """Width-<=2 tree decomposition built from the elimination bags {v} + N(v).

    Numbered from the last elimination back, bag i hangs below the bag of its
    neighbour eliminated first, and bag 0 roots the tree. A bag's own vertex
    lies only in the bags below it, so a bag inside another lies inside one of
    its children; it is folded into the lowest-index such child. The result
    keeps the inclusion-maximal bags in index order, joined by the folded tree.
    """
    elim = _eliminate(g)
    if not elim:
        return TreeDecomposition((frozenset(),), ())

    order = elim[::-1]
    index = {bag[0]: i for i, bag in enumerate(order)}
    bags = list(map(frozenset, order))
    # the neighbour eliminated first still held the others, so its bag holds
    # them; bags with no neighbours hang below bag 0, which is its own parent
    parent = [max((index[u] for u in bag[1:]), default=0) for bag in order]
    # children come after their parent, so walking down sees every child of
    # a bag, folded as far as it goes, before the bag itself
    into = list(range(len(bags)))
    for i in range(len(bags) - 1, -1, -1):
        into[i] = into[into[i]]
        if i and bags[parent[i]] <= bags[i]:
            into[parent[i]] = i
    kept = [i for i in range(len(bags)) if into[i] == i]
    rank = [0] * len(bags)
    for r, i in enumerate(kept):
        rank[i] = r
    node = [rank[j] for j in into]
    pairs = {tuple(sorted((node[i], node[p]))) for i, p in enumerate(parent)}
    edges = sorted((a, b) for a, b in pairs if a != b)
    return TreeDecomposition(tuple(bags[i] for i in kept), tuple(edges))
