"""Graphs, colorings, and random instance generators.

Vertices are integers 0..n-1 and colors are integers 1..k. Graphs and
colorings are immutable once built, so they can be shared freely. All
randomness flows through an explicit seed; nothing touches the global
random state.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import InvalidColoring, InvalidInput, InvalidSize, NotEnoughColors, _json_loader

if TYPE_CHECKING:
    from .decomposition import EliminationOrdering

# Largest n a JSON graph may declare, about ten times the largest n measured
# here; checked before anything is allocated. Graph.from_edges takes any n.
MAX_JSON_VERTICES = 10**6


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with per-vertex sorted adjacency tuples."""

    n: int
    adjacency: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        _require_int("vertex count", n, 0)
        edges = list(edges)
        sets: list[set[int]] = [set() for _ in range(n)]
        # an edge that is not a pair fails to flatten or to unpack; only then
        # are the edges scanned again, to name it
        try:
            _require_ints("edge endpoint", list(chain.from_iterable(edges)))
            for u, v in edges:
                if not (0 <= u < n and 0 <= v < n):
                    raise InvalidInput(f"edge ({u}, {v}) out of range for n={n}")
                if u == v:
                    raise InvalidInput(f"self-loop at vertex {u}")
                sets[u].add(v)
                sets[v].add(u)
        except (TypeError, ValueError):
            raise _malformed_pair(edges, "edge {1!r} is not a pair of vertices") from None
        return Graph(n, tuple(tuple(sorted(s)) for s in sets))

    def edges(self) -> list[tuple[int, int]]:
        """Edge list with u < v, sorted lexicographically."""
        return [(u, v) for u in range(self.n) for v in self.adjacency[u] if u < v]

    def num_edges(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    def to_json(self) -> dict:
        return {"n": self.n, "edges": [[u, v] for u, v in self.edges()]}

    @staticmethod
    @_json_loader
    def from_json(obj: dict) -> "Graph":
        n = _json_int(obj["n"])
        if n > MAX_JSON_VERTICES:
            raise InvalidInput(f"graph declares {n} vertices, above {MAX_JSON_VERTICES}")
        return Graph.from_edges(n, [(_json_int(u), _json_int(v)) for u, v in obj["edges"]])


@dataclass(frozen=True)
class Coloring:
    """Total color assignment, one color in 1..k per vertex."""

    k: int
    colors: tuple[int, ...]

    def __post_init__(self):
        _require_int("k", self.k, 1)
        if not isinstance(self.colors, tuple):
            raise InvalidInput(f"colors must be a tuple, got {self.colors!r}")
        # one C pass over the colors' types, then, once all are ints (a bool is
        # not), one over their few distinct values; the loop runs only to name
        # the first color that is not an int in 1..k
        k, colors = self.k, self.colors
        if not (set(map(type, colors)) <= {int} and all(1 <= c <= k for c in set(colors))):
            for c in colors:
                if type(c) is not int or not 1 <= c <= k:
                    raise InvalidColoring(f"color {c!r} outside 1..{k}")

    def to_json(self) -> dict:
        return {"k": self.k, "colors": list(self.colors)}

    @staticmethod
    @_json_loader
    def from_json(obj: dict) -> "Coloring":
        return Coloring(_json_int(obj["k"]), tuple(map(_json_int, obj["colors"])))


def is_proper(g: Graph, coloring: Coloring) -> bool:
    """True iff no edge of g joins two vertices of the same color."""
    if len(coloring.colors) != g.n:
        raise InvalidColoring(
            f"coloring has {len(coloring.colors)} entries for a graph on {g.n} vertices"
        )
    cols = coloring.colors
    for u in range(g.n):
        cu = cols[u]
        for v in g.adjacency[u]:
            if v > u and cols[v] == cu:
                return False
    return True


def _malformed_pair(pairs: Iterable, message: str) -> InvalidInput | None:
    """The error naming the first of `pairs` that is not a pair of ints, or None."""
    for i, pair in enumerate(pairs):
        try:
            a, b = pair
        except (TypeError, ValueError):
            a = b = None
        if type(a) is not int or type(b) is not int:
            return InvalidInput(message.format(i, pair))
    return None


def _require_int(name: str, value: object, bound: int | None = None) -> None:
    """Raise InvalidInput unless `value` is an int (not a bool), of at least `bound` if given."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidInput(f"{name} must be an integer, got {value!r}")
    if bound is not None and value < bound:
        raise InvalidInput(f"need {name} >= {bound}, got {value}")


def _require_ints(name: str, values: Sequence[object]) -> None:
    """Raise InvalidInput unless every value is an int (not a bool), in one C pass."""
    if not set(map(type, values)) <= {int}:
        bad = next(v for v in values if type(v) is not int)
        raise InvalidInput(f"{name} must be an integer, got {bad!r}")


def _json_int(value: object) -> int:
    """`value` if it is a JSON integer; a float, bool or string raises TypeError."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def require_proper(g: Graph, coloring: Coloring, max_color: int, name: str) -> None:
    """Raise InvalidColoring unless `coloring` is a proper coloring of g in 1..max_color."""
    if not is_proper(g, coloring):
        raise InvalidColoring(f"{name} is not proper")
    if max(coloring.colors, default=1) > max_color:
        raise InvalidColoring(f"{name} uses colors above {max_color}")


def _2tree_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Edges (u, v), u < v, none repeated, of a random 2-tree on n >= 3 vertices."""
    # start from a triangle, then repeatedly glue a new vertex onto a random edge
    edges = [(0, 1), (0, 2), (1, 2)]
    for v in range(3, n):
        a, b = edges[rng.randrange(len(edges))]
        edges.append((a, v))
        edges.append((b, v))
    return edges


def gen_2tree(n: int, seed: int) -> Graph:
    """Random 2-tree on n >= 3 vertices; always has 2n-3 edges and is chordal."""
    _require_int("n", n)
    _require_int("seed", seed)
    if n < 3:
        raise InvalidSize(f"a 2-tree needs at least 3 vertices, got {n}")
    return Graph.from_edges(n, _2tree_edges(n, random.Random(seed)))


def gen_partial_2tree(n: int, keep_prob: float, seed: int) -> Graph:
    """Random subgraph of gen_2tree(n, seed): each edge kept with probability keep_prob.

    keep_prob=1 reproduces gen_2tree(n, seed) exactly. The result always has
    treewidth at most 2.
    """
    _require_int("n", n)
    _require_int("seed", seed)
    if n < 3:
        raise InvalidSize(f"a partial 2-tree needs at least 3 vertices, got {n}")
    if not isinstance(keep_prob, (int, float)) or isinstance(keep_prob, bool):
        raise InvalidInput(f"keep_prob must be a number, got {keep_prob!r}")
    if not 0 <= keep_prob <= 1:
        raise InvalidInput(f"keep_prob must lie in [0, 1], got {keep_prob}")
    rng = random.Random(seed)
    # sorted, the edges are in gen_2tree(n, seed).edges() order
    edges = sorted(_2tree_edges(n, rng))
    return Graph.from_edges(n, [e for e in edges if rng.random() < keep_prob])


def gen_chordal_omega3(n: int, seed: int) -> Graph:
    """Random chordal graph with clique number <= 3.

    Vertices are added one at a time; each new vertex picks an existing
    clique of size 0, 1 or 2 as its neighborhood, so construction order
    reversed is a perfect elimination ordering.
    """
    _require_int("n", n)
    _require_int("seed", seed)
    if n < 1:
        raise InvalidSize(f"need at least 1 vertex, got {n}")
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    for v in range(1, n):
        # bias toward size 2 so instances are not mostly forests
        size = rng.choices((0, 1, 2), weights=(1, 3, 6))[0]
        if size == 2 and not edges:
            size = 1
        if size == 2:
            a, b = edges[rng.randrange(len(edges))]
            edges.append((a, v))
            edges.append((b, v))
        elif size == 1:
            edges.append((rng.randrange(v), v))
    return Graph.from_edges(n, edges)


def _require_ordering_of(g: Graph, order: EliminationOrdering) -> None:
    """Raise InvalidInput unless the ordering has exactly one entry per vertex of g."""
    if len(order.order) != g.n:
        raise InvalidInput(
            f"ordering has {len(order.order)} vertices for a graph on {g.n} vertices"
        )


def random_proper_coloring(
    g: Graph, peo: EliminationOrdering, k: int, seed: int
) -> Coloring:
    """Proper k-coloring built along the reverse of an elimination ordering.

    Each vertex gets a uniformly random color among those unused by its
    already-colored neighbors. Works whenever k exceeds the number of later
    neighbors of every vertex along the ordering. The draw is the one
    `rng.choice` makes from the list of free colors, without the list.
    """
    _require_int("k", k, 1)
    _require_int("seed", seed)
    _require_ordering_of(g, peo)
    rng = random.Random(seed)
    colors = [0] * g.n
    for v in reversed(peo.order):
        used = sorted({colors[w] for w in g.adjacency[v] if colors[w]})
        if len(used) >= k:
            raise NotEnoughColors(f"no color left for vertex {v} with k={k}")
        # the i-th free color, counting from 0: step over the used ones up to it
        c = rng.randrange(k - len(used)) + 1
        for u in used:
            if u <= c:
                c += 1
        colors[v] = c
    return Coloring(k, tuple(colors))


def greedy_coloring(g: Graph, order: EliminationOrdering) -> Coloring:
    """Smallest-available-color coloring along the reverse of the ordering.

    Along a perfect elimination ordering of a chordal graph this uses
    exactly omega(G) colors; with at most 2 later neighbors per vertex it
    never needs more than 3.
    """
    _require_ordering_of(g, order)
    # a neighbor not yet colored holds 0, which no color equals
    colors = [0] * g.n
    color_of = colors.__getitem__
    for v in reversed(order.order):
        used = set(map(color_of, g.adjacency[v]))
        c = 1
        while c in used:
            c += 1
        colors[v] = c
    return Coloring(max(colors, default=1), tuple(colors))
