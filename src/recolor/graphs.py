"""Graphs, colorings, elimination orderings, and random instance generators.

Vertices are integers 0..n-1 and colors are integers 1..k. Graphs,
colorings and orderings are immutable once built, so they can be shared
freely. `_require_ordering_of` is the one rule for an ordering fitting a
graph; whether it is a perfect elimination ordering is `decomposition`'s
question. All randomness flows through an explicit seed; nothing touches the
global random state.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable, Sequence

from .errors import InvalidColoring, InvalidInput, InvalidSize, NotEnoughColors, _json_loader

# Largest n a JSON graph or a generator may declare, about ten times the
# largest n measured here; checked before anything is allocated.
# Graph.from_edges takes any n, so a caller can build a larger graph on purpose.
MAX_JSON_VERTICES = 10**6


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with per-vertex sorted adjacency tuples."""

    n: int
    adjacency: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        """Raise InvalidInput unless n >= 0 and `adjacency` is the rows that
        `from_edges` builds from its own arcs (u, v), v in row u: n sorted tuples
        of neighbours in range, without self-loops or repeats, and symmetric.

        `from_edges` builds its rows correct and skips this check.
        """
        n, rows = self.n, self.adjacency
        _require_int("vertex count", n, 0)
        if type(rows) is not tuple or len(rows) != n or not set(map(type, rows)) <= {tuple}:
            raise InvalidInput(f"adjacency must be a tuple of {n} tuples")
        tails = chain.from_iterable(map(repeat, range(n), map(len, rows)))
        if Graph.from_edges(n, zip(tails, chain.from_iterable(rows))).adjacency != rows:
            raise InvalidInput("adjacency rows must be sorted, without repeats, and symmetric")

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        _require_int("vertex count", n, 0)
        sets: list[set[int]] = [set() for _ in range(n)]
        # edges that are not iterable, or an edge that is not a pair, fail to
        # list, flatten or unpack; only then are the edges scanned again
        try:
            edges = list(edges)
            _require_ints("edge endpoint", list(chain.from_iterable(edges)))
            for u, v in edges:
                if not (0 <= u < n and 0 <= v < n):
                    raise InvalidInput(f"edge ({u}, {v}) out of range for n={n}")
                if u == v:
                    raise InvalidInput(f"self-loop at vertex {u}")
                sets[u].add(v)
                sets[v].add(u)
        except (TypeError, ValueError):
            raise _malformed_edge(edges) from None
        # built correct, so `__post_init__` is not run a second time
        graph = object.__new__(Graph)
        object.__setattr__(graph, "n", n)
        object.__setattr__(graph, "adjacency", tuple(tuple(sorted(s)) for s in sets))
        return graph

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
        n = obj["n"]
        _require_vertex_cap("vertex count", n)
        return Graph.from_edges(n, obj["edges"])


@dataclass(frozen=True)
class Coloring:
    """Total color assignment, one color in 1..k per vertex."""

    k: int
    colors: tuple[int, ...]

    def __post_init__(self):
        _require_int("k", self.k, 1)
        _require_instance("colors", self.colors, tuple)
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
        return Coloring(obj["k"], tuple(obj["colors"]))


@dataclass(frozen=True)
class EliminationOrdering:
    """Permutation of the vertices; position i holds the i-th eliminated vertex."""

    order: tuple[int, ...]

    def __post_init__(self):
        _require_instance("order", self.order, tuple)
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
        return EliminationOrdering(tuple(obj["order"]))


def _require_ordering_of(name: str, order: EliminationOrdering, g: Graph) -> None:
    """Raise InvalidInput unless g is a Graph and `order` an EliminationOrdering of g's length."""
    _require_instance("g", g, Graph)
    _require_instance(name, order, EliminationOrdering)
    if len(order.order) != g.n:
        raise InvalidInput(
            f"ordering has {len(order.order)} vertices for a graph on {g.n} vertices"
        )


def is_proper(g: Graph, coloring: Coloring) -> bool:
    """True iff no edge of g joins two vertices of the same color."""
    _require_instance("g", g, Graph)
    _require_instance("coloring", coloring, Coloring)
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


def _malformed_edge(edges: object) -> InvalidInput:
    """The error naming the first edge that is not a pair of ints; the error for all
    of `edges` when they could not be listed, or when no one edge is to blame."""
    if isinstance(edges, list):
        for edge in edges:
            try:
                a, b = edge
            except (TypeError, ValueError):
                a = b = None
            if type(a) is not int or type(b) is not int:
                return InvalidInput(f"edge {edge!r} is not a pair of vertices")
    return InvalidInput(f"edges must be an iterable of vertex pairs, got {type(edges).__name__}")


def _require_int(name: str, value: object, bound: int | None = None) -> None:
    """Raise InvalidInput unless `value` is an int (not a bool), of at least `bound` if given."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidInput(f"{name} must be an integer, got {value!r}")
    if bound is not None and value < bound:
        raise InvalidInput(f"need {name} >= {bound}, got {value}")


def _require_instance(name: str, value: object, cls: type | tuple[type, ...]) -> None:
    """Raise InvalidInput unless `value` is an instance of `cls` (of one of them, for a tuple)."""
    if not isinstance(value, cls):
        kind = " or ".join(c.__name__ for c in cls) if isinstance(cls, tuple) else cls.__name__
        raise InvalidInput(f"{name} must be of type {kind}, got {type(value).__name__}")


def _require_vertex_cap(name: str, n: object) -> None:
    """Raise InvalidInput unless n is an int (not a bool) of at most MAX_JSON_VERTICES."""
    _require_int(name, n)
    if n > MAX_JSON_VERTICES:
        raise InvalidInput(f"graph declares {n} vertices, above {MAX_JSON_VERTICES}")


def _require_ints(name: str, values: Sequence[object]) -> None:
    """Raise InvalidInput unless every value is an int (not a bool), in one C pass."""
    if not set(map(type, values)) <= {int}:
        bad = next(v for v in values if type(v) is not int)
        raise InvalidInput(f"{name} must be an integer, got {bad!r}")


def require_proper(g: Graph, coloring: Coloring, max_color: int, name: str) -> None:
    """Raise InvalidColoring unless `coloring` is a proper coloring of g declared
    at k <= max_color, the one palette rule of every call that takes one.

    A Coloring keeps each color within its own k, so the declared k decides the
    palette in O(1): a 3-coloring fits a 5-color call, whose output then starts
    at k = 5, and a coloring declared above the palette is rejected whatever
    colors it uses. A `coloring` that is not a Coloring raises InvalidInput
    under `name`.
    """
    _require_instance(name, coloring, Coloring)
    if coloring.k > max_color:
        raise InvalidColoring(f"{name} is a {coloring.k}-coloring, above {max_color} colors")
    if not is_proper(g, coloring):
        raise InvalidColoring(f"{name} is not proper")


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
    _require_vertex_cap("n", n)
    _require_int("seed", seed)
    if n < 3:
        raise InvalidSize(f"a 2-tree needs at least 3 vertices, got {n}")
    return Graph.from_edges(n, _2tree_edges(n, random.Random(seed)))


def gen_partial_2tree(n: int, keep_prob: float, seed: int) -> Graph:
    """Random subgraph of gen_2tree(n, seed): each edge kept with probability keep_prob.

    keep_prob=1 reproduces gen_2tree(n, seed) exactly. The result always has
    treewidth at most 2.
    """
    _require_vertex_cap("n", n)
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
    _require_vertex_cap("n", n)
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
    _require_ordering_of("peo", peo, g)
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
    _require_ordering_of("order", order, g)
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
