"""Reduction of treewidth-2 instances to chordal ones and the full pipeline.

A treewidth-2 graph with a proper coloring is turned into a chordal graph of
clique number at most 3 by merging same-colored vertices that share a bag and
then filling every bag into a clique. Sequences found on the merged graph
lift back by expanding each merged step over its class. The pipeline chains
two such reductions (one per endpoint coloring) through a palette-rotation
bridge between 3-colorings, giving a transformation between any two proper
5-colorings that recolors every vertex a bounded number of times.

The pipeline never builds the merged graph h. The decomposition's tree, with
each bag mapped to merge classes, is a clique tree of h. Ordering the classes
by decreasing depth of their top bag (the one nearest bag 0) is a perfect
elimination ordering of h: a later neighbor of x shares a bag with x and has
a top no deeper than x's, so it lies in x's top bag. The later-neighbor table
and the greedy 3-coloring are read off those top bags (`_tree_order`). The
bridge moves only the vertices whose two 3-colorings differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .bestchoice import _best_choice
from .decomposition import (
    EliminationOrdering,
    TreeDecomposition,
    _validate_decomposition,
    reduce_width2,
    validate_decomposition,
)
from .errors import (
    ImproperStart,
    ImproperStep,
    InvalidColoring,
    InvalidInput,
    LiftFailure,
    NoOpStep,
    _json_loader,
)
from .graphs import Coloring, Graph, _greedy, require_proper
from .sequences import (
    RecoloringSequence,
    concatenate,
    reverse_sequence,
    verify_sequence,
)

PER_VERTEX_CHORDAL_BOUND = 542
PER_VERTEX_PIPELINE_BOUND = 2 * PER_VERTEX_CHORDAL_BOUND + 2


@dataclass(frozen=True)
class MergeMap:
    """Surjection from original vertices onto merged classes.

    classes[i] lists the original vertices of merged vertex i, ascending;
    to_merged inverts it. Every class is an independent set whose vertices
    share one color in the coloring the merge was built from.
    """

    to_merged: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]

    def to_json(self) -> dict:
        return {
            "to_merged": list(self.to_merged),
            "classes": [list(c) for c in self.classes],
        }

    @staticmethod
    @_json_loader
    def from_json(obj: dict) -> "MergeMap":
        return MergeMap(
            tuple(int(x) for x in obj["to_merged"]),
            tuple(tuple(int(v) for v in c) for c in obj["classes"]),
        )


def merge_same_colored(
    g: Graph, td: TreeDecomposition, alpha: Coloring
) -> tuple[Graph, MergeMap, Coloring]:
    """Merge same-colored vertices sharing a bag, then fill bags into cliques.

    Returns the merged-and-filled graph (chordal, clique number <= 3), the
    merge map, and the inherited coloring, which is proper on the result.
    """
    validate_decomposition(g, td)
    require_proper(g, alpha, alpha.k, "alpha")
    return _merge(g, td, alpha)


def _merge(
    g: Graph, td: TreeDecomposition, alpha: Coloring
) -> tuple[Graph, MergeMap, Coloring]:
    """merge_same_colored without checking its inputs."""
    merge_map, alpha_h = _merge_classes(g, td, alpha)
    to_merged = merge_map.to_merged
    edges = set()
    for bag in td.bags:
        edges.update(combinations({to_merged[v] for v in bag}, 2))
    return Graph.from_edges(len(merge_map.classes), edges), merge_map, alpha_h


def _merge_classes(
    g: Graph, td: TreeDecomposition, alpha: Coloring
) -> tuple[MergeMap, Coloring]:
    """The merge map and inherited coloring of merge_same_colored, without h.

    The classes are the connected components of "same color, shared bag" in
    td. Merging two classes only renames them inside bags that already held
    one of them, so merging until no bag repeats a color, in any order,
    joins exactly these components.
    """
    root = list(range(g.n))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for bag in td.bags:
        for a, b in combinations(bag, 2):
            if alpha.colors[a] == alpha.colors[b]:
                ra, rb = find(a), find(b)
                root[max(ra, rb)] = min(ra, rb)

    # classes are numbered in the order of their smallest members
    index: dict[int, int] = {}
    to_merged = tuple(index.setdefault(find(v), len(index)) for v in range(g.n))
    classes: list[list[int]] = [[] for _ in index]
    for v, m in enumerate(to_merged):
        classes[m].append(v)
    alpha_h = Coloring(alpha.k, tuple(alpha.colors[c[0]] for c in classes))
    return MergeMap(to_merged, tuple(map(tuple, classes))), alpha_h


def _tree_order(
    td: TreeDecomposition, depth: list[int], top: list[int], merge_map: MergeMap
) -> tuple[EliminationOrdering, tuple[tuple[int, ...], ...]]:
    """The tree order of the merge classes and its later-neighbor table.

    `depth` and `top` are what _validate_decomposition returns for td. A
    class's bags form a subtree, so its top bag is the member top nearest bag
    0. Classes go by decreasing depth of their top bag, ties to the lowest
    index; by the argument in the module docstring this is a perfect
    elimination ordering of h, and later[x] is the classes of x's top bag
    that come after x, a clique of at most 2.
    """
    to_merged = merge_map.to_merged
    size = len(merge_map.classes)
    tops = [-1] * size
    for v, x in enumerate(to_merged):
        t = top[v]
        if tops[x] < 0 or depth[t] < depth[tops[x]]:
            tops[x] = t
    key = [-depth[t] for t in tops]
    order = sorted(range(size), key=key.__getitem__)
    pos = [0] * size
    for i, x in enumerate(order):
        pos[x] = i
    later = []
    for x, t in enumerate(tops):
        p = pos[x]
        mapped = {to_merged[v] for v in td.bags[t]}
        later.append(tuple(sorted([y for y in mapped if pos[y] > p])))
    return EliminationOrdering(tuple(order)), tuple(later)


def lift_sequence(
    seq_h: RecoloringSequence, merge_map: MergeMap, g: Graph
) -> RecoloringSequence:
    """Expand a merged-graph sequence back to the original graph.

    Each merged step becomes one step per class member, ascending. The result
    is verified on g; failure means the inputs violated the merge contract.
    """
    size = len(merge_map.classes)
    if len(merge_map.to_merged) != g.n or len(seq_h.start.colors) != size:
        raise LiftFailure(
            f"merge map of {len(merge_map.to_merged)} vertices onto {size} classes "
            f"does not fit a {g.n}-vertex graph and a "
            f"{len(seq_h.start.colors)}-vertex merged sequence"
        )
    outside = [m for m in merge_map.to_merged if not 0 <= m < size]
    outside += [m for m, _ in seq_h.steps if not 0 <= m < size]
    if outside:
        raise LiftFailure(f"merged vertex {outside[0]} is not one of {size} classes")
    lifted = _lift(seq_h, merge_map, g.n)
    try:
        verify_sequence(g, lifted)
    except (ImproperStart, ImproperStep, NoOpStep, InvalidColoring) as exc:
        raise LiftFailure(f"expanded sequence is invalid on the original graph: {exc}")
    return lifted


def _lift(seq_h: RecoloringSequence, merge_map: MergeMap, n: int) -> RecoloringSequence:
    """lift_sequence without replaying its output."""
    start = Coloring(
        seq_h.start.k,
        tuple(seq_h.start.colors[merge_map.to_merged[v]] for v in range(n)),
    )
    steps: list[tuple[int, int]] = []
    for m, c in seq_h.steps:
        for v in merge_map.classes[m]:
            steps.append((v, c))
    return RecoloringSequence(start, tuple(steps))


def two_phase_transform(
    g: Graph, gamma_s: Coloring, gamma_t: Coloring, d: int, k: int
) -> RecoloringSequence:
    """Transform between two (d+1)-colorings, recoloring every vertex at most twice.

    Only vertices whose source and target colors differ move. First those of
    source classes 1..d rotate out to spare colors d+2..2d+1, then those of
    class d+1 and finally the parked ones move straight to their target
    colors. A vertex that stays already holds its target color, so the
    target's properness covers it at every step. Requires k >= 2d+1.
    """
    if k < 2 * d + 1:
        raise InvalidInput(f"need k >= {2 * d + 1}, got {k}")
    require_proper(g, gamma_s, d + 1, "source")
    require_proper(g, gamma_t, d + 1, "target")
    seq = _two_phase(g.n, gamma_s, gamma_t, d, k)
    final = verify_sequence(g, seq)
    if final.colors != gamma_t.colors:
        raise AssertionError("two-phase transform missed its target")
    return seq


def _two_phase(
    n: int, gamma_s: Coloring, gamma_t: Coloring, d: int, k: int
) -> RecoloringSequence:
    """two_phase_transform without checking its inputs or replaying its output."""
    classes: list[list[int]] = [[] for _ in range(d + 2)]
    for v in range(n):
        if gamma_s.colors[v] != gamma_t.colors[v]:
            classes[gamma_s.colors[v]].append(v)

    steps: list[tuple[int, int]] = []
    for i in range(1, d + 1):
        for v in classes[i]:
            steps.append((v, d + 1 + i))
    for v in classes[d + 1]:
        steps.append((v, gamma_t.colors[v]))
    for i in range(1, d + 1):
        for v in classes[i]:
            steps.append((v, gamma_t.colors[v]))

    return RecoloringSequence(Coloring(k, gamma_s.colors), tuple(steps))


def _toward_3coloring(
    g: Graph,
    td: TreeDecomposition,
    tree: tuple[list[int], list[int]],
    coloring: Coloring,
) -> tuple[RecoloringSequence, Coloring]:
    """Sequence on g from `coloring` to a 3-coloring, via the merge classes.

    `tree` is _validate_decomposition(g, td). The greedy 3-coloring of the
    merged graph reads only the later-neighbor table of the tree order.
    """
    merge_map, col_h = _merge_classes(g, td, coloring)
    peo, later = _tree_order(td, *tree, merge_map)
    target = _greedy(peo.order, later)
    seq_h = _best_choice(peo, later, col_h, Coloring(3, target), k=5)
    lifted = _lift(seq_h, merge_map, g.n)
    return lifted, Coloring(5, tuple(target[m] for m in merge_map.to_merged))


def pipeline_theorem(g: Graph, alpha: Coloring, beta: Coloring) -> RecoloringSequence:
    """Full transformation between two proper 5-colorings of a treewidth-2 graph.

    Both endpoints are pushed down to 3-colorings through their own merged
    chordal graphs, the two 3-colorings are bridged with the two-phase
    rotation, and the second half is replayed in reverse. Every vertex is
    recolored at most PER_VERTEX_PIPELINE_BOUND times. The whole sequence is
    replayed once at the end; the stages in between neither check nor replay.
    """
    for name, coloring in (("alpha", alpha), ("beta", beta)):
        if coloring.k != 5:
            raise InvalidColoring(f"{name} is a {coloring.k}-coloring, not a 5-coloring")
        require_proper(g, coloring, 5, name)
    td = reduce_width2(g)
    tree = _validate_decomposition(g, td)
    seq_a, gamma_1 = _toward_3coloring(g, td, tree, alpha)
    seq_b, gamma_2 = _toward_3coloring(g, td, tree, beta)
    bridge = _two_phase(g.n, gamma_1, gamma_2, d=2, k=5)
    whole = concatenate([seq_a, bridge, reverse_sequence(seq_b)])
    final = verify_sequence(g, whole)
    if final.colors != beta.colors:
        raise AssertionError("pipeline does not end at beta")
    return whole
