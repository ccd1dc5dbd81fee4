"""Reduction of treewidth-2 instances to chordal ones and the full pipeline.

A treewidth-2 graph with a proper coloring is turned into a chordal graph of
clique number at most 3 by merging same-colored vertices that share a bag and
then filling every bag into a clique. Sequences found on the merged graph
lift back by expanding each merged step over its class. The pipeline chains
two such reductions (one per endpoint coloring) through a palette-rotation
bridge between 3-colorings, giving a transformation between any two proper
5-colorings that recolors every vertex a bounded number of times.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .bestchoice import _best_choice
from .decomposition import (
    TreeDecomposition,
    later_neighbors,
    mcs_order,
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
from .graphs import Coloring, Graph, greedy_coloring, require_proper
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
    """merge_same_colored without checking its inputs.

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

    edges = set()
    for bag in td.bags:
        edges.update(combinations({to_merged[v] for v in bag}, 2))
    h = Graph.from_edges(len(classes), edges)
    alpha_h = Coloring(alpha.k, tuple(alpha.colors[c[0]] for c in classes))
    return h, MergeMap(to_merged, tuple(map(tuple, classes))), alpha_h


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

    First the source color classes 1..d rotate out to spare colors d+2..2d+1,
    then class d+1 and finally the parked classes move straight to their
    target colors. Steps that would not change a color are omitted. Requires
    k >= 2d+1.
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
        classes[gamma_s.colors[v]].append(v)

    steps: list[tuple[int, int]] = []
    for i in range(1, d + 1):
        for v in classes[i]:
            steps.append((v, d + 1 + i))
    for v in classes[d + 1]:
        if gamma_t.colors[v] != d + 1:
            steps.append((v, gamma_t.colors[v]))
    for i in range(1, d + 1):
        for v in classes[i]:
            steps.append((v, gamma_t.colors[v]))

    return RecoloringSequence(Coloring(k, gamma_s.colors), tuple(steps))


def _toward_3coloring(
    g: Graph, td: TreeDecomposition, coloring: Coloring
) -> tuple[RecoloringSequence, Coloring]:
    """Sequence on g from `coloring` to a 3-coloring, via the merged graph."""
    h, merge_map, col_h = _merge(g, td, coloring)
    peo = mcs_order(h)
    target = greedy_coloring(h, peo)
    seq_h = _best_choice(peo, later_neighbors(h, peo), col_h, target, k=5)
    lifted = _lift(seq_h, merge_map, g.n)
    final = Coloring(5, tuple(target.colors[merge_map.to_merged[v]] for v in range(g.n)))
    return lifted, final


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
    validate_decomposition(g, td)
    seq_a, gamma_1 = _toward_3coloring(g, td, alpha)
    seq_b, gamma_2 = _toward_3coloring(g, td, beta)
    bridge = _two_phase(g.n, gamma_1, gamma_2, d=2, k=5)
    whole = concatenate([seq_a, bridge, reverse_sequence(seq_b)])
    final = verify_sequence(g, whole)
    if final.colors != beta.colors:
        raise AssertionError("pipeline does not end at beta")
    return whole
