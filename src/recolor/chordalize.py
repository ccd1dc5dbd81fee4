"""Reduction of treewidth-2 instances to chordal ones and the full pipeline.

A treewidth-2 graph with a proper coloring is turned into a chordal graph of
clique number at most 3 by merging same-colored vertices that share a bag and
then filling every bag into a clique. Sequences found on the merged graph
lift back by expanding each merged step over its class. The pipeline chains
two such reductions (one per endpoint coloring) through a palette-rotation
bridge between 3-colorings, giving a transformation between any two proper
5-colorings that recolors every vertex a bounded number of times.

The reduction is needed only because a fill edge can join two vertices of one
color, and the pipeline skips it when neither endpoint merges anything. Let H
be g plus the pair (a, b) of every elimination bag (v, a, b). When
`_merge_pairs` yields no pair for alpha or for beta, both are proper on H.
With the identity classes, H is the h below: the elimination order is a
perfect elimination ordering of H, each vertex has at most 2 later neighbors,
and H is chordal of clique number at most 3. So one best-choice run from
alpha to beta at k = 5 is valid on H, and on its spanning subgraph g, and
PER_VERTEX_CHORDAL_BOUND covers the whole output.

Both `merge_same_colored` and the pipeline merge over the bags {v} + N(v) of
the degree-<=2 elimination of g (`decomposition._eliminate`). Hang each bag
below the bag of its neighbor eliminated first: the bags form a width-2 tree
decomposition of g, the witness the reduction needs. `_merge_pairs` lists the
pairs that merge and argues why no other pair of a bag can. A class is
eliminated with its last member w, and its later neighbors in h are the other
classes of w's bag (`_elimination_order`). That order is a perfect
elimination ordering of h. Each vertex's elimination bags form a subtree
topped by its own bag, and a class's members are linked through shared bags,
so a class's bags form a subtree topped by its last member's bag. The
subtrees of two adjacent classes meet in a subtree topped by the earlier
class's top bag, so the later class has a member in that bag. Each later set
has at most 2 classes, because |N(w)| <= 2, and it is a clique because the
bag is filled. So h's edges are exactly x-later[x]: `merge_same_colored`
builds h from that table, and the pipeline does not build h at all. The
greedy 3-coloring reads only those sets, so the walk that finds the order
colors each class when it first meets it. A class takes its preferred color
when that color is in 1..3 and no later class holds it, and otherwise the
smallest color none of them holds; with at most 2 later classes one is always
free, and the best-choice bound holds for any proper target. The alpha half
prefers each class's own alpha color and the beta half the first 3-coloring
at the class's smallest member, so each half moves few vertices and the two
3-colorings differ on few. The bridge moves only the vertices whose two
3-colorings differ.

The private cores (`_merge_classes`, `_elimination_order`, `_lift`,
`_two_phase` and `bestchoice._best_choice`) pass plain lists and tuples to
each other and check nothing. The value types (`Coloring`, `MergeMap`,
`RecoloringSequence`) check their own fields when built; each public entry
point checks only how its inputs relate, runs the cores and replays once.
`pipeline_theorem` first asks whether `_merge_pairs` yields a pair for either
endpoint; the test stops at the first pair and builds nothing, so each merge
that runs runs once. When neither does, its step list is the one run
`_best_choice(order, later, alpha, beta, 5)` on H; otherwise it joins its
three parts (alpha to gamma1, the bridge, the undone beta half). Either way
one compaction call runs up to three passes over the list, all forward from
alpha, and the list is replayed once against the route's bound,
PER_VERTEX_PIPELINE_BOUND or PER_VERTEX_CHORDAL_BOUND; `sequences._compact`
argues why the compaction keeps every step proper, the end unchanged and no
vertex's count higher.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterator, Sequence

from .bestchoice import PER_VERTEX_CHORDAL_BOUND, _best_choice
from .decomposition import _eliminate
from .errors import (
    ImproperStart,
    ImproperStep,
    InvalidInput,
    LiftFailure,
    NoOpStep,
)
from .graphs import Coloring, Graph, _require_instance, _require_int, require_proper
from .sequences import RecoloringSequence, _compact, _replayed, _undo, verify_sequence

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

    def __post_init__(self):
        to_merged, classes = self.to_merged, self.classes
        _require_instance("to_merged", to_merged, tuple)
        _require_instance("classes", classes, tuple)
        size = len(classes)
        inverse: list[list[int]] = [[] for _ in range(size)]
        for v, m in enumerate(to_merged):
            if type(m) is not int or not 0 <= m < size:
                raise InvalidInput(f"merged vertex {m!r} is not one of {size} classes")
            inverse[m].append(v)
        if classes != tuple(map(tuple, inverse)):
            raise InvalidInput("merge map classes do not invert to_merged")

    def to_json(self) -> dict:
        return {
            "to_merged": list(self.to_merged),
            "classes": [list(c) for c in self.classes],
        }


def merge_same_colored(g: Graph, alpha: Coloring) -> tuple[Graph, MergeMap, Coloring]:
    """Merge same-colored vertices sharing an elimination bag, then fill bags into cliques.

    Returns the merged-and-filled graph (chordal, clique number <= 3), the
    merge map, and the inherited coloring, which is proper on the result.
    The filled bags' edges are x-later[x] over the classes' later table, as
    the module docstring argues. Raises NotWidth2 if g has treewidth above 2.
    """
    _require_instance("alpha", alpha, Coloring)
    require_proper(g, alpha, alpha.k, "alpha")
    elim = _eliminate(g)
    to_merged, classes, colors_h = _merge_classes(elim, alpha.colors)
    _, later, _ = _elimination_order(elim, to_merged, colors_h)
    return (
        Graph.from_edges(len(classes), [(x, y) for x, ys in enumerate(later) for y in ys]),
        MergeMap(tuple(to_merged), tuple(map(tuple, classes))),
        Coloring(alpha.k, tuple(colors_h)),
    )


def _merge_pairs(bags: Sequence[Sequence[int]], colors: Sequence[int]) -> Iterator[Sequence[int]]:
    """The pairs (a, b) of the bags (v, a, b) that give a and b one color, lazily.

    `bags` holds one bag per vertex, as `_eliminate` returns them. No other
    pair of a bag can newly merge. The pairs v-a and v-b are edges when v is
    eliminated: an edge of g, which a proper coloring gives two colors, or a
    fill edge, which is the pair (a, b) of the earlier bag that made it and
    so was yielded there if it shares a color. A 2-bag holds an edge too.
    """
    return (bag[1:] for bag in bags if len(bag) == 3 and colors[bag[1]] == colors[bag[2]])


def _merge_classes(
    bags: Sequence[Sequence[int]], colors: Sequence[int]
) -> tuple[list[int], list[list[int]], list[int]]:
    """The merge map and inherited colors of merge_same_colored, without h.

    Returns to_merged, the classes (ascending, numbered in the order of their
    smallest members) and each class's color. The classes are the connected
    components of the pairs `_merge_pairs(bags, colors)` yields.
    """
    # root[v] <= v, and a component's root is its smallest member
    root = list(range(len(bags)))
    for a, b in _merge_pairs(bags, colors):
        while root[a] != a:
            root[a] = a = root[root[a]]
        while root[b] != b:
            root[b] = b = root[root[b]]
        if a < b:
            root[b] = a
        else:
            root[a] = b

    # root[v] < v lies in v's class and was numbered first
    to_merged = [0] * len(root)
    classes: list[list[int]] = []
    for v, r in enumerate(root):
        if r == v:
            to_merged[v] = len(classes)
            classes.append([v])
        else:
            to_merged[v] = m = to_merged[r]
            classes[m].append(v)
    return to_merged, classes, [colors[c[0]] for c in classes]


def _elimination_order(
    elim: Sequence[Sequence[int]], to_merged: Sequence[int], prefer: Sequence[int]
) -> tuple[list[int], list[tuple[int, ...]], list[int]]:
    """The merge classes' elimination order, later-neighbor table and 3-coloring.

    `elim` is the degree-<=2 elimination the classes were merged over, and
    `prefer` holds one preferred color per class. A class goes where its last
    member w is eliminated, and later[x] is the ascending, distinct classes of
    w's neighbors then. By the argument in the module docstring this is a
    perfect elimination ordering of h. target[x] is prefer[x] when that is in
    1..3 and no class of later[x] holds it, and otherwise the smallest color
    that none of them holds.
    """
    order = []
    later: list[tuple[int, ...]] = [()] * len(prefer)
    target = [0] * len(prefer)
    # walking back, a class is met first at its last member, and the classes
    # of that member's neighbors were all met and colored before it
    for bag in reversed(elim):
        x = to_merged[bag[0]]
        if not target[x]:
            order.append(x)
            p = prefer[x]
            if len(bag) == 1:
                target[x] = p if 0 < p < 4 else 1
            else:
                a, b = to_merged[bag[1]], to_merged[bag[-1]]
                later[x] = (a, b) if a < b else (b, a) if b < a else (a,)
                ta, tb = target[a], target[b]
                if 0 < p < 4 and p != ta and p != tb:
                    target[x] = p
                else:
                    # two later classes are adjacent in h: two distinct colors of 1..3
                    target[x] = 6 - ta - tb if a != b else 2 if ta == 1 else 1
    order.reverse()
    return order, later, target


def lift_sequence(
    seq_h: RecoloringSequence, merge_map: MergeMap, g: Graph
) -> RecoloringSequence:
    """Expand a merged-graph sequence back to the original graph.

    Each merged step becomes one step per class member, ascending. The map
    must fit g and seq_h. The result is verified on g; failure means the
    inputs violated the merge contract.
    """
    _require_instance("seq_h", seq_h, RecoloringSequence)
    _require_instance("merge_map", merge_map, MergeMap)
    _require_instance("g", g, Graph)
    to_merged, classes = merge_map.to_merged, merge_map.classes
    size = len(classes)
    if len(to_merged) != g.n or len(seq_h.start.colors) != size:
        raise LiftFailure(
            f"merge map of {len(to_merged)} vertices onto {size} classes "
            f"does not fit a {g.n}-vertex graph and a "
            f"{len(seq_h.start.colors)}-vertex merged sequence"
        )
    colors_h = seq_h.start.colors
    lifted = RecoloringSequence(
        Coloring(seq_h.start.k, tuple([colors_h[m] for m in to_merged])),
        tuple(_lift(seq_h.steps, classes)),
    )
    try:
        verify_sequence(g, lifted)
    except (ImproperStart, ImproperStep, NoOpStep) as exc:
        raise LiftFailure(f"expanded sequence is invalid on the original graph: {exc}") from exc
    return lifted


def _lift(
    steps_h: Sequence[tuple[int, int]], classes: Sequence[Sequence[int]]
) -> list[tuple[int, int]]:
    """lift_sequence's steps, without checking or replaying them."""
    return [(v, c) for m, c in steps_h for v in classes[m]]


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
    _require_int("d", d, 0)
    _require_int("k", k, 2 * d + 1)
    require_proper(g, gamma_s, d + 1, "gamma_s")
    require_proper(g, gamma_t, d + 1, "gamma_t")
    steps = _two_phase(gamma_s.colors, gamma_t.colors, d)
    return _replayed(g, k, gamma_s, steps, gamma_t.colors, 2)


def _two_phase(
    source: Sequence[int], target: Sequence[int], d: int
) -> list[tuple[int, int]]:
    """two_phase_transform's steps, without checking its inputs or replaying them.

    Only the source classes of moving vertices are listed, so the cost does
    not depend on d.
    """
    moving: defaultdict[int, list[int]] = defaultdict(list)
    for v, (s, t) in enumerate(zip(source, target)):
        if s != t:
            moving[s].append(v)
    parked = sorted(c for c in moving if c <= d)
    steps = [(v, d + 1 + c) for c in parked for v in moving[c]]
    steps += [(v, target[v]) for v in moving.get(d + 1, ())]
    steps += [(v, target[v]) for c in parked for v in moving[c]]
    return steps


def _toward_3coloring(
    elim: Sequence[Sequence[int]], colors: Sequence[int], prefer: Sequence[int]
) -> tuple[list[tuple[int, int]], list[int]]:
    """Steps on g from the 5-coloring `colors` to a 3-coloring, and that 3-coloring.

    `elim` is the degree-<=2 elimination of g, read as its elimination bags.
    The 3-coloring of the merged graph is assigned in the same backward walk
    that finds the classes' elimination order, and a class keeps the color
    `prefer` gives its smallest member wherever it can.
    """
    to_merged, classes, colors_h = _merge_classes(elim, colors)
    prefer_h = [prefer[c[0]] for c in classes]
    order, later, target = _elimination_order(elim, to_merged, prefer_h)
    steps_h = _best_choice(order, later, colors_h, target, 5)
    return _lift(steps_h, classes), [target[m] for m in to_merged]


def pipeline_theorem(g: Graph, alpha: Coloring, beta: Coloring) -> RecoloringSequence:
    """Full transformation between two proper 5-colorings of a treewidth-2 graph.

    Each endpoint may be declared at any k <= 5 (`require_proper`'s rule), and
    the output starts at k = 5 whatever alpha declares.

    When `_merge_pairs` yields a pair for alpha or for beta, both endpoints
    are pushed down to 3-colorings through their own merged chordal graphs,
    the two 3-colorings are bridged with the two-phase rotation, and the
    second half is undone. The alpha half's
    3-coloring stays close to alpha and the beta half's close to the first,
    so the bridge moves few vertices. Every vertex is recolored at most
    PER_VERTEX_PIPELINE_BOUND times.

    When it yields none for either, neither endpoint merges anything, and
    one best-choice run goes from alpha to beta on H, g plus the pair (a, b)
    of every bag. Both endpoints are proper on H; the elimination order is a
    perfect elimination ordering of H with at most 2 later neighbors per
    vertex; and a sequence proper on H is proper on its spanning subgraph g.
    PER_VERTEX_CHORDAL_BOUND then covers the whole output.

    Either way one `sequences._compact` call folds the steps in up to three
    forward passes, and they are replayed once from alpha. The
    replay checks the end and the route's per-vertex bound; the stages in
    between neither check nor replay.
    """
    require_proper(g, alpha, 5, "alpha")
    require_proper(g, beta, 5, "beta")
    elim = _eliminate(g)
    if any(_merge_pairs(elim, alpha.colors)) or any(_merge_pairs(elim, beta.colors)):
        steps_a, gamma_1 = _toward_3coloring(elim, alpha.colors, alpha.colors)
        steps_b, gamma_2 = _toward_3coloring(elim, beta.colors, gamma_1)
        _, back = _undo(beta.colors, steps_b)
        steps = steps_a + _two_phase(gamma_1, gamma_2, d=2) + back
        bound = PER_VERTEX_PIPELINE_BOUND
    else:
        # every vertex is its own class, and H is the merged graph
        order, later, _ = _elimination_order(elim, range(g.n), alpha.colors)
        steps = _best_choice(order, later, alpha.colors, beta.colors, 5)
        bound = PER_VERTEX_CHORDAL_BOUND
    steps = _compact(g.adjacency, alpha.colors, steps)
    return _replayed(g, 5, alpha, steps, beta.colors, bound)
