"""Greedy bounded recoloring over an elimination ordering.

The sequence between two colorings is built one vertex at a time, from the
last vertex of the ordering down to the first. Each new vertex u is spliced
into the existing sequence: whenever an already-processed neighbor is about
to take u's current color, u is recolored just before that step, choosing a
color that minimizes how often u will be forced to move again. A final step
gives u its target color if needed. On chordal graphs with clique number at
most 3 and five colors this recolors every vertex a bounded number of times.

The ordering's later-neighbor table and its width (the most later neighbors
of any vertex) come from `decomposition._perfect_later`, which also rejects
an ordering that is not a perfect elimination ordering. A forced vertex
avoids its own color and those of its later neighbors, at most 1 + width
colors, so k >= 2 + width always leaves it a free one.
"""

from __future__ import annotations

from typing import Sequence

from .decomposition import _perfect_later
from .graphs import Coloring, EliminationOrdering, Graph, _require_int, require_proper
from .sequences import RecoloringSequence, _replayed

PER_VERTEX_CHORDAL_BOUND = 542


def _choose_color(forbidden: set[int], future: list[int], target: int, k: int) -> int:
    """Pick a color in 1..k outside `forbidden` for a vertex forced to move.

    Preference order: the target color (in 1..k) if it is not among the
    upcoming neighbor colors `future`; otherwise the smallest color absent
    from those; otherwise the color whose first upcoming occurrence is
    latest. Only the last rule lists 1..k, and it runs only when every
    color up to k is forbidden or upcoming.

    Requires fewer than k forbidden colors, so one is free. `_best_choice`
    forbids the vertex's color and its at most `width` later neighbors'
    colors, and every caller has k >= 2 + width.
    """
    upcoming = set(future)
    if target not in forbidden and target not in upcoming:
        return target
    c = 1
    while c in forbidden or c in upcoming:
        c += 1
    if c <= k:
        return c
    # every valid color is upcoming, so first occurrences never tie
    return max((c for c in range(1, k + 1) if c not in forbidden), key=future.index)


def best_choice_recoloring(
    g: Graph,
    peo: EliminationOrdering,
    alpha: Coloring,
    beta: Coloring,
    k: int,
) -> RecoloringSequence:
    """Sequence from alpha to beta, extending vertex by vertex along the ordering.

    Requires a perfect elimination ordering and k at least 2 plus the largest
    number of later neighbors of any vertex, so a valid color always exists.
    The per-vertex bound PER_VERTEX_CHORDAL_BOUND (542) is a claim for k = 5
    and at most 2 later neighbors per vertex (clique number at most 3). At
    k = 4 there, or at k = 5 with 3 later neighbors (clique number 4), the
    sequence is valid but no per-vertex bound holds. So the one replay checks
    the bound in the claimed case only.
    """
    later, width = _perfect_later(g, peo)
    _require_int("k", k, 2 + width)
    require_proper(g, alpha, k, "alpha")
    require_proper(g, beta, k, "beta")

    steps = _best_choice(peo.order, later, alpha.colors, beta.colors, k)
    bound = PER_VERTEX_CHORDAL_BOUND if k == 5 and width <= 2 else None
    return _replayed(g, k, alpha, steps, beta.colors, bound)


def _best_choice(
    order: Sequence[int],
    later: Sequence[tuple[int, ...]],
    alpha: Sequence[int],
    beta: Sequence[int],
    k: int,
) -> list[tuple[int, int]]:
    """best_choice_recoloring's steps, without checking its inputs or replaying them.

    `later` is the later-neighbor table of `order`, and `alpha` and `beta`
    are the endpoint colors in 1..k, all three indexed by vertex id. `order`
    may list a subset of the ids: the pipeline names each merge class by its
    smallest member and lists only those. k must be at least 2 plus the largest
    later set, as best choice checks and the pipeline's k = 5 with at most
    2 later neighbors gives, so a forced move always has a free color. Each
    u is spliced in against the neighbors already processed, which are
    exactly those after it. Steps are nodes (vertex, color) of one doubly
    linked list whose node 0 marks the end, and trace[u] lists the nodes of
    u and of later[u] in sequence order. Every step is placed by `splice`:
    a forced move just before the neighbor's step it avoids, and a final
    step just before node 0, at the end.

    u only needs the steps of later[u], in order. Let a be the vertex of
    later[u] processed last. later[u] is a clique, so every other member of
    it lies in later[a]; a vertex's steps are fixed once it is processed, and
    an insertion never reorders existing nodes. So trace[a] filtered to
    later[u] is exactly the run of steps u is spliced against. When u's color
    never comes up in that run, u moves only at the end and trace[u] is the run.
    """
    vert, col, prv, nxt = [-1], [0], [0], [0]

    def splice(u: int, c: int, s: int) -> int:
        """A new node (u, c) just before node s; s = 0 puts it at the end."""
        node = len(vert)
        vert.append(u)
        col.append(c)
        p = prv[s]
        prv.append(p)
        nxt.append(s)
        nxt[p] = prv[s] = node
        return node

    rank = [0] * len(alpha)
    trace: list[list[int]] = [[]] * len(alpha)
    for i, u in enumerate(reversed(order)):
        nbrs = later[u]
        cur_u = alpha[u]
        if not nbrs:
            mine = []
        else:
            if len(nbrs) == 1:
                a = nbrs[0]
            elif len(nbrs) == 2:
                x, y = nbrs
                a = x if rank[x] > rank[y] else y
            else:
                a = max(nbrs, key=rank.__getitem__)
            view = [s for s in trace[a] if vert[s] in nbrs]
            upcoming = [col[s] for s in view]
            if cur_u not in upcoming:
                mine = view
            else:
                mine = []
                cur = {w: alpha[w] for w in nbrs}
                for j, s in enumerate(view):
                    if upcoming[j] == cur_u:
                        forbidden = {cur_u, *cur.values()}
                        cur_u = _choose_color(forbidden, upcoming[j:], beta[u], k)
                        mine.append(splice(u, cur_u, s))
                    mine.append(s)
                    cur[vert[s]] = upcoming[j]
        if cur_u != beta[u]:
            mine.append(splice(u, beta[u], 0))
        trace[u] = mine
        rank[u] = i

    steps = []
    s = nxt[0]
    while s:
        steps.append((vert[s], col[s]))
        s = nxt[s]
    return steps
