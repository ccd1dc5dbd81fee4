"""Greedy bounded recoloring over an elimination ordering.

The sequence between two colorings is built one vertex at a time, from the
last vertex of the ordering down to the first. Each new vertex u is spliced
into the existing sequence: whenever an already-processed neighbor is about
to take u's current color, u is recolored just before that step, choosing a
color that minimizes how often u will be forced to move again. A final step
gives u its target color if needed. On chordal graphs with clique number at
most 3 and five colors this recolors every vertex a bounded number of times.
"""

from __future__ import annotations

from .decomposition import EliminationOrdering, _later_form_cliques, later_neighbors
from .errors import InvalidInput, NoValidColor
from .graphs import Coloring, Graph, require_proper
from .sequences import RecoloringSequence, verify_sequence


def _choose_color(valid: list[int], future_colors: list[int], target: int) -> int:
    """Pick a color for a vertex forced to move.

    Preference order: the target color if it is valid and never reappears
    among the upcoming neighbor colors; otherwise the smallest valid color
    absent from those; otherwise the valid color whose first upcoming
    occurrence is latest (ties to the smallest color).
    """
    if not valid:
        raise NoValidColor("every color collides with the vertex or a neighbor")
    upcoming = set(future_colors)
    if target in valid and target not in upcoming:
        return target
    fresh = [c for c in valid if c not in upcoming]
    if fresh:
        return min(fresh)
    first_at = {}
    for pos, c in enumerate(future_colors):
        if c not in first_at:
            first_at[c] = pos
    return max(valid, key=lambda c: (first_at[c], -c))


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
    """
    require_proper(g, alpha, k, "alpha")
    require_proper(g, beta, k, "beta")
    later = later_neighbors(g, peo)
    if not _later_form_cliques(g, later):
        raise InvalidInput("ordering is not a perfect elimination ordering")
    max_out = max(map(len, later), default=0)
    if k < 2 + max_out:
        raise InvalidInput(f"need k >= {2 + max_out}, got {k}")

    seq = _best_choice(peo, later, alpha, beta, k)
    final = verify_sequence(g, seq)
    if final.colors != beta.colors:
        raise AssertionError("sequence does not end at the target coloring")
    return seq


def _best_choice(
    peo: EliminationOrdering,
    later: tuple[tuple[int, ...], ...],
    alpha: Coloring,
    beta: Coloring,
    k: int,
) -> RecoloringSequence:
    """best_choice_recoloring without checking its inputs or replaying its output.

    `later` is later_neighbors(g, peo): each u is spliced in against the
    neighbors already processed, which are exactly those after it. Steps are
    nodes (vertex, color) of one doubly linked list whose node 0 marks the end,
    and trace[u] lists the nodes of u and of later[u] in sequence order.

    u only needs the steps of later[u], in order. Let a be the vertex of
    later[u] processed last. later[u] is a clique, so every other member of
    it lies in later[a]; a vertex's steps are fixed once it is processed, and
    an insertion never reorders existing nodes. So trace[a] filtered to
    later[u] is exactly the run of steps u is spliced against.
    """
    vert, col, prv, nxt = [-1], [0], [0], [0]

    def insert(v: int, c: int, before: int) -> int:
        node = len(vert)
        vert.append(v)
        col.append(c)
        prv.append(prv[before])
        nxt.append(before)
        nxt[prv[before]] = node
        prv[before] = node
        return node

    rank = [0] * len(peo.order)
    trace: list[list[int]] = [[] for _ in peo.order]
    for i, u in enumerate(reversed(peo.order)):
        nbrs = later[u]
        view = []
        if nbrs:
            a = max(nbrs, key=rank.__getitem__)
            view = [s for s in trace[a] if vert[s] in nbrs]
        upcoming = [col[s] for s in view]
        cur = {w: alpha.colors[w] for w in nbrs}
        cur_u, beta_u = alpha.colors[u], beta.colors[u]
        for j, s in enumerate(view):
            if upcoming[j] == cur_u:
                forbidden = {cur_u, *cur.values()}
                valid = [x for x in range(1, k + 1) if x not in forbidden]
                cur_u = _choose_color(valid, upcoming[j:], beta_u)
                trace[u].append(insert(u, cur_u, s))
            trace[u].append(s)
            cur[vert[s]] = upcoming[j]
        if cur_u != beta_u:
            trace[u].append(insert(u, beta_u, 0))
        rank[u] = i

    steps = []
    s = nxt[0]
    while s:
        steps.append((vert[s], col[s]))
        s = nxt[s]
    return RecoloringSequence(Coloring(k, alpha.colors), tuple(steps))
