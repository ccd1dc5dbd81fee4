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


def _extend(
    steps: list[tuple[int, int]],
    start_colors,
    u: int,
    neighbors,
    alpha_u: int,
    beta_u: int,
    k: int,
) -> list[tuple[int, int]]:
    """Splice recolorings of u into a sequence that never touches u.

    `neighbors` are u's neighbors within the already-processed subgraph; the
    existing steps only recolor processed vertices.
    """
    cur = list(start_colors)
    cur[u] = alpha_u
    nbrs = list(neighbors)
    nbrset = set(nbrs)
    future_colors = [c for v, c in steps if v in nbrset]

    out: list[tuple[int, int]] = []
    fut = 0
    for v, c in steps:
        if v in nbrset:
            if c == cur[u]:
                forbidden = {cur[u]} | {cur[w] for w in nbrs}
                valid = [x for x in range(1, k + 1) if x not in forbidden]
                choice = _choose_color(valid, future_colors[fut:], beta_u)
                out.append((u, choice))
                cur[u] = choice
            fut += 1
        out.append((v, c))
        cur[v] = c
    if cur[u] != beta_u:
        out.append((u, beta_u))
    return out


def local_best_choice_extend(
    g: Graph,
    u: int,
    alpha_u: int,
    beta_u: int,
    seq: RecoloringSequence,
) -> RecoloringSequence:
    """Extend a valid sequence on g minus u to one on g, recoloring u lazily.

    u moves only when a neighbor is about to take its current color, plus one
    final step to reach beta_u if needed. The result starts from seq's start
    with u set to alpha_u and is verified before being returned.
    """
    if any(v == u for v, _ in seq.steps):
        raise InvalidInput(f"sequence already recolors vertex {u}")
    k = seq.start.k
    steps = _extend(
        list(seq.steps), seq.start.colors, u, g.adjacency[u], alpha_u, beta_u, k
    )
    colors = list(seq.start.colors)
    colors[u] = alpha_u
    result = RecoloringSequence(Coloring(k, tuple(colors)), tuple(steps))
    verify_sequence(g, result)
    return result


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
    neighbors already processed, which are exactly those after it.
    """
    steps: list[tuple[int, int]] = []
    for u in reversed(peo.order):
        steps = _extend(steps, alpha.colors, u, later[u], alpha.colors[u], beta.colors[u], k)
    return RecoloringSequence(Coloring(k, alpha.colors), tuple(steps))
