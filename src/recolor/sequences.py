"""Recoloring sequences: replay, compaction and structural audits.

A sequence is a start coloring plus ordered (vertex, new_color) steps, each a
tuple of two ints with a vertex of the start and a color in 1..k, as
`RecoloringSequence` checks when built. Every step must change its vertex's
color and every intermediate coloring must stay proper; `verify_sequence`
enforces both. The audit checks the structural properties that every greedily
built sequence from `bestchoice` satisfies: no immediate re-recoloring, a
per-vertex count bound driven by saved steps, and color distinctness around
tight alternation patterns. Its core `_audit` reads each vertex's
out-neighbors N+(v) from one later-neighbor table. `audit_best_choice`
reads that table and its width through `decomposition._perfect_later`, as
best choice does, so both reject an ordering that is not a perfect
elimination ordering with the one InvalidInput; the audit also rejects a
width above two (OmegaTooLarge). The table is cached with its width and
verdict, so an audit right after `best_choice_recoloring` on the same
(g, peo) builds and checks none of them again.

Every audit rule is read off the gaps between consecutive steps of v in its
restriction, the steps of v and N+(v) in sequence order. An out-neighbor step
is saved unless it is one of the first two after a step of v that is not v's
last step: of the g out-neighbor steps between two consecutive steps of v,
min(g, 2) are unsaved, and every other out-neighbor step is saved.

So a vertex with fewer than two steps has no gap: every out-neighbor step is
saved and no rule can fire. The audit builds restrictions only for the
vertices with at least two steps, and reads the others' totals off the
per-vertex step counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import pairwise
from typing import Iterable, Sequence

from .decomposition import _perfect_later
from .errors import (
    AuditViolation,
    ImproperStart,
    ImproperStep,
    InvalidColoring,
    InvalidInput,
    NoOpStep,
    OmegaTooLarge,
    _json_loader,
)
from .graphs import Coloring, EliminationOrdering, Graph, _require_instance, is_proper


@dataclass(frozen=True)
class RecoloringSequence:
    start: Coloring
    steps: tuple[tuple[int, int], ...]

    def __post_init__(self):
        start, steps = self.start, self.steps
        _require_instance("start", start, Coloring)
        _require_instance("steps", steps, tuple)
        k, n = start.k, len(start.colors)
        # a step must be a tuple: any other iterable could be empty at replay
        try:
            for i, step in enumerate(steps):
                if type(step) is not tuple:
                    break
                v, c = step
                if type(v) is not int or type(c) is not int:
                    break
                if not 0 < c <= k:
                    raise InvalidColoring(f"step {i} uses color {c} outside 1..{k}")
                if not 0 <= v < n:
                    raise InvalidColoring(f"step {i} recolors unknown vertex {v}")
            else:
                return
        except ValueError:
            pass
        raise InvalidInput(f"step {i} {steps[i]!r} is not a (vertex, color) pair of integers")

    def __len__(self) -> int:
        return len(self.steps)

    def to_json(self) -> dict:
        return {"start": self.start.to_json(), "steps": [[v, c] for v, c in self.steps]}

    @staticmethod
    @_json_loader
    def from_json(obj: dict) -> "RecoloringSequence":
        start = Coloring.from_json(obj["start"])
        return RecoloringSequence(start, tuple(map(tuple, obj["steps"])))


def verify_sequence(g: Graph, seq: RecoloringSequence) -> Coloring:
    """Replay the sequence, checking properness and color change at every step.

    Returns the final coloring. Raises ImproperStart, ImproperStep(index) or
    NoOpStep(index).
    """
    return _verify(g, seq)[0]


def _verify(g: Graph, seq: RecoloringSequence) -> tuple[Coloring, list[int]]:
    """verify_sequence's checks, also returning the number of steps of each vertex."""
    _require_instance("seq", seq, RecoloringSequence)
    if not is_proper(g, seq.start):
        raise ImproperStart("start coloring is not proper")
    return _replay(g, seq)


def _replay(g: Graph, seq: RecoloringSequence) -> tuple[Coloring, list[int]]:
    """verify_sequence's step loop, for a start already known to be proper on g.

    Returns the final coloring and the number of steps of each vertex. The
    counts also index a failing step: they sum to the steps replayed before
    it, so the loop needs no enumerate, which pays for most of the counting.
    """
    adjacency = g.adjacency
    cur = list(seq.start.colors)
    counts = [0] * len(cur)
    for v, c in seq.steps:
        if cur[v] == c:
            raise NoOpStep(sum(counts), f"vertex {v} already has color {c}")
        for w in adjacency[v]:
            if cur[w] == c:
                raise ImproperStep(sum(counts), f"vertex {v} -> {c} collides with neighbor {w}")
        cur[v] = c
        counts[v] += 1
    return Coloring(seq.start.k, tuple(cur)), counts


def _replayed(
    g: Graph, k: int, start: Coloring, steps: list, end: tuple, bound: int | None
) -> RecoloringSequence:
    """The sequence of `steps` from `start` at the call's palette k, after one
    replay shows it ends at `end`.

    When `bound` is not None, the same replay's per-vertex counts show that no
    vertex is recolored more than `bound` times. Every caller has checked, with
    `require_proper`, that `start` is proper on g and declared at most at k, so
    only the steps are replayed, and `start` is rebuilt only when its k is lower.
    """
    if start.k != k:
        start = Coloring(k, start.colors)
    seq = RecoloringSequence(start, tuple(steps))
    final, counts = _replay(g, seq)
    if final.colors != end:
        raise AssertionError("sequence does not end at the target coloring")
    if bound is not None and max(counts, default=0) > bound:
        v = counts.index(max(counts))
        raise AssertionError(f"vertex {v} is recolored {counts[v]} times, over the bound {bound}")
    return seq


# Most passes `_compact` runs: one plain pass, then up to two two-way ones.
# On the joined halves of partial 2-trees at n = 1600 the plain pass leaves
# 1.45n of 2.25n steps, the first two-way pass 1.23n and the second 1.21n. A
# third would remove under 0.2% more, for about 40% of the plain pass's time
COMPACT_PASSES = 3


def _compact(
    adjacency: Sequence[Sequence[int]], start: Sequence[int], steps: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """A valid sequence from `start` with the end of the valid `steps`, never longer.

    Every pass is a `_fold` forward from `start`, which keeps a valid input
    valid from `start` to the same end and raises no vertex's count. The
    first pass is plain, and the others, up to COMPACT_PASSES in all, also
    fold backward. The first must stay plain: a two-way pass keeps a vertex
    at its earlier color where it can, and on the raw steps that blocks the
    forward folds which unwind interleaved moves of adjacent vertices.

    The passes stop early after a two-way pass that removes no step. Such a
    pass changes no step either, since every fold removes one, so a further
    pass would return the same steps. A plain pass that removes nothing does
    not stop them, as a two-way pass can still fold backward.
    """
    steps = _fold(adjacency, start, steps)
    for _ in range(COMPACT_PASSES - 1):
        size = len(steps)
        steps = _fold(adjacency, start, steps, True)
        if len(steps) == size:
            break
    return steps


def _fold(
    adjacency: Sequence[Sequence[int]],
    start: Sequence[int],
    steps: list[tuple[int, int]],
    both: bool = False,
) -> list[tuple[int, int]]:
    """One pass of `_compact`, in input order: valid steps from `start`, same end.

    A kept step sits at the time (input index) of the input step it came
    from, and each vertex has one chain of kept steps, read back from its
    last. A dropped step never joins a chain, and a rewritten step keeps its
    place with its new color, so the chains hold exactly the kept steps. Let
    t be v's last kept step when v's next input step i, to c, comes, let p be
    v's color from before t, and let seen(v) be the colors v's neighbors hold
    in the kept steps from t up to now: their colors at t and the color of
    every later kept step of a neighbor. Only when t is an input step:

    - When `both` is set, c is not p and no neighbor's kept step after t
      takes p, t goes (a backward fold) and step i is kept, so v keeps p
      until step i.
    - Else, when c is not in seen(v), step i goes (a forward fold): t goes
      too when c is p, and is otherwise rewritten to c and stays v's last
      kept step.

    Otherwise step i is kept and becomes v's last one. A start color is
    never rewritten.

    Why it holds: after each input step the kept steps are valid and reach
    the input's coloring. A backward fold: no neighbor holds p just before t,
    when v does, and none takes it after t, so v may keep p until step i.
    Step i is then valid as the input's step is, since the neighbors hold
    the input's colors just before it, and it still changes v's color, as c
    is not p. A forward fold: no neighbor holds c in the kept steps at any
    time from t to now, and v's only kept step there is t, so v may hold c
    from t on. A rewritten step still changes v's color, as c is not p.
    Either way v holds c after step i, as in the input, so the end is
    unchanged. Every fold removes one step of v, and a forward fold with c
    equal to p two, so no vertex's count rises, and a pass that removes
    nothing changes nothing.

    In particular, when no neighbor has a kept step after t, seen(v) is the
    neighbors' colors now, which the valid next step avoids, so t always
    goes.

    The tests are read when v's next step comes, by walking each neighbor's
    chain back from its last kept step to its last one at or before t: for p
    first when `both` is set and c is not p, then, unless t went, for c. So a
    step costs about deg(v) beside those walks, as in a replay, and a two-way
    pass walks at most twice where a plain one walks once.
    """
    n = len(start)
    # index i >= n is input step i - n, and index v < n stands for a step of v
    # to its start color before the input. colors[i] is step i's color, as
    # rewritten, last[v] indexes v's last kept step, and prev[i] the kept step
    # of the same vertex before step i. kept[i] is step i as kept or
    # rewritten, or None once dropped
    colors = [*start, *(c for _, c in steps)]
    last = list(range(n))
    prev = [-1] * len(colors)
    kept = [None] * n + steps
    for i, step in enumerate(steps, n):
        v, c = step
        t = last[v]
        if t >= n:
            p = colors[prev[t]]
            if both and c != p:
                for w in adjacency[v]:
                    j = last[w]
                    while j > t and colors[j] != p:
                        j = prev[j]
                    # w took p after t
                    if j > t:
                        break
                else:
                    kept[t] = None
                    prev[i] = prev[t]
                    last[v] = i
                    continue
            for w in adjacency[v]:
                j = last[w]
                while j > t and colors[j] != c:
                    j = prev[j]
                # w took c after t, or held it then
                if colors[j] == c:
                    break
            else:
                kept[i] = None
                if c == p:
                    kept[t] = None
                    last[v] = prev[t]
                else:
                    kept[t] = step
                    colors[t] = c
                continue
        prev[i] = t
        last[v] = i
    return list(filter(None, kept))


def _undo(colors: Iterable[int], steps: Iterable[tuple[int, int]]) -> tuple[tuple, list]:
    """The colors `steps` reach from `colors`, and the steps that lead back."""
    cur = list(colors)
    back = []
    for v, c in steps:
        back.append((v, cur[v]))
        cur[v] = c
    return tuple(cur), back[::-1]


RULE_REPEAT = "repeat-pattern"
RULE_BOUND = "count-bound"
RULE_DISTINCT = "color-distinctness"


@dataclass(frozen=True)
class AuditReport:
    """Per-vertex statistics plus any rule violations."""

    counts: tuple[int, ...]
    saved: tuple[int, ...]
    out_steps: tuple[int, ...]
    violations: tuple[AuditViolation, ...] = field(default=())

    @property
    def clean(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "counts": list(self.counts),
            "saved": list(self.saved),
            "out_steps": list(self.out_steps),
            "violations": [v.to_json() for v in self.violations],
        }


def audit_best_choice(
    seq: RecoloringSequence,
    peo: EliminationOrdering,
    g: Graph,
    strict: bool = True,
) -> AuditReport:
    """Check the structural guarantees of greedily built sequences.

    Three rules per vertex v, over the restriction to v and its out-neighbors:
    1. repeat-pattern: v never appears twice in a row, and v,w,v only as the
       final three restricted steps.
    2. count-bound: with r saved steps and m total out-neighbor steps,
       count(v) <= 1 + ceil((m - r) / 2), checked in exact integer
       arithmetic. Every two saved steps spare one recoloring of v relative
       to the worst case of one recoloring per two neighbor steps.
    3. color-distinctness: around every v,a,b..b,v alternation through both
       out-neighbors, v's colors before, between and after are pairwise
       distinct.

    The ordering must be a perfect elimination ordering of g, else
    InvalidInput as in best choice, with at most two later neighbors per
    vertex, else OmegaTooLarge.

    A vertex with fewer than two steps has no two consecutive steps, so all
    three rules hold for it and every one of its m out-neighbor steps is
    saved; only vertices with at least two steps get a restriction built.

    All violations are collected into the report; with strict=True the first
    of them is raised instead.
    """
    outs, width = _perfect_later(g, peo)
    if width > 2:
        v = next(v for v, later in enumerate(outs) if len(later) > 2)
        raise OmegaTooLarge(f"vertex {v} has {len(outs[v])} later neighbors")
    counts = _verify(g, seq)[1]
    report = _audit(outs, seq.start.colors, seq.steps, counts)
    if strict and report.violations:
        raise report.violations[0]
    return report


def _audit(
    outs: Sequence[Sequence[int]],
    start: Sequence[int],
    steps: Sequence[tuple[int, int]],
    counts: Sequence[int],
) -> AuditReport:
    """audit_best_choice's report, without checking its inputs or replaying the steps.

    `outs` is the later-neighbor table of a perfect elimination ordering with
    at most two later neighbors per vertex, `steps` a valid sequence from the
    colors `start`, and `counts` the number of steps of each vertex, as the
    replay that checked them returns it.
    """
    at: list[list[int]] = [[] for _ in range(len(outs))]
    for t, (x, _) in enumerate(steps):
        at[x].append(t)
    # all out-neighbor steps count as saved until v's own gaps say otherwise
    out_step_counts = [sum(map(counts.__getitem__, later)) for later in outs]
    saved_counts = out_step_counts.copy()

    violations: list[AuditViolation] = []
    for v in [v for v, c in enumerate(counts) if c > 1]:
        idxs = sorted(at[v] + [t for w in outs[v] for t in at[w]])
        trace = [steps[t][0] for t in idxs]
        ell = len(trace)
        # consecutive positions (p, q) of v in the restriction
        pairs = list(pairwise(i for i, x in enumerate(trace) if x == v))

        for p, q in pairs:
            if q == p + 1:
                detail = "vertex recolored twice in a row within its closed out-neighborhood"
                violations.append(AuditViolation(v, RULE_REPEAT, idxs[q], detail))
        for p, q in pairs:
            if q == p + 2 and p != ell - 3:
                detail = "alternation v,w,v occurs before the end of the restriction"
                violations.append(AuditViolation(v, RULE_REPEAT, idxs[q], detail))

        m = out_step_counts[v]
        r = m - sum(min(q - p - 1, 2) for p, q in pairs)
        saved_counts[v] = r
        # counts[v] <= 1 + ceil((m - r)/2), scaled by 2 to stay in integers
        if 2 * counts[v] > 2 + (m - r) + ((m - r) % 2):
            detail = f"count {counts[v]} exceeds 1 + ceil(({m} - {r})/2)"
            violations.append(AuditViolation(v, RULE_BOUND, None, detail))

        if len(outs[v]) == 2:
            colors = [start[v]] + [steps[t][1] for t in at[v]]
            for j, (p, q) in enumerate(pairs):
                between = trace[p + 1 : q]
                if (
                    len(between) >= 2
                    and between[0] != between[1]
                    and all(x == between[1] for x in between[1:])
                ):
                    # v's colors before, between and after its steps at p and q
                    before, mid, after = colors[j : j + 3]
                    if len({before, mid, after}) != 3:
                        detail = (
                            f"colors around alternation not distinct: {before}, {mid}, {after}"
                        )
                        violations.append(AuditViolation(v, RULE_DISTINCT, idxs[q], detail))

    return AuditReport(
        tuple(counts), tuple(saved_counts), tuple(out_step_counts), tuple(violations)
    )
