"""Recoloring sequences: replay, compaction and structural audits.

A sequence is a start coloring plus ordered (vertex, new_color) steps, each a
pair of ints with a color in 1..k, as `RecoloringSequence` checks when built.
Every step must change its vertex's color and every intermediate coloring must
stay proper; `verify_sequence` enforces both. The audit checks the structural
properties that every greedily built sequence from `bestchoice` satisfies: no
immediate re-recoloring, a per-vertex count bound driven by saved steps, and
color distinctness around tight alternation patterns. Its core `_audit` reads
each vertex's out-neighbors N+(v) from one `later_neighbors` table, which
`audit_best_choice` builds once per call and rejects if it gives any vertex
more than two of them.

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

from .decomposition import EliminationOrdering, later_neighbors
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
from .graphs import Coloring, Graph, _json_int, _malformed_pair, is_proper


@dataclass(frozen=True)
class RecoloringSequence:
    start: Coloring
    steps: tuple[tuple[int, int], ...]

    def __post_init__(self):
        start, steps = self.start, self.steps
        if not isinstance(start, Coloring):
            raise InvalidInput(f"sequence start must be a Coloring, got {start!r}")
        if not isinstance(steps, tuple):
            raise InvalidInput(f"sequence steps must be a tuple, got {steps!r}")
        k = start.k
        # only when a step is not a pair of ints are the steps scanned again, to name it
        try:
            for i, (v, c) in enumerate(steps):
                if type(v) is not int or type(c) is not int:
                    break
                if not 0 < c <= k:
                    raise InvalidColoring(f"step {i} uses color {c} outside 1..{k}")
            else:
                return
        except (TypeError, ValueError):
            pass
        raise _malformed_pair(steps, "step {0} {1!r} is not a (vertex, color) pair of integers")

    def __len__(self) -> int:
        return len(self.steps)

    def to_json(self) -> dict:
        return {"start": self.start.to_json(), "steps": [[v, c] for v, c in self.steps]}

    @staticmethod
    @_json_loader
    def from_json(obj: dict) -> "RecoloringSequence":
        return RecoloringSequence(
            Coloring.from_json(obj["start"]),
            tuple((_json_int(v), _json_int(c)) for v, c in obj["steps"]),
        )


def verify_sequence(g: Graph, seq: RecoloringSequence) -> Coloring:
    """Replay the sequence, checking properness and color change at every step.

    Returns the final coloring. Raises ImproperStart, ImproperStep(index) or
    NoOpStep(index).
    """
    if not is_proper(g, seq.start):
        raise ImproperStart("start coloring is not proper")
    return _replay(g, seq)


def _replay(g: Graph, seq: RecoloringSequence) -> Coloring:
    """verify_sequence's step loop, for a start coloring already known to be proper."""
    cur = list(seq.start.colors)
    for i, (v, c) in enumerate(seq.steps):
        if not (0 <= v < g.n):
            raise InvalidColoring(f"step {i} recolors unknown vertex {v}")
        if cur[v] == c:
            raise NoOpStep(i, f"vertex {v} already has color {c}")
        for w in g.adjacency[v]:
            if cur[w] == c:
                raise ImproperStep(i, f"vertex {v} -> {c} collides with neighbor {w}")
        cur[v] = c
    return Coloring(seq.start.k, tuple(cur))


def _replayed(g: Graph, start: Coloring, steps: list, end: tuple) -> RecoloringSequence:
    """The sequence of `steps` from `start`, after one replay shows it ends at `end`.

    Every caller has checked that `start` is proper on g, so only the steps
    are replayed.
    """
    seq = RecoloringSequence(start, tuple(steps))
    if _replay(g, seq).colors != end:
        raise AssertionError("sequence does not end at the target coloring")
    return seq


def _compact(
    adjacency: Sequence[Sequence[int]], start: Sequence[int], steps: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """A valid subsequence of the valid sequence `steps` from `start`, with the same end.

    One pass in order. A vertex's last kept step stays pending until its next
    step. If no neighbor has had a kept step since the pending one, the
    pending step is dropped, and the next step is dropped too when it returns
    the vertex to its color from before the pending step. The neighbors stand
    still over the dropped interval, so the vertex's earlier color stays
    proper there, and only non-neighbors move in it, so their steps stay
    proper. After each input step the kept steps reach the same coloring as
    the input, so the end coloring is unchanged. The pass reads each step's
    neighbors once, so it costs the sum of count(v) * deg(v), and it only
    removes steps, so no vertex's count rises.
    """
    # before[v] is v's color before its pending step, or its current color
    # when it has none. moved[v] is the index of v's last kept step; when both
    # steps go it keeps the dropped step's index, since resetting it to -1
    # would let a neighbor drop a step across an earlier step of v that stays
    before = list(start)
    pending = [-1] * len(start)
    moved = [-1] * len(start)
    kept: list = []
    for i, step in enumerate(steps):
        v, c = step
        p = pending[v]
        if p >= 0:
            t = moved[v]
            for w in adjacency[v]:
                if moved[w] > t:
                    before[v] = kept[p][1]
                    break
            else:
                kept[p] = None
                if c == before[v]:
                    pending[v] = -1
                    continue
        pending[v] = len(kept)
        moved[v] = i
        kept.append(step)
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

    A vertex with fewer than two steps has no two consecutive steps, so all
    three rules hold for it and every one of its m out-neighbor steps is
    saved; only vertices with at least two steps get a restriction built.

    All violations are collected into the report; with strict=True the first
    of them is raised instead.
    """
    outs = later_neighbors(g, peo)
    if max(map(len, outs), default=0) > 2:
        v = next(v for v, later in enumerate(outs) if len(later) > 2)
        raise OmegaTooLarge(f"vertex {v} has {len(outs[v])} later neighbors")
    verify_sequence(g, seq)
    report = _audit(outs, seq.start.colors, seq.steps)
    if strict and report.violations:
        raise report.violations[0]
    return report


def _audit(
    outs: Sequence[Sequence[int]], start: Sequence[int], steps: Sequence[tuple[int, int]]
) -> AuditReport:
    """audit_best_choice's report, without checking its inputs or replaying the steps.

    `outs` is the later-neighbor table of a perfect elimination ordering with
    at most two later neighbors per vertex, and `steps` a valid sequence from
    the colors `start`.
    """
    at: list[list[int]] = [[] for _ in range(len(outs))]
    for t, (x, _) in enumerate(steps):
        at[x].append(t)
    counts = list(map(len, at))
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
