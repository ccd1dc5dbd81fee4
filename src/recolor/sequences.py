"""Recoloring sequences: replay, restriction, and structural audits.

A sequence is a start coloring plus ordered (vertex, new_color) steps. Every
step must change its vertex's color and every intermediate coloring must stay
proper; `verify_sequence` enforces both. The audit checks the structural
properties that every greedily built sequence from `bestchoice` satisfies:
no immediate re-recoloring, a per-vertex count bound driven by saved steps,
and color distinctness around tight alternation patterns. The audit reads
each vertex's out-neighbors N+(v) from one `later_neighbors` table per call,
and rejects an ordering that gives any vertex more than two of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

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
from .graphs import Coloring, Graph, is_proper


@dataclass(frozen=True)
class RecoloringSequence:
    start: Coloring
    steps: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.steps)

    def to_json(self) -> dict:
        return {"start": self.start.to_json(), "steps": [[v, c] for v, c in self.steps]}

    @staticmethod
    @_json_loader
    def from_json(obj: dict) -> "RecoloringSequence":
        return RecoloringSequence(
            Coloring.from_json(obj["start"]),
            tuple((int(v), int(c)) for v, c in obj["steps"]),
        )


def verify_sequence(g: Graph, seq: RecoloringSequence) -> Coloring:
    """Replay the sequence, checking properness and color change at every step.

    Returns the final coloring. Raises ImproperStart, ImproperStep(index) or
    NoOpStep(index).
    """
    if not is_proper(g, seq.start):
        raise ImproperStart("start coloring is not proper")
    k = seq.start.k
    cur = list(seq.start.colors)
    for i, (v, c) in enumerate(seq.steps):
        if not (0 <= v < g.n):
            raise InvalidColoring(f"step {i} recolors unknown vertex {v}")
        if not (1 <= c <= k):
            raise InvalidColoring(f"step {i} uses color {c} outside 1..{k}")
        if cur[v] == c:
            raise NoOpStep(i, f"vertex {v} already has color {c}")
        for w in g.adjacency[v]:
            if cur[w] == c:
                raise ImproperStep(i, f"vertex {v} -> {c} collides with neighbor {w}")
        cur[v] = c
    return Coloring(k, tuple(cur))


def reverse_sequence(seq: RecoloringSequence) -> RecoloringSequence:
    """Undo a valid sequence: replay backwards, restoring pre-step colors.

    Valid whenever the input is valid, since single-vertex recoloring moves
    are symmetric.
    """
    cur = list(seq.start.colors)
    undo = []
    for v, c in seq.steps:
        undo.append((v, cur[v]))
        cur[v] = c
    return RecoloringSequence(Coloring(seq.start.k, tuple(cur)), tuple(reversed(undo)))


def restrict(seq: RecoloringSequence, vertices: Iterable[int]) -> list[tuple[int, int]]:
    """Steps recoloring a vertex in the given set, order preserved."""
    keep = set(vertices)
    return [(v, c) for v, c in seq.steps if v in keep]


def concatenate(parts: list[RecoloringSequence]) -> RecoloringSequence:
    """Chain sequences whose endpoints match up."""
    if not parts:
        raise InvalidInput("nothing to concatenate")
    steps: list[tuple[int, int]] = []
    cur = list(parts[0].start.colors)
    for part in parts:
        if list(part.start.colors) != cur:
            raise InvalidInput("segment does not start where the previous one ended")
        steps.extend(part.steps)
        for v, c in part.steps:
            cur[v] = c
    return RecoloringSequence(parts[0].start, tuple(steps))


def _out_neighbors(g: Graph, peo: EliminationOrdering) -> tuple[tuple[int, ...], ...]:
    """later_neighbors(g, peo), after checking no vertex has more than two."""
    outs = later_neighbors(g, peo)
    for v, later in enumerate(outs):
        if len(later) > 2:
            raise OmegaTooLarge(f"vertex {v} has {len(later)} later neighbors")
    return outs


def _saved_positions(trace: list[int], v: int) -> list[int]:
    """Indices of the restricted trace that are saved for v.

    A position recoloring an out-neighbor is saved when v is untouched up to
    it, untouched after it, or the two immediately preceding restricted steps
    both avoid v (both must exist).
    """
    first_v = next((i for i, x in enumerate(trace) if x == v), None)
    last_v = None
    for i, x in enumerate(trace):
        if x == v:
            last_v = i
    saved = []
    for i, x in enumerate(trace):
        if x == v:
            continue
        untouched_before = first_v is None or i < first_v
        untouched_after = last_v is None or i > last_v
        two_clear = i >= 2 and trace[i - 1] != v and trace[i - 2] != v
        if untouched_before or untouched_after or two_clear:
            saved.append(i)
    return saved


RULE_REPEAT = "repeat-pattern"
RULE_BOUND = "count-bound"
RULE_DISTINCT = "color-distinctness"


@dataclass(frozen=True)
class AuditViolationRecord:
    vertex: int
    rule: str
    index: Optional[int]
    detail: str

    def to_json(self) -> dict:
        return {
            "vertex": self.vertex,
            "rule": self.rule,
            "index": self.index,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class AuditReport:
    """Per-vertex statistics plus any rule violations."""

    counts: tuple[int, ...]
    saved: tuple[int, ...]
    out_steps: tuple[int, ...]
    violations: tuple[AuditViolationRecord, ...] = field(default=())

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

    With strict=True the first violation raises AuditViolation; otherwise all
    violations are collected into the report.
    """
    outs = _out_neighbors(g, peo)
    verify_sequence(g, seq)
    steps = seq.steps
    n = g.n

    # restricted step indices per closed out-neighborhood
    member_of: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        member_of[v].append(v)
        for w in outs[v]:
            member_of[w].append(v)
    restricted: list[list[int]] = [[] for _ in range(n)]
    for t, (x, _) in enumerate(steps):
        for v in member_of[x]:
            restricted[v].append(t)

    counts = [0] * n
    for x, _ in steps:
        counts[x] += 1

    violations: list[AuditViolationRecord] = []

    def report(vertex: int, rule: str, index: Optional[int], detail: str):
        if strict:
            raise AuditViolation(vertex, rule, index, detail)
        violations.append(AuditViolationRecord(vertex, rule, index, detail))

    saved_counts = [0] * n
    out_step_counts = [0] * n
    for v in range(n):
        idxs = restricted[v]
        trace = [steps[t][0] for t in idxs]
        ell = len(trace)

        for i in range(ell - 1):
            if trace[i] == v and trace[i + 1] == v:
                report(
                    v,
                    RULE_REPEAT,
                    idxs[i + 1],
                    "vertex recolored twice in a row within its closed out-neighborhood",
                )
        for i in range(ell - 2):
            if trace[i] == v and trace[i + 1] != v and trace[i + 2] == v:
                if i != ell - 3:
                    report(
                        v,
                        RULE_REPEAT,
                        idxs[i + 2],
                        "alternation v,w,v occurs before the end of the restriction",
                    )

        saved = _saved_positions(trace, v)
        r = len(saved)
        m = sum(counts[w] for w in outs[v])
        saved_counts[v] = r
        out_step_counts[v] = m
        # counts[v] <= 1 + ceil((m - r)/2), scaled by 2 to stay in integers
        if 2 * counts[v] > 2 + (m - r) + ((m - r) % 2):
            report(
                v,
                RULE_BOUND,
                None,
                f"count {counts[v]} exceeds 1 + ceil(({m} - {r})/2)",
            )

        if len(outs[v]) == 2:
            v_positions = [i for i, x in enumerate(trace) if x == v]
            for j, (p, q) in enumerate(zip(v_positions, v_positions[1:])):
                between = trace[p + 1 : q]
                if (
                    len(between) >= 2
                    and between[0] != between[1]
                    and all(x == between[1] for x in between[1:])
                ):
                    # v's color before step p was set by its previous step
                    before = (
                        steps[idxs[v_positions[j - 1]]][1] if j else seq.start.colors[v]
                    )
                    mid = steps[idxs[p]][1]
                    after = steps[idxs[q]][1]
                    if len({before, mid, after}) != 3:
                        report(
                            v,
                            RULE_DISTINCT,
                            idxs[q],
                            f"colors around alternation not distinct: "
                            f"{before}, {mid}, {after}",
                        )

    return AuditReport(
        tuple(counts), tuple(saved_counts), tuple(out_step_counts), tuple(violations)
    )
