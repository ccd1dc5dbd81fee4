"""Independent checks of the library's outputs, and a self-test of those checks.

The checker replays every sequence with its own code. It never calls
`verify_sequence` or any other library routine, because the benchmark judges
the library that provides them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional


@dataclass(frozen=True)
class Output:
    """What one timed operation produced, as plain data."""

    start: tuple[int, ...]
    steps: tuple[tuple[int, int], ...]
    distance: Optional[int] = None
    connected: Optional[bool] = None


@dataclass(frozen=True)
class Verdict:
    problems: tuple[str, ...]
    max_count: int


def check_sequence(adjacency, out: Output, alpha, beta, k: int, bound: int) -> Verdict:
    """Replay `out` step by step on the graph given by `adjacency`.

    Checks that the sequence starts at alpha, that every coloring along the
    way is proper, that every step changes a color within 1..k, that it ends
    at beta and that no vertex is recolored more than `bound` times.
    """
    n = len(adjacency)
    cur = list(out.start)
    if cur != list(alpha):
        return Verdict(("sequence does not start at alpha",), 0)
    for u in range(n):
        for w in adjacency[u]:
            if cur[w] == cur[u]:
                return Verdict((f"start coloring is improper at edge ({u}, {w})",), 0)
    counts = [0] * n
    for i, (v, c) in enumerate(out.steps):
        if not 0 <= v < n:
            return Verdict((f"step {i} recolors unknown vertex {v}",), max(counts))
        if not 1 <= c <= k:
            return Verdict((f"step {i} uses color {c} outside 1..{k}",), max(counts))
        if cur[v] == c:
            return Verdict((f"step {i} leaves vertex {v} at color {c}",), max(counts))
        for w in adjacency[v]:
            if cur[w] == c:
                return Verdict(
                    (f"step {i} gives vertex {v} the color {c} of neighbour {w}",),
                    max(counts),
                )
        cur[v] = c
        counts[v] += 1
    problems = []
    if cur != list(beta):
        problems.append("sequence does not end at beta")
    worst = max(counts, default=0)
    if worst > bound:
        problems.append(f"a vertex is recolored {worst} times, above the bound {bound}")
    return Verdict(tuple(problems), worst)


def check_oracle(alpha, beta, out: Output) -> list[str]:
    """Hamming(alpha, beta) <= exact distance <= len(sequence), and connectivity."""
    problems = []
    hamming = sum(a != b for a, b in zip(alpha, beta))
    if out.distance is None:
        problems.append("oracle says beta is unreachable from alpha")
    elif not hamming <= out.distance <= len(out.steps):
        problems.append(
            f"need Hamming {hamming} <= distance {out.distance} <= length {len(out.steps)}"
        )
    if out.connected is not True:
        problems.append(f"oracle says the 5-colorings are not connected ({out.connected!r})")
    return problems


class Tally:
    """Attempted and failed operations, plus the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append("; ".join(problems))

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


class SelfTestError(Exception):
    pass


def _corruptions(out: Output, adjacency, k: int, oracle: bool):
    """Named outputs, each broken in one way the checker must catch."""
    cur = list(out.start)
    improper = noop = None
    for i, (v, c) in enumerate(out.steps):
        if noop is None:
            noop = i, cur[v]
        if improper is None and adjacency[v]:
            improper = i, cur[adjacency[v][0]]
        if improper is not None:
            break
        cur[v] = c

    def with_step(i, color):
        steps = list(out.steps)
        steps[i] = (steps[i][0], color)
        return replace(out, steps=tuple(steps))

    first = out.steps[0]
    yield "improper step", with_step(*improper)
    yield "step without a color change", with_step(*noop)
    yield "color outside 1..k", with_step(0, k + 1)
    yield "unknown vertex", replace(out, steps=((len(adjacency),) + first[1:],) + out.steps[1:])
    yield "wrong end", replace(out, steps=out.steps[:-1])
    yield "wrong start", replace(out, start=(out.start[0] % k + 1,) + out.start[1:])
    if oracle:
        yield "distance above length", replace(out, distance=len(out.steps) + 1)
        yield "distance below Hamming", replace(out, distance=0)
        yield "not connected", replace(out, connected=False)


def self_test(workload, seed: int) -> Tally:
    """Run the workload's check on one real and several corrupted outputs.

    Raises SelfTestError when the checker passes a corrupted output, so a
    checker that never fails cannot let a run pass. The outputs go through
    the same Tally as the timed operations, so its failed_frac is nonzero.
    """
    for attempt in range(20):
        inst = workload.generate(workload.tiny_n, seed * 100 + attempt)
        out = workload.operate(inst)
        moved = inst.alpha.colors != inst.beta.colors
        if moved and len(out.steps) >= 2 and any(inst.g.adjacency[v] for v, _ in out.steps):
            break
    else:
        raise SelfTestError("no tiny instance gave a sequence to corrupt")
    clean = workload.check(inst, out)
    tally = Tally()
    tally.record(clean.problems)
    cases = list(_corruptions(out, inst.g.adjacency, 5, workload.oracle))
    cases.append(("bound exceeded", None))
    for label, bad in cases:
        if bad is None:
            problems = workload.check(inst, out, bound=clean.max_count - 1).problems
        else:
            problems = workload.check(inst, bad).problems
        if not problems:
            raise SelfTestError(f"checker passed a corrupted output: {label}")
        tally.record(problems)
    return tally
