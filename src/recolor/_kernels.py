"""Hot kernels for the exhaustive state-space search, vectorized with numpy.

This module owns the state space. Colorings are packed as base-k integers
(`encode`: digit of vertex v = color-1, weight k^v), so in C order the digit
of vertex v is axis n-1-v of a `(k,)*n` array. `state_space` keeps the last
read-only properness mask with its count of proper states, counted once.

Three searches run over the proper states. `reach_count` only counts a
component, and does it densely, closing the reached set along one axis at a
time, and stops as soon as the count is complete. `bfs_levels` (the depth
and size of one source's component) and `bfs_meet` (one distance) are sparse
frontier searches that rewrite one digit of each frontier code
(`_rewrites`): a small frontier for every (vertex, colour) pair in one
broadcast, a large one per pair.

This is the package's only numpy importer. `oracle` imports it inside each
call, after its checks, so numpy never loads for the pipeline.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def encode(colors: tuple[int, ...], k: int) -> int:
    """The packed state of `colors`; unchecked, the caller has run `require_proper` with k."""
    code = 0
    for c in reversed(colors):
        code = code * k + c - 1
    return code


@lru_cache(maxsize=1)
def state_space(n: int, k: int, edges: tuple) -> tuple[np.ndarray, int]:
    """The read-only `proper_mask` of (n, k, edges) and its number of proper states.

    Only the last one is kept: k^n bytes. `edges` is a tuple, as a `Graph`
    built with list rows cannot be hashed.
    """
    mask = proper_mask(n, k, edges)
    mask.flags.writeable = False
    return mask, int(np.count_nonzero(mask))


def proper_mask(n: int, k: int, edges) -> np.ndarray:
    """Boolean mask over all k^n packed states: True where the coloring is proper.

    Each edge ANDs in `~np.eye(k)` over the digits of its two endpoints,
    broadcast over the other digits, by clearing the k slices where both
    digits are equal: k^(n-1) writes per edge, no reads and no division. The
    view groups the digits above, between and below the endpoints into one
    axis each, so it has 5 axes for any n (numpy allows at most 64).
    """
    mask = np.ones(k**n, dtype=np.bool_)
    for u, v in edges:
        lo, hi = sorted((u, v))
        view = mask.reshape(k ** (n - 1 - hi), k, k ** (hi - lo - 1), k, k**lo)
        for c in range(k):
            view[:, c, :, c, :] = False
    return mask


# Most candidate codes one broadcast of `_rewrites` may hold (256 KiB of int64)
_BATCH = 1 << 15


def _rewrites(frontier: np.ndarray, n: int, k: int):
    """Every code one digit away from a frontier code, or equal to it.

    A frontier whose n*k rewrites fit in `_BATCH` codes yields them in one
    array, from one broadcast laid out (vertex, colour, code), so the inner
    loop runs over the frontier: this saves the Python overhead of n*k
    batches on the many small levels. A larger frontier yields one array per
    (vertex, colour), so a search marks the states each batch reaches before
    it gathers the next and the later batches of the level skip them; one
    broadcast over all n*k pairs would keep every repeat until the sort, and
    made full searches slower.
    """
    weights = k ** np.arange(n, dtype=np.int64)
    if frontier.size * n * k <= _BATCH:
        w = weights[:, None]
        base = frontier - frontier // w % k * w
        colours = (np.arange(k, dtype=np.int64) * w)[:, :, None]
        yield (base[:, None, :] + colours).reshape(-1)
        return
    for pv in weights:
        base = frontier - ((frontier // pv) % k) * pv
        for d in range(k):
            yield base + d * pv


def _union(parts: list) -> np.ndarray:
    """Sorted union of the batches of one level.

    One batch can reach a state from several frontier states, so sort and drop
    repeats (numpy 2.4's np.unique took about 20 times as long).
    """
    codes = np.sort(np.concatenate(parts))
    return codes[np.concatenate(([True], codes[1:] != codes[:-1]))]


def bfs_levels(start: int, proper: np.ndarray, n: int, k: int) -> tuple[int, int]:
    """BFS over proper states reachable from `start` by single-digit changes.

    Returns `(levels, reached)`: the index of the last non-empty level, which
    is the largest distance from `start`, and the number of states reached.
    Its one k^n array is the bool `fresh` mark, so a search takes about one
    byte per state plus a level's candidates.
    """
    # proper and not yet reached: one gather per batch of `_rewrites`, and a
    # state accepted by one batch is skipped by the later batches of its level
    fresh = proper.copy()
    fresh[start] = False
    frontier = np.array([start], dtype=np.int64)
    level = 0
    reached = 1
    while True:
        parts = []
        for cand in _rewrites(frontier, n, k):
            cand = cand[fresh[cand]]
            if cand.size:
                fresh[cand] = False
                parts.append(cand)
        if not parts:
            return level, reached
        frontier = _union(parts)
        level += 1
        reached += frontier.size


def _close_lines(reached, proper, line, outer: int, k: int, inner: int) -> None:
    """Add every proper state on a line through a reached state, along one axis.

    Both flat arrays are viewed as `(outer, k, inner)` with the digit in the
    middle; `line` is scratch of outer*inner entries.
    """
    view = reached.reshape(outer, k, inner)
    hit = line.reshape(outer, inner)
    np.logical_or.reduce(view, axis=1, out=hit)
    np.logical_and(hit[:, None, :], proper.reshape(outer, k, inner), out=view)


def reach_count(start: int, proper: np.ndarray, total: int, n: int, k: int) -> int:
    """How many of the `total` proper states the proper `start` reaches by single-digit changes.

    States that differ only in vertex v's digit are pairwise adjacent, so the
    proper states on one line along axis v form a clique: once one is reached,
    all are. A sweep closes the reached set along every axis in turn, ORing a
    line's k slices and ANDing the result, broadcast, with `proper`. Every
    state it adds is one move from a reached state, and a sweep that adds
    nothing leaves the set closed under moves, so sweeps repeat until one adds
    nothing or every proper state is reached; the count is exact. The set is
    counted after each half of a sweep too, so a component that is complete
    halfway skips the other half.

    An axis is cheap to sweep when its slices are long runs: the high
    ceil(n/2) digits are swept in the natural `(k^hi, k^lo)` layout, and the
    low floor(n/2) digits in a transposed `(k^lo, k^hi)` copy, where they are
    outermost. The transposed `proper` is built once, and the reached set is
    copied between layouts into preallocated arrays, with no temporary.
    """
    lo, hi = n // 2, n - n // 2
    reached = np.zeros_like(proper)
    reached[start] = True
    grid = reached.reshape(k**hi, k**lo)
    flipped = np.empty((k**lo, k**hi), dtype=np.bool_)
    flat = flipped.reshape(-1)
    flat_proper = np.ascontiguousarray(proper.reshape(k**hi, k**lo).T).reshape(-1)
    line = np.empty(k ** max(n - 1, 0), dtype=np.bool_)
    count = 1
    while count < total:
        for v in range(lo, n):
            _close_lines(reached, proper, line, k ** (n - 1 - v), k, k**v)
        if np.count_nonzero(reached) == total:
            return total
        np.copyto(flipped, grid.T)
        for v in range(lo):
            _close_lines(flat, flat_proper, line, k ** (lo - 1 - v), k, k ** (hi + v))
        np.copyto(grid, flipped.T)
        grown = int(np.count_nonzero(reached))
        if grown == count:
            break
        count = grown
    return count


def bfs_meet(start: int, goal: int, proper: np.ndarray, n: int, k: int) -> int | None:
    """Distance from `start` to `goal` over proper states, None if unreachable.

    Grows a ball around each endpoint one whole level at a time, always the
    side with the smaller frontier, and stops at the first candidate the other
    side has reached. The one k^n array it allocates is an int8 `mark`: -1 for
    improper states, 0 for unseen ones, 1 for states reached from `start` and
    2 for states reached from `goal`.

    Exactness: let the balls have radii a and b. Before each expansion they
    are disjoint, so the distance is more than a + b (a shortest path would
    have a state within a of `start` and within b of `goal`). Growing one side
    from level a to a + 1 and meeting a state of the other ball proves the
    distance is at most a + b + 1, so the first meeting gives it exactly. A
    level that reaches nothing new means that side's whole component has been
    searched without touching the other endpoint.
    """
    if start == goal:
        return 0
    mark = proper.view(np.int8) - 1
    mark[start] = 1
    mark[goal] = 2
    fronts = {1: np.array([start], dtype=np.int64), 2: np.array([goal], dtype=np.int64)}
    depth = {1: 0, 2: 0}
    while True:
        side = 1 if fronts[1].size <= fronts[2].size else 2
        other = 3 - side
        parts = []
        for cand in _rewrites(fronts[side], n, k):
            seen = mark[cand]
            if (seen == other).any():
                return depth[1] + depth[2] + 1
            cand = cand[seen == 0]
            if cand.size:
                mark[cand] = side
                parts.append(cand)
        if not parts:
            return None
        fronts[side] = _union(parts)
        depth[side] += 1


def orbit_sources(mask: np.ndarray, n: int, k: int) -> np.ndarray:
    """The proper codes whose colours first appear in the order 1, 2, 3, ...

    That is digit[v] <= max(digit[:v]) + 1 for every v, one code per orbit of
    the colour permutations. The rule is tested one digit at a time against
    a running maximum, updated only for codes still kept. Such a code's
    maximum is below n and k, so below 64 wherever numpy can index the
    states, and fits int8: with the codes and one int64 digit buffer, the
    selection peaks at about 25 bytes per proper state.
    """
    codes = np.flatnonzero(mask)
    keep = np.ones(codes.size, dtype=np.bool_)
    top = np.full(codes.size, -1, dtype=np.int8)
    digit = np.empty_like(codes)
    for v in range(n):
        np.floor_divide(codes, k**v, out=digit)
        np.remainder(digit, k, out=digit)
        keep &= digit <= top + 1
        np.maximum(top, digit, out=top, where=keep)
    return codes[keep]
