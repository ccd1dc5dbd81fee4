"""Hot kernels for the exhaustive state-space search, vectorized with numpy.

This module owns the state space. Colorings are packed as base-k integers
(`encode`: digit of vertex v = color-1, weight k^v), so in C order the digit
of vertex v is axis n-1-v of a `(k,)*n` array. `state_space` builds the
properness mask one vertex at a time, from vertex 0 up (`_grown`), and the
same mask packed, with vertex 0's digit as a bit (k^(n-1) lines of
ceil(k/8) bytes); it keeps the last read-only pair with its count of proper
states, counted once.

Two searches run over the proper states, one for each question the oracle
answers. `reaches_all` only tells whether one state reaches them all, and
does it densely on the packed mask. It closes the reached set along one
axis at a time and answers yes as soon as the set equals the packed mask,
and no when a sweep adds nothing. `bfs_meet` (one distance) is a sparse
frontier search from both ends that rewrites one digit of each frontier
code (`_rewrites`), in broadcasts of as many whole vertices, each with all
k colours, as fit in `_BATCH` codes, and at least one.

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
def state_space(n: int, k: int, edges: tuple) -> tuple[np.ndarray, np.ndarray, int]:
    """The read-only `proper_mask` of (n, k, edges), its packed lines and its proper states' count.

    The packed lines hold vertex 0's digit in bits: a `(k^(n-1), ceil(k/8))`
    uint8 array where bit c%8 of byte c//8 on line i is state i*k + c. For
    n = 0, whose one state has no digit, it is one line of one byte with
    bit 0 set, at any k. Only the last space is kept: about
    k^n * (1 + ceil(k/8)/k) bytes. `edges` is a tuple, so it hashes.
    """
    mask = proper_mask(n, k, edges)
    width = (k + 7) // 8 if n else 1
    line = np.packbits(np.arange(8 * width) < (k if n else 1), bitorder="little")
    packed = _grown(line, 1, n, k, edges).reshape(-1, width)
    mask.flags.writeable = packed.flags.writeable = False
    return mask, packed, int(np.count_nonzero(mask))


def proper_mask(n: int, k: int, edges) -> np.ndarray:
    """Boolean mask over all k^n packed states: True where the coloring is proper."""
    return _grown(np.ones(1, dtype=np.bool_), 0, n, k, edges)


def _grown(base: np.ndarray, first: int, n: int, k: int, edges) -> np.ndarray:
    """`base`, a table for the vertices below `first`, grown by vertices first..n-1.

    Vertices are added from the innermost digit up. Adding v copies the table
    into k rows, one per colour c of v, and in row c clears the states where
    an earlier neighbour u also has digit c: in the view `(k, k^(v-1-u), k,
    cell * k^(u-first))`, where cell is `base.size`, the slice `[c, :, c, :]`.
    So an edge (u, v) with u < v costs k^v writes, when v is added, where
    one clear over the whole space costs k^(n-1), and each state is tested
    against each edge once, with no reads and no division; the view has 4
    axes for any n (numpy allows at most 64).

    A neighbour below `first` is a bit of the packed lines, whose `base` is
    one line of ceil(k/8) bytes with vertex 0's colours as bits: row c
    clears bit c%8 of byte c//8 on every line.
    """
    below: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        lo, hi = sorted((u, v))
        below[hi].append(lo)
    cell = base.size
    table = base
    for v in range(first, n):
        rows = np.empty((k, table.size), dtype=table.dtype)
        rows[:] = table
        for u in below[v]:
            if u < first:
                for c in range(k):
                    rows[c].reshape(-1, cell)[:, c // 8] &= ~np.uint8(1 << c % 8)
                continue
            view = rows.reshape(k, k ** (v - 1 - u), k, cell * k ** (u - first))
            for c in range(k):
                view[c, :, c, :] = 0
        table = rows.reshape(-1)
    return table


# Most candidate codes a `_rewrites` broadcast of two or more vertices holds (256 KiB of int64)
_BATCH = 1 << 15


def _rewrites(frontier: np.ndarray, n: int, k: int):
    """Every code one digit away from a frontier code, or equal to it.

    One rule sizes the batches: each is one broadcast laid out (vertex,
    colour, code) over as many consecutive vertices as fit in `_BATCH`
    codes, and always at least one vertex, with all k colours. A small
    frontier gets one broadcast for all n vertices, which saves the Python
    overhead of n batches on the many small levels; a large one gets one
    broadcast per vertex, so `bfs_meet` marks the states each batch reaches
    before it gathers the next, and the later batches of the level skip
    them. Rewrites of one vertex to two different colours differ in that
    digit and never coincide, so marking between one vertex's colours would
    skip nothing more. One broadcast over every vertex, even cut into row
    chunks, keeps every repeat until the sort and made `bfs_meet` 6-11%
    slower; one batch per vertex with no `_BATCH` made it about 50% slower
    at 5^8, as the many small levels pay n batches each.
    """
    w = (k ** np.arange(n, dtype=np.int64))[:, None]
    colours = (np.arange(k, dtype=np.int64) * w)[:, :, None]
    step = max(1, _BATCH // (frontier.size * k))
    for v in range(0, n, step):
        pv = w[v : v + step]
        base = frontier - frontier // pv % k * pv
        yield (base[:, None, :] + colours[v : v + step]).reshape(-1)


def _union(parts: list) -> np.ndarray:
    """Sorted union of the batches of one level.

    One batch can reach a state from several frontier states, so sort and drop
    repeats (numpy 2.4's np.unique took about 20 times as long).
    """
    codes = np.sort(np.concatenate(parts))
    return codes[np.concatenate(([True], codes[1:] != codes[:-1]))]


def _close_lines(reached, proper, line, outer: int, k: int, inner: int) -> None:
    """Add every proper state on a line through a reached state, along one axis.

    Both flat arrays are viewed as `(outer, k, inner)` with the digit in the
    middle; `line` is scratch of outer*inner bytes.
    """
    view = reached.reshape(outer, k, inner)
    hit = line.reshape(outer, inner)
    np.bitwise_or.reduce(view, axis=1, out=hit)
    np.bitwise_and(hit[:, None, :], proper.reshape(outer, k, inner), out=view)


def reaches_all(start: int, packed: np.ndarray, n: int, k: int) -> bool:
    """Whether the proper `start` reaches every proper state by single-digit changes.

    `packed` is `state_space`'s packed lines, with vertex 0's digit in bits.
    The space has at least two proper states, so n >= 1.

    States that differ only in vertex v's digit are pairwise adjacent, so the
    proper states on one line along axis v form a clique: once one is reached,
    all are. A sweep closes the reached set along every axis in turn. Every
    state it adds is one move from a reached state, and a sweep that adds
    nothing leaves the set closed under moves, so sweeps repeat until one adds
    nothing (False) or every proper state is reached (True).

    The reached set is packed the same way, so a sweep reads and writes
    k^(n-1) * ceil(k/8) bytes per array. Along vertex 0 a packed line that
    holds a reached bit becomes the line of `packed`, by one multiply with
    the bool hit mask (`np.copyto` with `where` took about 20 times as
    long). Along vertex v >= 1 a sweep ORs the line's k packed slices,
    bytewise, and ANDs the result, broadcast, with `packed`. The reached set
    is a subset of `packed`, so it is complete exactly when the two arrays
    are equal, which is tested after each half of a sweep; a sweep that
    leaves it equal to its copy from before the sweep ends the search.

    An axis is cheap to sweep when its slices are long runs: of the m = n-1
    line digits, the high ceil(m/2) are swept in the natural
    `(k^hi, k^lo, bytes)` layout, and the low floor(m/2) in a transposed
    `(k^lo, k^hi, bytes)` copy, where they are outermost and each line keeps
    its bytes together. The transposed `packed` is built once, and the
    reached set is copied between layouts into preallocated arrays, with no
    temporary.
    """
    width = packed.shape[1]
    m = n - 1
    lo, hi = m // 2, m - m // 2
    reached = np.zeros_like(packed)
    reached[start // k, start % k // 8] = 1 << start % k % 8
    before = np.empty_like(packed)
    grid = reached.reshape(k**hi, k**lo, width)
    flipped = np.empty((k**lo, k**hi, width), dtype=np.uint8)
    flipped_proper = np.ascontiguousarray(packed.reshape(k**hi, k**lo, width).transpose(1, 0, 2))
    line = np.empty(k ** max(m - 1, 0) * width, dtype=np.uint8)
    while True:
        np.copyto(before, reached)
        np.multiply(packed, reached.any(axis=-1, keepdims=True), out=reached)
        # line digit j is vertex j + 1
        for j in range(lo, m):
            _close_lines(reached, packed, line, k ** (m - 1 - j), k, k**j * width)
        if np.array_equal(reached, packed):
            return True
        np.copyto(flipped, grid.transpose(1, 0, 2))
        for j in range(lo):
            _close_lines(flipped, flipped_proper, line, k ** (lo - 1 - j), k, k ** (hi + j) * width)
        if np.array_equal(flipped, flipped_proper):
            return True
        np.copyto(grid, flipped.transpose(1, 0, 2))
        if np.array_equal(reached, before):
            return False


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
    distance is at most a + b + 1, so the first meeting gives it exactly.
    Only a + b is read, so `grown` counts the levels grown on both sides. A
    level that reaches nothing new means that side's whole component has been
    searched without touching the other endpoint.
    """
    if start == goal:
        return 0
    mark = proper.view(np.int8) - 1
    mark[start] = 1
    mark[goal] = 2
    fronts = {1: np.array([start], dtype=np.int64), 2: np.array([goal], dtype=np.int64)}
    grown = 0
    while True:
        side = 1 if fronts[1].size <= fronts[2].size else 2
        other = 3 - side
        parts = []
        for cand in _rewrites(fronts[side], n, k):
            seen = mark[cand]
            if (seen == other).any():
                return grown + 1
            cand = cand[seen == 0]
            if cand.size:
                mark[cand] = side
                parts.append(cand)
        if not parts:
            return None
        fronts[side] = _union(parts)
        grown += 1
