"""Hot kernels for the exhaustive state-space search, vectorized with numpy.

This module owns the state space. Colorings are packed as base-k integers
(`encode`: digit of vertex v = color-1, weight k^v), so in C order the digit
of vertex v is axis n-1-v of a `(k,)*n` array. `proper_mask` builds the
properness mask one vertex at a time, from vertex 0 up (`_grown`), and
`state_space` keeps the last one, read-only, with its count of proper states,
counted once.

Two searches run over the proper states, one for each question the oracle
answers. `reaches_all` only tells whether the proper states are connected,
and does it densely on its own packed mask (`_packed`: vertex 0's digit as a
bit, k^(n-1) lines of ceil(k/8) bytes), which nothing else reads. It closes
the reached set along one axis at a time and stops on one count per sweep,
the packed lines that hold a reached state: all the non-empty lines (yes),
or the last sweep's count, after which the set can no longer grow (no).
`bfs_meet` (one distance) is a sparse frontier search from both ends on the
cached mask, which rewrites one digit of each frontier code (`_rewrites`) in
batches of at most `_BATCH` codes: whole vertices with all k colours where
they fit, and runs of one vertex's colours where they do not.

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
    """The read-only `proper_mask` of (n, k, edges) and its count of proper states.

    Only the last space is kept: k^n bytes. `edges` is a tuple, so it hashes.
    """
    mask = proper_mask(n, k, edges)
    mask.flags.writeable = False
    return mask, int(np.count_nonzero(mask))


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

    A neighbour below `first` is a bit of `_packed`'s lines, whose `base` is
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


# Most candidate codes a `_rewrites` batch holds (256 KiB of int64), or one per frontier code
_BATCH = 1 << 15


def _rewrites(frontier: np.ndarray, n: int, k: int):
    """Every code one digit away from a frontier code, or equal to it.

    One rule, at most `_BATCH` codes a batch, sizes the batches at two
    granularities, laid out (vertex, colour, code). Whole vertices, each with
    all k colours, are grouped as many to one broadcast as fit; a vertex
    whose k colours do not fit is its own group, and its colours are split
    into runs of `_BATCH // |frontier|`, at least one, so no batch holds more
    than max(`_BATCH`, |frontier|) codes at any k. Each group's base codes
    are computed once. A small frontier gets one broadcast for all n
    vertices, which saves the Python overhead of n batches on the many small
    levels; a large one gets a batch per vertex or colour run, so `bfs_meet`
    marks the states each batch reaches before it gathers the next, the
    later batches of the level skip them, and an early meeting stops before
    the rest are built. Rewrites of one vertex to two different colours
    differ in that digit and never coincide, so marking between them skips
    nothing, but it bounds the memory. One broadcast over every vertex, even
    cut into row chunks, keeps every repeat until the sort and made
    `bfs_meet` 6-11% slower; one batch per vertex with no `_BATCH` made it
    about 50% slower at 5^8, as the many small levels pay n batches each.
    """
    w = (k ** np.arange(n, dtype=np.int64))[:, None]
    colours = (np.arange(k, dtype=np.int64) * w)[:, :, None]
    step = max(1, _BATCH // (frontier.size * k))
    run = max(1, _BATCH // frontier.size)
    for v in range(0, n, step):
        pv = w[v : v + step]
        base = (frontier - frontier // pv % k * pv)[:, None, :]
        for c in range(0, k, run):
            yield (base + colours[v : v + step, c : c + run]).reshape(-1)


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


def _packed(n: int, k: int, edges) -> np.ndarray:
    """The proper mask of n >= 1 vertices packed, with vertex 0's digit as a bit.

    A `(k^(n-1), ceil(k/8))` uint8 array where bit c%8 of byte c//8 on line i
    is state i*k + c, grown over vertices 1..n-1 from one line with bits
    0..k-1 set.
    """
    line = np.packbits(np.arange(8 * ((k + 7) // 8)) < k, bitorder="little")
    return _grown(line, 1, n, k, edges).reshape(-1, line.size)


def reaches_all(n: int, k: int, edges) -> bool:
    """Whether every proper k-coloring of (n, edges) reaches every other by single-digit changes.

    States that differ only in vertex v's digit are pairwise adjacent, so the
    proper states on one line along axis v form a clique: once one is reached,
    all are. The search starts from the first non-empty line of `_packed`,
    whole, and each sweep closes the reached set along every axis in turn, so
    every state it adds is one move from a reached state and the set only
    grows. The empty graph's one state is trivially connected.

    The search ends on one count, read once per sweep before its vertex-0
    step: the packed lines that hold a reached state. When that equals the
    non-empty lines, every proper state shares a line with a reached one
    (True), which also covers a space of one proper state or none. When it
    equals the last sweep's count, the set of hit lines is the same as then,
    since it only grows; the vertex-0 step turns the reached set into exactly
    those lines, so this sweep would return the set the last one returned,
    and as every step of it only adds, that set is closed along every axis:
    a whole component that misses a non-empty line (False).

    The reached set is packed like the mask, so a sweep reads and writes
    k^(n-1) * ceil(k/8) bytes per array. Along vertex 0 a packed line that
    holds a reached bit becomes the line of `packed`, by one multiply with
    the bool hit mask (`np.copyto` with `where` took about 20 times as long).
    Along vertex v >= 1 a sweep ORs the line's k packed slices, bytewise, and
    ANDs the result, broadcast, with `packed`.

    An axis is cheap to sweep when its slices are long runs: of the m = n-1
    line digits, the high ceil(m/2) are swept in the natural
    `(k^hi, k^lo, bytes)` layout, and the low floor(m/2) in a transposed
    `(k^lo, k^hi, bytes)` copy, where they are outermost and each line keeps
    its bytes together. The transposed `packed` is built once, and the
    reached set is copied between layouts into preallocated arrays, with no
    temporary.
    """
    if not n:
        return True
    packed = _packed(n, k, edges)
    width = packed.shape[1]
    m = n - 1
    lo, hi = m // 2, m - m // 2
    hit = packed.any(axis=-1, keepdims=True)
    filled, count = np.count_nonzero(hit), 0
    reached = np.zeros_like(packed)
    reached[hit.argmax()] = packed[hit.argmax()]
    grid = reached.reshape(k**hi, k**lo, width)
    flipped = np.empty((k**lo, k**hi, width), dtype=np.uint8)
    flipped_proper = np.ascontiguousarray(packed.reshape(k**hi, k**lo, width).transpose(1, 0, 2))
    line = np.empty(k ** max(m - 1, 0) * width, dtype=np.uint8)
    while True:
        np.any(reached, axis=-1, keepdims=True, out=hit)
        count, last = np.count_nonzero(hit), count
        # every non-empty line hit (yes), or no line added by the last sweep (no)
        if count in (filled, last):
            return bool(count == filled)
        np.multiply(packed, hit, out=reached)
        # line digit j is vertex j + 1
        for j in range(lo, m):
            _close_lines(reached, packed, line, k ** (m - 1 - j), k, k**j * width)
        np.copyto(flipped, grid.transpose(1, 0, 2))
        for j in range(lo):
            _close_lines(flipped, flipped_proper, line, k ** (lo - 1 - j), k, k ** (hi + j) * width)
        np.copyto(grid, flipped.transpose(1, 0, 2))


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
