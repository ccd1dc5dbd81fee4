"""Hot kernels for the exhaustive state-space search, vectorized with numpy.

Colorings are packed as base-k integers (digit of vertex v = color-1, weight
k^v), so in C order the digit of vertex v is axis n-1-v of a `(k,)*n` array.
"""

from __future__ import annotations

import numpy as np


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


def bfs_levels(start: int, proper: np.ndarray, n: int, k: int) -> np.ndarray:
    """BFS over proper states reachable from `start` by single-digit changes.

    Returns the distance to every state, -1 where unreachable.
    """
    pows = k ** np.arange(n, dtype=np.int64)
    dist = np.full(proper.shape[0], -1, dtype=np.int32)
    dist[start] = 0
    # proper and not yet reached: one gather per (vertex, colour) batch, and a
    # state accepted by one batch is skipped by the later batches of its level
    fresh = proper.copy()
    fresh[start] = False
    frontier = np.array([start], dtype=np.int64)
    level = 0
    while True:
        level += 1
        parts = []
        for v in range(n):
            pv = pows[v]
            base = frontier - ((frontier // pv) % k) * pv
            for d in range(k):
                cand = base + d * pv
                cand = cand[fresh[cand]]
                if cand.size:
                    fresh[cand] = False
                    parts.append(cand)
        if not parts:
            return dist
        # one batch can reach a state from several frontier states; sort and
        # drop repeats (numpy 2.4's np.unique took about 20 times as long)
        frontier = np.sort(np.concatenate(parts))
        frontier = frontier[np.concatenate(([True], frontier[1:] != frontier[:-1]))]
        dist[frontier] = level
