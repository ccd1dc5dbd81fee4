"""Hot kernels for the exhaustive state-space search, vectorized with numpy.

Colorings are packed as base-k integers (digit of vertex v = color-1, weight
k^v).
"""

from __future__ import annotations

import numpy as np


def proper_mask(n: int, k: int, edges) -> np.ndarray:
    """Boolean mask over all k^n packed states: True where the coloring is proper."""
    pows = k ** np.arange(n, dtype=np.int64)
    codes = np.arange(int(k**n), dtype=np.int64)
    mask = np.ones(codes.shape[0], dtype=np.bool_)
    for u, v in edges:
        mask &= ((codes // pows[u]) % k) != ((codes // pows[v]) % k)
    return mask


def bfs_levels(start: int, proper: np.ndarray, n: int, k: int) -> np.ndarray:
    """BFS over proper states reachable from `start` by single-digit changes.

    Returns the distance to every state, -1 where unreachable.
    """
    pows = k ** np.arange(n, dtype=np.int64)
    dist = np.full(proper.shape[0], -1, dtype=np.int32)
    dist[start] = 0
    frontier = np.array([start], dtype=np.int64)
    level = 0
    while frontier.size:
        parts = []
        for v in range(n):
            pv = pows[v]
            digits = (frontier // pv) % k
            base = frontier - digits * pv
            for d in range(k):
                cand = base + d * pv
                keep = (digits != d) & proper[cand] & (dist[cand] < 0)
                if keep.any():
                    parts.append(cand[keep])
        if not parts:
            break
        nxt = np.unique(np.concatenate(parts))
        nxt = nxt[dist[nxt] < 0]
        if nxt.size == 0:
            break
        level += 1
        dist[nxt] = level
        frontier = nxt
    return dist
