"""Exhaustive search over the graph of proper k-colorings.

States are proper colorings; two states are adjacent when they differ on
exactly one vertex. Everything here enumerates the full state space, so a
cap guards against accidental blow-ups. Intended for small instances used to
cross-validate the constructive transformations.

`bfs_distance` needs one distance, so it grows a ball around each endpoint
and stops where the two balls meet (`_kernels.bfs_meet`). `reconfig_connected`
needs no distance, only whether one state reaches all: the proper states
that differ in one vertex's colour form a clique, so `_kernels.reaches_all`
closes the reached set line by line on the dense packed mask, where vertex
0's colour is a bit. `reconfig_diameter` needs each source's eccentricity and
whether it reaches every state, so it runs full searches
(`_kernels.bfs_levels`) that return only the depth and the count, one per
start `_kernels.orbit_sources` picks.

`_kernels` owns the state space: the cached read-only mask, the same mask
packed, and its count of proper states, so `bfs_distance` then
`reconfig_connected` on one graph build both masks and count them once.
This module checks arguments, and `_within` is the one size rule. numpy
loads only with `_kernels`, which each function imports after its checks,
so `import recolor`, the pipeline and a rejected call never load it.
"""

from __future__ import annotations

import sys

from .errors import TooLarge
from .graphs import Coloring, Graph, _require_instance, _require_int, require_proper

DEFAULT_STATE_CAP = 2_000_000


def _within(k: int, n: int, cap: int) -> bool:
    """k**n <= cap for k >= 1; past the cap's bit length, 2**n > cap and k**n is never built."""
    if n > cap.bit_length():
        return k == 1 and cap >= 1
    return k**n <= cap


def _proper_states(g: Graph, k: int, state_cap: int):
    """`_kernels.state_space` after checking g, k and the cap, so a hit obeys a smaller cap."""
    _require_instance("g", g, Graph)
    _require_int("k", k, 1)
    _require_int("state cap", state_cap, 1)
    if not _within(k, g.n, state_cap):
        raise TooLarge(f"{k}^{g.n} states exceed the cap of {state_cap}")
    if not _within(k, g.n, sys.maxsize):
        raise TooLarge(f"{k}^{g.n} states exceed numpy's largest array index")
    from . import _kernels
    return _kernels.state_space(g.n, k, tuple(g.edges()))


def bfs_distance(
    g: Graph,
    k: int,
    alpha: Coloring,
    beta: Coloring,
    state_cap: int = DEFAULT_STATE_CAP,
) -> int | None:
    """Fewest single-vertex recolorings from alpha to beta, None if unreachable."""
    mask = _proper_states(g, k, state_cap)[0]
    require_proper(g, alpha, k, "alpha")
    require_proper(g, beta, k, "beta")
    from . import _kernels
    start, goal = (_kernels.encode(c.colors, k) for c in (alpha, beta))
    return _kernels.bfs_meet(start, goal, mask, g.n, k)


def proper_coloring_count(g: Graph, k: int, state_cap: int = DEFAULT_STATE_CAP) -> int:
    """Number of proper k-colorings of g; 0 tells an empty state space from a
    disconnected one where `reconfig_diameter` returns None."""
    return _proper_states(g, k, state_cap)[2]


def reconfig_connected(g: Graph, k: int, state_cap: int = DEFAULT_STATE_CAP) -> bool:
    """True iff every proper k-coloring is reachable from every other.

    One proper coloring or none is trivially connected; otherwise the
    verdict is `_kernels.reaches_all` from the first proper state.
    """
    mask, packed, total = _proper_states(g, k, state_cap)
    if total <= 1:
        return True
    from . import _kernels
    return _kernels.reaches_all(int(mask.argmax()), packed, g.n, k)


def reconfig_diameter(g: Graph, k: int, state_cap: int = DEFAULT_STATE_CAP) -> int | None:
    """Largest pairwise distance between proper k-colorings; None if disconnected
    or if there is no proper colouring (`reconfig_connected` is then True, and
    `proper_coloring_count` 0).

    Every permutation of the colours is an automorphism of the state graph, so
    all states of one orbit have the same eccentricity. One search runs per
    orbit, from its state whose colours first appear in the order 1, 2, 3, ...
    (digit[v] <= max(digit[:v]) + 1); a disconnected space is caught by the
    first. Keep instances very small.
    """
    mask, _, total = _proper_states(g, k, state_cap)
    if total <= 1:
        # one state, as for n = 0 at any k, is its own whole space: no search
        return 0 if total else None
    from . import _kernels
    best = 0
    for src in _kernels.orbit_sources(mask, g.n, k):
        levels, reached = _kernels.bfs_levels(int(src), mask, g.n, k)
        if reached != total:
            return None
        best = max(best, levels)
    return best
