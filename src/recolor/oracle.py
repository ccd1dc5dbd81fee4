"""Exhaustive search over the graph of proper k-colorings.

States are proper colorings; two states are adjacent when they differ on
exactly one vertex. Everything here enumerates the full state space, so a
cap guards against accidental blow-ups. Intended for small instances used to
cross-validate the constructive transformations.

`bfs_distance` needs one distance, so it grows a ball around each endpoint
and stops where the two balls meet (`_kernels.bfs_meet`). `reconfig_connected`
needs no distance, only the size of one component: the proper states that
differ in one vertex's colour form a clique, so `_kernels.reach_count` closes
the reached set line by line on a dense mask. `reconfig_diameter` needs each
source's eccentricity and whether it reaches every state, so it runs full
searches (`_kernels.bfs_levels`) that return only the depth and the count,
one per start `_kernels.orbit_sources` picks.

All three share the properness mask of the last graph and k they were called
on (`_proper_states`): one read-only mask of at most `state_cap` bytes, so
`bfs_distance` followed by `reconfig_connected` on one graph builds it once.

numpy loads only with `_kernels`, which each function here imports when it
is called, so `import recolor` and the constructive pipeline never load it.
"""

from __future__ import annotations

import sys

from .errors import TooLarge
from .graphs import Coloring, Graph, _require_int, require_proper

DEFAULT_STATE_CAP = 2_000_000


def _encode(colors: tuple[int, ...], k: int) -> int:
    """The packed state of `colors` (digit of vertex v = colour - 1, weight k^v).

    Unchecked: the caller has run `require_proper` with this k on the colouring.
    """
    code = 0
    for c in reversed(colors):
        code = code * k + c - 1
    return code


# (key, mask) of the last mask built, keyed on (n, k, edges)
_last_mask: tuple = (None, None)


def _proper_states(g: Graph, k: int, state_cap: int):
    """Read-only properness mask over all k^n packed states, after checking k and the cap.

    The checks run before the cache lookup, so a hit still obeys a smaller
    cap. The key holds the edge list, as a `Graph` built with list rows
    cannot be hashed.
    """
    global _last_mask
    _require_int("k", k, 1)
    _require_int("state cap", state_cap, 1)
    if k**g.n > state_cap:
        raise TooLarge(f"{k}^{g.n} states exceed the cap of {state_cap}")
    if k**g.n > sys.maxsize:
        raise TooLarge(f"{k}^{g.n} states exceed numpy's largest array index")
    key = (g.n, k, tuple(g.edges()))
    if _last_mask[0] != key:
        from . import _kernels
        mask = _kernels.proper_mask(g.n, k, key[2])
        mask.flags.writeable = False
        _last_mask = (key, mask)
    return _last_mask[1]


def bfs_distance(
    g: Graph,
    k: int,
    alpha: Coloring,
    beta: Coloring,
    state_cap: int = DEFAULT_STATE_CAP,
) -> int | None:
    """Fewest single-vertex recolorings from alpha to beta, None if unreachable."""
    from . import _kernels
    mask = _proper_states(g, k, state_cap)
    require_proper(g, alpha, k, "alpha")
    require_proper(g, beta, k, "beta")
    return _kernels.bfs_meet(_encode(alpha.colors, k), _encode(beta.colors, k), mask, g.n, k)


def reconfig_connected(g: Graph, k: int, state_cap: int = DEFAULT_STATE_CAP) -> bool:
    """True iff every proper k-coloring is reachable from every other."""
    from . import _kernels
    mask = _proper_states(g, k, state_cap)
    total = _kernels.count(mask)
    if total <= 1:
        return True
    return _kernels.reach_count(int(mask.argmax()), mask, g.n, k) == total


def reconfig_diameter(g: Graph, k: int, state_cap: int = DEFAULT_STATE_CAP) -> int | None:
    """Largest pairwise distance between proper k-colorings; None if disconnected.

    Every permutation of the colours is an automorphism of the state graph, so
    all states of one orbit have the same eccentricity. One search runs per
    orbit, from its state whose colours first appear in the order 1, 2, 3, ...
    (digit[v] <= max(digit[:v]) + 1); a disconnected space is caught by the
    first. Keep instances very small.
    """
    from . import _kernels
    mask = _proper_states(g, k, state_cap)
    total = _kernels.count(mask)
    if total == 0:
        return None
    best = 0
    for src in _kernels.orbit_sources(mask, g.n, k):
        levels, reached = _kernels.bfs_levels(int(src), mask, g.n, k)
        if reached != total:
            return None
        best = max(best, levels)
    return best
