"""Exhaustive search over the graph of proper k-colorings.

States are proper colorings; two states are adjacent when they differ on
exactly one vertex. Everything here enumerates the full state space, so a
cap guards against accidental blow-ups. Intended for small instances used to
cross-validate the constructive transformations.

`bfs_distance` needs one distance, so it grows a ball around each endpoint
and stops where the two balls meet (`_kernels.bfs_meet`), on the cached bool
mask of `_kernels.state_space`, which holds the last space's mask and its
count of proper states, so `bfs_distance` then `proper_coloring_count` on one
graph build and count the mask once. `reconfig_connected` needs no distance,
only whether the proper states are connected, and `_kernels.reaches_all`
answers that alone, on a packed mask of its own that the cache never holds.

This module checks arguments, and `_within` is the one size rule. numpy
loads only with `_kernels`, which `_checked` imports after the checks, so
`import recolor`, the pipeline and a rejected call never load it.
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


def _checked(g: Graph, k: int, state_cap: int, **ends: Coloring):
    """`_kernels` and the space's key `(n, k, edges)`, after checking g, k, the cap and each of `ends` by name.

    So a bad argument loads no numpy and builds nothing, and a cached space
    obeys a smaller cap. `edges` is a tuple, so it hashes.
    """
    _require_instance("g", g, Graph)
    _require_int("k", k, 1)
    _require_int("state cap", state_cap, 1)
    if not _within(k, g.n, state_cap):
        raise TooLarge(f"{k}^{g.n} states exceed the cap of {state_cap}")
    if not _within(k, g.n, sys.maxsize):
        raise TooLarge(f"{k}^{g.n} states exceed numpy's largest array index")
    for name, coloring in ends.items():
        require_proper(g, coloring, k, name)
    from . import _kernels
    return _kernels, (g.n, k, tuple(g.edges()))


def bfs_distance(
    g: Graph,
    k: int,
    alpha: Coloring,
    beta: Coloring,
    state_cap: int = DEFAULT_STATE_CAP,
) -> int | None:
    """Fewest single-vertex recolorings from alpha to beta, None if unreachable."""
    kernels, space = _checked(g, k, state_cap, alpha=alpha, beta=beta)
    start, goal = (kernels.encode(c.colors, k) for c in (alpha, beta))
    return kernels.bfs_meet(start, goal, kernels.state_space(*space)[0], g.n, k)


def proper_coloring_count(g: Graph, k: int, state_cap: int = DEFAULT_STATE_CAP) -> int:
    """Number of proper k-colorings of g."""
    kernels, space = _checked(g, k, state_cap)
    return kernels.state_space(*space)[1]


def reconfig_connected(g: Graph, k: int, state_cap: int = DEFAULT_STATE_CAP) -> bool:
    """True iff every proper k-coloring is reachable from every other; one or none trivially is."""
    kernels, space = _checked(g, k, state_cap)
    return kernels.reaches_all(*space)
