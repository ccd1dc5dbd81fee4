"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately written from the definitions, not by calling
back into the code paths under test.
"""

import heapq
from collections import deque
from itertools import combinations, pairwise, product

from recolor import (
    AuditReport,
    AuditViolation,
    Coloring,
    Graph,
    NotWidth2,
    OmegaTooLarge,
    verify_sequence,
)
from recolor.sequences import RULE_BOUND, RULE_DISTINCT, RULE_REPEAT


def proper_colorings(g: Graph, k: int):
    """All proper k-colorings as tuples, by brute enumeration."""
    out = []
    for colors in product(range(1, k + 1), repeat=g.n):
        if all(colors[u] != colors[v] for u, v in g.edges()):
            out.append(colors)
    return out


def _neighbors_in_reconfig(g: Graph, k: int, colors):
    for v in range(g.n):
        for c in range(1, k + 1):
            if c == colors[v]:
                continue
            if any(colors[w] == c for w in g.adjacency[v]):
                continue
            yield colors[:v] + (c,) + colors[v + 1 :]


def naive_bfs_distance(g: Graph, k: int, alpha, beta):
    """Bidirectional search over coloring tuples; None when unreachable."""
    alpha, beta = tuple(alpha), tuple(beta)
    if alpha == beta:
        return 0
    front = {alpha: 0}
    back = {beta: 0}
    q_front = deque([alpha])
    q_back = deque([beta])
    while q_front and q_back:
        if len(q_front) <= len(q_back):
            queue, seen, other = q_front, front, back
        else:
            queue, seen, other = q_back, back, front
        for _ in range(len(queue)):
            state = queue.popleft()
            for nxt in _neighbors_in_reconfig(g, k, state):
                if nxt in other:
                    return seen[state] + 1 + other[nxt]
                if nxt not in seen:
                    seen[nxt] = seen[state] + 1
                    queue.append(nxt)
    return None


def naive_all_distances(g: Graph, k: int, source):
    """Plain dict BFS from one coloring tuple."""
    dist = {tuple(source): 0}
    queue = deque([tuple(source)])
    while queue:
        state = queue.popleft()
        for nxt in _neighbors_in_reconfig(g, k, state):
            if nxt not in dist:
                dist[nxt] = dist[state] + 1
                queue.append(nxt)
    return dist


def squared_path(n: int, k: int) -> tuple[Graph, Coloring, Coloring]:
    """The squared path P_n^2 and its two k-colorings alpha_i = (1,2,3,4)[i mod 4]
    and beta_i = (1,4,3,2)[i mod 4].

    P_n^2 has the edges i-i+1 and i-i+2: a 2-tree whose degree-<=2
    elimination adds no fill edge. Every three consecutive vertices form a
    triangle, so both colorings are proper for n >= 1 and k >= 4. At k = 4
    the interior of alpha is frozen, each vertex seeing the other three colors.
    """
    g = Graph.from_edges(n, [(i, j) for i in range(n) for j in (i + 1, i + 2) if j < n])
    alpha = Coloring(k, tuple((1, 2, 3, 4)[i % 4] for i in range(n)))
    beta = Coloring(k, tuple((1, 4, 3, 2)[i % 4] for i in range(n)))
    return g, alpha, beta


def eliminate_reference(g: Graph) -> list[tuple[int, list[int]]]:
    """(v, sorted N(v)) for each v in the order the degree-<=2 elimination removes it.

    The plain form of `decomposition._eliminate`, which must return the same
    bags as (v, *nb) tuples. Each step removes the lowest-index vertex of
    degree at most 2 and joins its two neighbors when they are not adjacent;
    stalling with all degrees >= 3 raises NotWidth2.
    """
    adj = [set(a) for a in g.adjacency]
    # degrees never rise, so each vertex enters the heap once, on reaching 2
    heap = [v for v in range(g.n) if len(adj[v]) <= 2]
    elim: list[tuple[int, list[int]]] = []
    while heap:
        v = heapq.heappop(heap)
        nb = sorted(adj[v])
        for u in nb:
            adj[u].discard(v)
        # a new fill edge keeps both degrees; otherwise each neighbor lost one
        if len(nb) == 2 and nb[1] not in adj[nb[0]]:
            a, b = nb
            adj[a].add(b)
            adj[b].add(a)
        else:
            for u in nb:
                if len(adj[u]) == 2:
                    heapq.heappush(heap, u)
        elim.append((v, nb))
    if len(elim) < g.n:
        raise NotWidth2("all remaining vertices have degree at least 3")
    return elim


def merge_reference(g: Graph, alpha) -> tuple[Graph, list[list[int]], tuple[int, ...]]:
    """merge_same_colored from the definition: h, the classes and the inherited colors.

    Every same-colored pair of every bag of `eliminate_reference(g)` is joined,
    then every bag is filled with the classes it holds. A class is labelled by
    its smallest member, and the classes are numbered in that order.
    """
    colors = alpha.colors
    bags = [(v, *nb) for v, nb in eliminate_reference(g)]
    label = list(range(g.n))
    for bag in bags:
        for u, w in combinations(bag, 2):
            if colors[u] == colors[w] and label[u] != label[w]:
                old, new = max(label[u], label[w]), min(label[u], label[w])
                label = [new if x == old else x for x in label]
    index = {x: i for i, x in enumerate(sorted(set(label)))}
    classes = [[] for _ in index]
    for v, x in enumerate(label):
        classes[index[x]].append(v)
    edges = {
        (index[label[u]], index[label[w]])
        for bag in bags
        for u, w in combinations(bag, 2)
        if label[u] != label[w]
    }
    return Graph.from_edges(len(classes), edges), classes, tuple(colors[c[0]] for c in classes)


def brute_is_chordal(g: Graph) -> bool:
    """No vertex subset of size >= 4 induces a cycle. Exponential; n <= 10."""
    adj = [set(a) for a in g.adjacency]
    for size in range(4, g.n + 1):
        for subset in combinations(range(g.n), size):
            inside = set(subset)
            degs = [len(adj[v] & inside) for v in subset]
            if any(d != 2 for d in degs):
                continue
            # connected and 2-regular means an induced cycle
            seen = {subset[0]}
            stack = [subset[0]]
            while stack:
                x = stack.pop()
                for y in adj[x] & inside:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            if len(seen) == size:
                return False
    return True


def brute_max_clique(g: Graph, cap: int | None = None) -> int:
    """Largest clique by subset enumeration, optionally capped in size.

    With cap=c the result is min(omega, c): enough to certify omega <= c-1
    or to compare exact values known to be below the cap.
    """
    adj = [set(a) for a in g.adjacency]
    best = 1 if g.n else 0
    top = g.n if cap is None else min(cap, g.n)
    for size in range(2, top + 1):
        found = False
        for subset in combinations(range(g.n), size):
            if all(b in adj[a] for a, b in combinations(subset, 2)):
                best = max(best, size)
                found = True
                break
        if not found:
            break  # no clique of this size, none bigger either
    return best


def saved_positions_oracle(seq, peo, g, v):
    """Saved steps recomputed from the definition over full-sequence indices."""
    pos = peo.positions()
    outs = {w for w in g.adjacency[v] if pos[w] > pos[v]}
    closed = outs | {v}
    restricted_full = [t for t, (x, _) in enumerate(seq.steps) if x in closed]
    v_steps_full = [t for t, (x, _) in enumerate(seq.steps) if x == v]
    saved = []
    for ridx, t in enumerate(restricted_full):
        if seq.steps[t][0] not in outs:
            continue
        cond_a = all(tv > t for tv in v_steps_full)
        cond_b = all(tv < t for tv in v_steps_full)
        prev_two = restricted_full[max(0, ridx - 2) : ridx]
        cond_c = len(prev_two) == 2 and all(seq.steps[p][0] != v for p in prev_two)
        if cond_a or cond_b or cond_c:
            saved.append(ridx)
    return saved


def audit_reference(seq, peo, g, strict=True):
    """audit_best_choice as one loop over every vertex, its table from positions.

    Every vertex builds its restriction, trace and pairs, whether or not it
    has two steps of its own; the library skips those with fewer.
    """
    pos = peo.positions()
    outs = [tuple(w for w in g.adjacency[v] if pos[w] > pos[v]) for v in range(g.n)]
    for v, later in enumerate(outs):
        if len(later) > 2:
            raise OmegaTooLarge(f"vertex {v} has {len(later)} later neighbors")
    verify_sequence(g, seq)
    steps = seq.steps
    n = g.n

    at: list[list[int]] = [[] for _ in range(n)]
    for t, (x, _) in enumerate(steps):
        at[x].append(t)
    counts = [len(ts) for ts in at]

    violations: list[AuditViolation] = []
    saved_counts = [0] * n
    out_step_counts = [0] * n
    for v in range(n):
        idxs = sorted(at[v] + [t for w in outs[v] for t in at[w]])
        trace = [steps[t][0] for t in idxs]
        ell = len(trace)
        # consecutive positions (p, q) of v in the restriction
        pairs = list(pairwise(i for i, x in enumerate(trace) if x == v))

        for p, q in pairs:
            if q == p + 1:
                detail = "vertex recolored twice in a row within its closed out-neighborhood"
                violations.append(AuditViolation(v, RULE_REPEAT, idxs[q], detail))
        for p, q in pairs:
            if q == p + 2 and p != ell - 3:
                detail = "alternation v,w,v occurs before the end of the restriction"
                violations.append(AuditViolation(v, RULE_REPEAT, idxs[q], detail))

        m = ell - counts[v]
        r = m - sum(min(q - p - 1, 2) for p, q in pairs)
        saved_counts[v] = r
        out_step_counts[v] = m
        # counts[v] <= 1 + ceil((m - r)/2), scaled by 2 to stay in integers
        if 2 * counts[v] > 2 + (m - r) + ((m - r) % 2):
            detail = f"count {counts[v]} exceeds 1 + ceil(({m} - {r})/2)"
            violations.append(AuditViolation(v, RULE_BOUND, None, detail))

        if len(outs[v]) == 2:
            colors = [seq.start.colors[v]] + [steps[t][1] for t in at[v]]
            for j, (p, q) in enumerate(pairs):
                between = trace[p + 1 : q]
                if (
                    len(between) >= 2
                    and between[0] != between[1]
                    and all(x == between[1] for x in between[1:])
                ):
                    # v's colors before, between and after its steps at p and q
                    before, mid, after = colors[j : j + 3]
                    if len({before, mid, after}) != 3:
                        detail = (
                            f"colors around alternation not distinct: {before}, {mid}, {after}"
                        )
                        violations.append(AuditViolation(v, RULE_DISTINCT, idxs[q], detail))

    if strict and violations:
        raise violations[0]
    return AuditReport(
        tuple(counts), tuple(saved_counts), tuple(out_step_counts), tuple(violations)
    )

