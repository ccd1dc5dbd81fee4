"""Acceptance suite.

Each criterion runs at its stated scale and tolerance and prints one summary
line (run pytest with -s to see them on success). The corpora are fully
deterministic: fixed seeds drive every instance.
"""

import random
from collections import Counter

import pytest

from recolor import (
    EliminationOrdering,
    RecoloringSequence,
    bfs_distance,
    best_choice_recoloring,
    audit_best_choice,
    degeneracy_order,
    gen_2tree,
    gen_chordal_omega3,
    gen_partial_2tree,
    greedy_coloring,
    mcs_order,
    merge_same_colored,
    pipeline_theorem,
    random_proper_coloring,
    two_phase_transform,
    verify_sequence,
)
from recolor import chordalize, sequences
from recolor.chordalize import PER_VERTEX_CHORDAL_BOUND, PER_VERTEX_PIPELINE_BOUND

CHORDAL_INSTANCES = 500
PIPELINE_INSTANCES = 200
TWO_PHASE_INSTANCES = 100
ORACLE_PAIRS_PER_GRAPH = 50
TREND_SIZES = (50, 100, 200, 400)
TREND_SEEDS = 10
# criterion 6 tolerance: the max length/n ratio at the largest size may not
# exceed the max over the smaller sizes by more than sampling noise
TREND_NOISE_FACTOR = 1.25


@pytest.fixture(scope="module")
def chordal_corpus():
    rng = random.Random(20250810)
    corpus = []
    for i in range(CHORDAL_INSTANCES):
        n = rng.randint(1, 300)
        g = gen_chordal_omega3(n, seed=1000 + i)
        peo = mcs_order(g)
        alpha = random_proper_coloring(g, peo, 5, seed=2000 + i)
        beta = greedy_coloring(g, peo)
        seq = best_choice_recoloring(g, peo, alpha, beta, 5)
        corpus.append((g, peo, alpha, beta, seq))
    return corpus


def test_criterion_1_chordal_bound(chordal_corpus):
    observed_max = 0
    for g, peo, alpha, beta, seq in chordal_corpus:
        final = verify_sequence(g, seq)
        assert final.colors == beta.colors
        count = max(Counter(v for v, _ in seq.steps).values(), default=0)
        assert count <= PER_VERTEX_CHORDAL_BOUND
        observed_max = max(observed_max, count)
    print(
        f"\ncriterion 1 PASS: {len(chordal_corpus)} chordal instances, "
        f"max per-vertex count {observed_max} <= {PER_VERTEX_CHORDAL_BOUND}"
    )


def test_criterion_2_pipeline_bound():
    rng = random.Random(77)
    worst = 0
    for i in range(PIPELINE_INSTANCES):
        n = rng.randint(3, 300)
        g = gen_partial_2tree(n, 0.6, seed=3000 + i)
        order = degeneracy_order(g)
        alpha = random_proper_coloring(g, order, 5, seed=4000 + i)
        beta = random_proper_coloring(g, order, 5, seed=5000 + i)
        seq = pipeline_theorem(g, alpha, beta)
        final = verify_sequence(g, seq)
        assert final.colors == beta.colors
        assert len(seq.steps) <= PER_VERTEX_PIPELINE_BOUND * n
        count = max(Counter(v for v, _ in seq.steps).values(), default=0)
        assert count <= PER_VERTEX_PIPELINE_BOUND
        worst = max(worst, count)
    print(
        f"\ncriterion 2 PASS: {PIPELINE_INSTANCES} pipeline instances, "
        f"max per-vertex count {worst} <= {PER_VERTEX_PIPELINE_BOUND}"
    )


def test_criterion_3_two_phase_exactness():
    rng = random.Random(99)
    for i in range(TWO_PHASE_INSTANCES):
        n = rng.randint(3, 120)
        g = gen_partial_2tree(n, 0.6, seed=6000 + i)
        order = degeneracy_order(g)
        gamma_s = random_proper_coloring(g, order, 3, seed=7000 + i)
        gamma_t = random_proper_coloring(g, order, 3, seed=8000 + i)
        seq = two_phase_transform(g, gamma_s, gamma_t, d=2, k=5)
        final = verify_sequence(g, seq)
        assert final.colors == gamma_t.colors
        assert max(Counter(v for v, _ in seq.steps).values(), default=0) <= 2
    print(
        f"\ncriterion 3 PASS: {TWO_PHASE_INSTANCES} two-phase instances, "
        f"every vertex recolored at most twice, target reached exactly"
    )


def test_criterion_4_audit_suite(chordal_corpus):
    total_violations = 0
    for g, peo, alpha, beta, seq in chordal_corpus:
        report = audit_best_choice(seq, peo, g, strict=False)
        total_violations += len(report.violations)
        assert report.clean
    print(
        f"\ncriterion 4 PASS: audits clean on all {len(chordal_corpus)} "
        f"sequences ({total_violations} violations)"
    )


def test_criterion_4_audit_of_pipeline_halves(monkeypatch):
    # the pipeline runs best choice on graphs it never builds: on each merged
    # graph h when an endpoint merges, and otherwise once on g plus its fill
    # edges, the h of the identity merge. Record the arguments and steps of
    # exactly those runs
    runs = []
    best_choice = chordalize._best_choice

    def recording(order, later, start, target, k):
        steps = best_choice(order, later, start, target, k)
        runs.append((order, later, start, target, steps))
        return steps

    monkeypatch.setattr(chordalize, "_best_choice", recording)
    audited = direct = worst = 0
    for n in (50, 400, 1600):
        for seed in range(4):
            for g in (gen_partial_2tree(n, 0.6, seed), gen_2tree(n, seed)):
                order = degeneracy_order(g)
                alpha = random_proper_coloring(g, order, 5, 2 * seed + 1)
                beta = random_proper_coloring(g, order, 5, 2 * seed + 2)
                runs.clear()
                pipeline_theorem(g, alpha, beta)
                merged = [merge_same_colored(g, coloring) for coloring in (alpha, beta)]
                if all(len(merge_map.classes) == g.n for _, merge_map, _ in merged):
                    # neither endpoint merges: one run from alpha to beta
                    assert len(runs) == 1 and runs[0][3] == beta.colors
                    direct += 1
                else:
                    assert len(runs) == 2
                for (order_h, later, start, _, steps), (h, _, coloring_h) in zip(runs, merged):
                    # the core takes the counts of a replay on the h that
                    # merge_same_colored builds, and agrees with the public
                    # audit there
                    assert coloring_h.colors == tuple(start)
                    seq_h = RecoloringSequence(coloring_h, tuple(steps))
                    counts = sequences._replay(h, seq_h)[1]
                    report = sequences._audit(later, start, steps, counts)
                    assert report.clean
                    worst = max(worst, max(report.counts, default=0))
                    peo_h = EliminationOrdering(tuple(order_h))
                    assert audit_best_choice(seq_h, peo_h, h, strict=False) == report
                    audited += 1
    # the corpus exercises both paths
    assert 0 < direct < 24
    assert worst <= PER_VERTEX_CHORDAL_BOUND
    print(
        f"\ncriterion 4 PASS: audits clean on all {audited} best-choice runs of "
        f"24 pipeline calls ({direct} with one run), max per-class count "
        f"{worst} <= {PER_VERTEX_CHORDAL_BOUND}"
    )


def _oracle_corpus():
    graphs = []
    for n in (3, 4, 5, 6):
        for seed in (0, 1):
            graphs.append(gen_2tree(n, seed))
    for n in (4, 5, 6):
        for keep in (0.5, 0.8):
            graphs.append(gen_partial_2tree(n, keep, seed=n))
    for n in (1, 2, 3, 4, 5, 6):
        for seed in (0, 1):
            graphs.append(gen_chordal_omega3(n, seed))
    return graphs


def test_criterion_5_oracle_cross_validation():
    checked = 0
    for g in _oracle_corpus():
        order = degeneracy_order(g)
        for trial in range(ORACLE_PAIRS_PER_GRAPH):
            alpha = random_proper_coloring(g, order, 5, seed=trial * 2)
            beta = random_proper_coloring(g, order, 5, seed=trial * 2 + 1)
            seq = pipeline_theorem(g, alpha, beta)
            d = bfs_distance(g, 5, alpha, beta)
            assert d is not None, "state space must be connected at k=5"
            assert d <= len(seq.steps)
            checked += 1
    print(
        f"\ncriterion 5 PASS: {checked} (alpha, beta) pairs cross-checked "
        f"against the exhaustive oracle"
    )


def test_criterion_6_linearity_trend():
    ratios = {}
    for n in TREND_SIZES:
        worst = 0.0
        for seed in range(TREND_SEEDS):
            g = gen_partial_2tree(n, 0.6, seed=9000 + seed)
            order = degeneracy_order(g)
            alpha = random_proper_coloring(g, order, 5, seed=100 + seed)
            beta = random_proper_coloring(g, order, 5, seed=200 + seed)
            seq = pipeline_theorem(g, alpha, beta)
            worst = max(worst, len(seq.steps) / n)
        ratios[n] = worst

    print("\ncriterion 6: max total-length/n by n")
    print("    n    max ratio")
    for n in TREND_SIZES:
        print(f"  {n:4d}    {ratios[n]:.3f}")

    small_max = max(ratios[n] for n in TREND_SIZES[:-1])
    big = ratios[TREND_SIZES[-1]]
    assert big <= PER_VERTEX_PIPELINE_BOUND
    assert big <= TREND_NOISE_FACTOR * small_max, (
        f"ratio at n={TREND_SIZES[-1]} ({big:.3f}) grew beyond noise over "
        f"smaller sizes ({small_max:.3f})"
    )
    print(
        f"criterion 6 PASS: ratio at n={TREND_SIZES[-1]} ({big:.3f}) within "
        f"{TREND_NOISE_FACTOR}x of smaller-size max ({small_max:.3f})"
    )
