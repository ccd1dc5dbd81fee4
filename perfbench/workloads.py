"""The benchmark's workloads: how each makes its inputs, runs, and is checked.

Every input comes from the seed the benchmark was given; the library only
receives the generated graphs and colorings, through its public names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import recolor

from checker import Output, Verdict, check_oracle, check_sequence

K = 5
# The paper's per-vertex bounds, written out here so that the benchmark does
# not take them from the library it checks.
PIPELINE_BOUND = 1086
CHORDAL_BOUND = 542


@dataclass(frozen=True)
class Instance:
    g: object
    alpha: object
    beta: object
    peo: Optional[object] = None


def _sequence_output(seq, **extra) -> Output:
    return Output(tuple(seq.start.colors), tuple(seq.steps), **extra)


class Workload:
    name: str
    n: int  # vertices per instance in the timed pool
    pool: int  # distinct instances generated at set-up and cycled through
    ladder: tuple[int, ...]  # vertex counts of the traced doubling ladder
    tiny_n: int  # vertex count of the self-test instance
    bound: int
    gauge = "python"  # the gauge task whose work is most like the operation's
    oracle = False

    def generate(self, n: int, seed: int) -> Instance:
        raise NotImplementedError

    def operate(self, inst: Instance) -> Output:
        raise NotImplementedError

    def size(self, n: int) -> float:
        """The input size the traced ladder fits layer times against."""
        return float(n)

    def check(self, inst: Instance, out: Output, bound: Optional[int] = None) -> Verdict:
        return check_sequence(
            inst.g.adjacency,
            out,
            inst.alpha.colors,
            inst.beta.colors,
            K,
            self.bound if bound is None else bound,
        )


class _TwoRandomEndpoints(Workload):
    """Endpoints as in the library's batch runner for non-chordal families."""

    keep_prob: float

    def generate(self, n: int, seed: int) -> Instance:
        g = recolor.gen_partial_2tree(n, self.keep_prob, seed)
        order = recolor.degeneracy_order(g)
        alpha = recolor.random_proper_coloring(g, order, K, seed * 2 + 1)
        beta = recolor.random_proper_coloring(g, order, K, seed * 2 + 2)
        return Instance(g, alpha, beta)


class PipelineP2T(_TwoRandomEndpoints):
    name = "pipeline-p2t"
    n = 1600
    pool = 24
    ladder = (200, 400, 800, 1600)
    tiny_n = 12
    bound = PIPELINE_BOUND
    keep_prob = 0.6

    def operate(self, inst: Instance) -> Output:
        return _sequence_output(recolor.pipeline_theorem(inst.g, inst.alpha, inst.beta))


class ChordalAudit(Workload):
    name = "chordal-audit"
    n = 1600
    pool = 24
    ladder = (200, 400, 800, 1600)
    tiny_n = 12
    bound = CHORDAL_BOUND

    def generate(self, n: int, seed: int) -> Instance:
        g = recolor.gen_chordal_omega3(n, seed)
        peo = recolor.mcs_order(g)
        alpha = recolor.random_proper_coloring(g, peo, K, seed * 2 + 1)
        beta = recolor.greedy_coloring(g, peo)
        return Instance(g, alpha, beta, peo)

    def operate(self, inst: Instance) -> Output:
        seq = recolor.best_choice_recoloring(inst.g, inst.peo, inst.alpha, inst.beta, K)
        recolor.audit_best_choice(seq, inst.peo, inst.g, strict=True)
        return _sequence_output(seq)


class OracleSmall(_TwoRandomEndpoints):
    name = "oracle-small"
    # 5^8 packed states. At n = 9, just under the library's state cap, a run
    # fits only about 24 instances and the quality metrics spread by a fifth
    # between seeds; at n = 8 a run covers 80 instances.
    n = 8
    pool = 80
    ladder = (5, 6, 7, 8)
    tiny_n = 6
    bound = PIPELINE_BOUND
    keep_prob = 0.7
    gauge = "mixed"
    oracle = True

    def operate(self, inst: Instance) -> Output:
        seq = recolor.pipeline_theorem(inst.g, inst.alpha, inst.beta)
        distance = recolor.bfs_distance(inst.g, K, inst.alpha, inst.beta)
        connected = recolor.reconfig_connected(inst.g, K)
        return _sequence_output(seq, distance=distance, connected=connected)

    def size(self, n: int) -> float:
        return float(K**n)

    def check(self, inst: Instance, out: Output, bound: Optional[int] = None) -> Verdict:
        verdict = super().check(inst, out, bound)
        problems = check_oracle(inst.alpha.colors, inst.beta.colors, out)
        return Verdict(verdict.problems + tuple(problems), verdict.max_count)


WORKLOADS = {w.name: w for w in (PipelineP2T(), ChordalAudit(), OracleSmall())}
