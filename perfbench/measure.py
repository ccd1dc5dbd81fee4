"""Run one workload in this process and print its metrics.

Started by run.py, one process per workload, with the library's source
directory on PYTHONPATH. The last line of standard output is the JSON
result; the lines before it repeat every metric by name with its unit.
"""

import time

_T0 = time.perf_counter()
import recolor  # noqa: E402,F401  -- importing the library is part of set-up time

IMPORT_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from time import perf_counter  # noqa: E402

from checker import SelfTestError, Tally, self_test  # noqa: E402
from gauge import Gauge  # noqa: E402
from tracer import LAYER_NAMES, WORK_NAMES, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# share of --seconds the traced run spends on its main pass; the rest runs the ladder
TRACED_PASS_SHARE = 0.6
# fresh interpreters that time the library import, besides this process
IMPORT_REPEATS = 4
# layers called while generating inputs, reported per generated instance
SETUP_LAYERS = ("degeneracy_order", "mcs_order", "greedy_coloring")

END_TO_END_UNITS = {
    "setup_s": "s",
    "instance_p50_s": "s",
    "instance_tail_s": "s",
    "vertices_per_s": "vertices/s",
    "recolorings_per_vertex": "steps/vertex",
    "max_recolorings_per_vertex": "count",
    "length_over_distance": "ratio",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    units = {}
    for layer in LAYER_NAMES:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.slope"] = "ratio"
    for layer in SETUP_LAYERS:
        units[f"{layer}.setup_self_s"] = "s"
    for metric in WORK_NAMES:
        units[metric] = "count"
    units.update(
        {
            "op.self_s": "s",
            "untraced_op_s": "s",
            "traced_op_s": "s",
            "tracing_overhead_frac": "frac",
            "span_self_frac": "frac",
            "traced_ops": "count",
            "layers_absent": "count",
        }
    )
    return units


def instance_seed(seed: int, i: int) -> int:
    return seed * 1000 + i


def make_pool(wl, seed: int, gauge: Gauge, scope=nullcontext):
    """The timed instances and each one's generation time in reference seconds."""
    pool, wall = [], []
    gauge.read()
    for i in range(wl.pool):
        t0 = perf_counter()
        with scope():
            pool.append(wl.generate(wl.n, instance_seed(seed, i)))
        wall.append(perf_counter() - t0)
        gauge.read()
    return pool, [t * gauge.scale(i) for i, t in enumerate(wall)]


class Judge:
    """Checks outputs; a repeat of an instance must reproduce its first output."""

    def __init__(self, wl):
        self.wl = wl
        self.tally = Tally()
        self.first: dict = {}  # instance key -> (output, verdict) of its first run

    def timed(self, inst, key, scope=nullcontext) -> float:
        """Run one operation inside `scope` and check it; return its wall time."""
        t0 = perf_counter()
        try:
            with scope():
                out = self.wl.operate(inst)
        except Exception as exc:  # an operation that raises is a failed operation
            self.tally.record([f"{type(exc).__name__}: {exc}"])
            return perf_counter() - t0
        elapsed = perf_counter() - t0
        verdict = self.wl.check(inst, out)
        problems = list(verdict.problems)
        if key in self.first:
            if out != self.first[key][0]:
                problems.append("output differs from the first run on the same input")
        else:
            self.first[key] = (out, verdict)
        self.tally.record(problems)
        return elapsed


def quality(pool, judge: Judge) -> dict:
    """Output-quality metrics over the distinct instances, each counted once."""
    steps = vertices = worst = 0
    ratios = []
    for index, inst in enumerate(pool):
        if index not in judge.first or judge.first[index][1].problems:
            continue
        out, verdict = judge.first[index]
        steps += len(out.steps)
        vertices += inst.g.n
        worst = max(worst, verdict.max_count)
        distance = out.distance
        if distance is None:
            # no exact distance at this size: Hamming distance is its lower bound
            distance = sum(a != b for a, b in zip(inst.alpha.colors, inst.beta.colors))
        if distance:
            ratios.append(len(out.steps) / distance)
    return {
        "recolorings_per_vertex": steps / vertices if vertices else 0.0,
        "max_recolorings_per_vertex": float(worst),
        "length_over_distance": statistics.fmean(ratios) if ratios else 0.0,
    }


def tail(times):
    """The highest percentile with at least 10 samples beyond it, and that percentile."""
    ordered = sorted(times)
    rank = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def import_times(gauge: Gauge, fresh: int) -> list[float]:
    """This process's import time and that of `fresh` new interpreters, in reference seconds."""
    code = "import time; t = time.perf_counter(); import recolor; print(time.perf_counter() - t)"
    wall = [IMPORT_S]
    gauge.read()
    for _ in range(fresh):
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60
        )
        wall.append(float(done.stdout))
        gauge.read()
    return [IMPORT_S * gauge.scale(0)] + [t * gauge.scale(i) for i, t in enumerate(wall[1:])]


def run_untraced(wl, seed: int, seconds: float):
    # set-up is Python work whatever the workload, so the Python gauge scales it
    imports = import_times(Gauge("python"), IMPORT_REPEATS)
    pool, gen_s = make_pool(wl, seed, Gauge("python"))
    import_s = statistics.median(imports)
    setup_s = import_s + len(pool) * statistics.median(gen_s)

    judge = Judge(wl)
    gauge = Gauge(wl.gauge)
    gauge.read()
    wall, vertices = [], 0
    deadline = perf_counter() + seconds
    while len(wall) < len(pool) or perf_counter() < deadline:
        inst = pool[len(wall) % len(pool)]
        wall.append(judge.timed(inst, len(wall) % len(pool)))
        gauge.read()
        vertices += inst.g.n
    times = [t * gauge.scale(j) for j, t in enumerate(wall)]

    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": setup_s,
        "instance_p50_s": statistics.median(times),
        "instance_tail_s": tail_s,
        "vertices_per_s": vertices / sum(times),
        **quality(pool, judge),
        "ok_frac": 1.0 - judge.tally.failed_frac,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [
        f"times are reference seconds of the {wl.gauge} gauge, whose readings had "
        f"median {statistics.median(gauge.readings):.5f} s against {gauge.ref_s} s; "
        f"wall-clock p50 {statistics.median(wall):.4f} s",
        f"instance_tail_s is p{tail_pct:.1f} of {len(times)} timed operations "
        f"over {len(pool)} instances (10 beyond it)",
        f"setup_s = median import {import_s:.4f} s of {len(imports)} + {len(pool)} instances "
        f"x median generation {statistics.median(gen_s):.4f} s",
        f"failed_frac = {judge.tally.failed_frac:.6g} "
        f"({judge.tally.failed} of {judge.tally.attempted} operations)",
    ]
    return judge.tally, metrics, END_TO_END_UNITS, notes


def slope(points) -> float:
    """Least-squares slope of log(seconds) against log(size); 0 when under 2 points."""
    pts = [(math.log(x), math.log(y)) for x, y in points if y > 0]
    if len(pts) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx if sxx else 0.0


def run_traced(wl, seed: int, seconds: float):
    start = perf_counter()
    tracer = Tracer()
    setup_gauge = Gauge("python")
    pool, _ = make_pool(wl, seed, setup_gauge, lambda: tracer.active("setup"))
    setup_self, _ = tracer.collect()
    setup_scale = statistics.median(setup_gauge.scale(i) for i in range(len(pool)))

    # Main pass: each instance runs untraced, then traced, so both see the same
    # host speed. A gauge reading follows every operation.
    judge = Judge(wl)
    gauge = Gauge(wl.gauge)
    gauge.read()

    def traced_op(inst, key):
        elapsed = judge.timed(inst, key, lambda: tracer.active("op"))
        gauge.read()
        return (elapsed,) + tracer.collect()

    untraced_wall, traced_wall, traced_totals = [], [], []
    work = defaultdict(int)
    while not traced_wall or perf_counter() - start < TRACED_PASS_SHARE * seconds:
        key = len(traced_wall) % len(pool)
        untraced_wall.append(judge.timed(pool[key], key))
        gauge.read()
        elapsed, totals, counts = traced_op(pool[key], key)
        traced_wall.append(elapsed)
        traced_totals.append(totals)
        for metric, value in counts.items():
            work[metric] += value
    ops = len(traced_wall)
    untraced = sum(t * gauge.scale(2 * j) for j, t in enumerate(untraced_wall))
    traced = sum(t * gauge.scale(2 * j + 1) for j, t in enumerate(traced_wall))
    layer_self, layer_calls = defaultdict(float), defaultdict(int)
    for j, totals in enumerate(traced_totals):
        for name, (self_s, calls) in totals.items():
            layer_self[name] += self_s * gauge.scale(2 * j + 1)
            layer_calls[name] += calls

    # Doubling ladder: per-layer self time at each size, repeated while time remains.
    first_reading = len(gauge.readings) - 1
    ladder = [wl.generate(n, instance_seed(seed, 500 + r)) for r, n in enumerate(wl.ladder)]
    gauge.read()
    rung_totals = []  # (n, totals) in the order run
    while not rung_totals or perf_counter() - start < seconds:
        for n, inst in zip(wl.ladder, ladder):
            rung_totals.append((n, traced_op(inst, ("ladder", n))[1]))
    rungs = defaultdict(lambda: defaultdict(list))  # layer -> n -> [reference seconds]
    for j, (n, totals) in enumerate(rung_totals):
        factor = gauge.scale(first_reading + 1 + j)
        for layer in LAYER_NAMES:
            rungs[layer][n].append(totals[layer][0] * factor if layer in totals else 0.0)

    metrics = {}
    for layer in LAYER_NAMES:
        metrics[f"{layer}.self_s"] = layer_self[layer] / ops
        metrics[f"{layer}.calls"] = layer_calls[layer] / ops
        points = [(wl.size(n), statistics.median(v)) for n, v in rungs[layer].items()]
        metrics[f"{layer}.slope"] = slope(points)
    for layer in SETUP_LAYERS:
        seconds_per_instance = setup_self[layer][0] / len(pool) if layer in setup_self else 0.0
        metrics[f"{layer}.setup_self_s"] = seconds_per_instance * setup_scale
    for metric in WORK_NAMES:
        metrics[metric] = work[metric] / ops
    metrics.update(
        {
            "op.self_s": layer_self["op"] / ops,
            "untraced_op_s": untraced / ops,
            "traced_op_s": traced / ops,
            "tracing_overhead_frac": traced / untraced - 1.0,
            "span_self_frac": sum(layer_self.values()) / traced,
            "traced_ops": float(ops),
            "layers_absent": float(len(tracer.absent)),
        }
    )
    notes = [
        f"traced {ops} operations, each also run untraced; "
        f"ladder n={list(wl.ladder)} x {len(rung_totals) // len(wl.ladder)}",
        f"times are reference seconds of the {wl.gauge} gauge; self_s, calls and "
        f"work counts are per traced operation",
        "absent layers: " + (", ".join(tracer.absent) or "none"),
    ]
    if tracer.uncountable:
        notes.append("work counts unavailable: " + ", ".join(sorted(tracer.uncountable)))
    return judge.tally, metrics, per_layer_units(), notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]

    try:
        selftest = self_test(wl, args.seed)
    except SelfTestError as exc:
        print(f"self-test failed: {exc}", file=sys.stderr)
        return 1
    print(
        f"# self-test: {selftest.failed} of {selftest.attempted} checked outputs failed "
        f"(failed_frac {selftest.failed_frac:.4f}); all but the first were corrupted on "
        f"purpose, and each of those was caught"
    )

    run = run_traced if args.trace else run_untraced
    tally, metrics, units, notes = run(wl, args.seed, args.seconds)
    print(f"# workload {wl.name}, seed {args.seed}, trace {args.trace}")
    for note in notes:
        print(f"# {note}")
    for reason in tally.reasons:
        print(f"# FAILED: {reason}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
