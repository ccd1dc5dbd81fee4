"""Benchmark runner: each workload in its own process, one thread each.

    python3 perfbench/run.py --workload pipeline-p2t --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the repository root. `--trace 0` prints the end-to-end metrics and
`--trace 1` the per-layer ones (see BENCHMARK.json). The last line of a
single-workload run is its JSON result. The runner caps the numpy and BLAS
thread pools at one thread and waits for every process it starts.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("pipeline-p2t", "chordal-audit", "oracle-small")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMBA_NUM_THREADS",
)
# a workload process must end within this many seconds beyond its --seconds
GRACE_S = 120


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "recolor" / "__init__.py").is_file():
        print(f"error: library source {SRC / 'recolor'} not found", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        cmd = [
            sys.executable,
            str(HERE / "measure.py"),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        try:
            done = subprocess.run(cmd, env=child_env(), timeout=args.seconds + GRACE_S)
        except subprocess.TimeoutExpired:
            print(f"error: workload {name} did not finish in time", file=sys.stderr)
            return 3
        if done.returncode != 0:
            print(f"error: workload {name} exited with {done.returncode}", file=sys.stderr)
            return done.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main())
