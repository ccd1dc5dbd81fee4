"""A gauge of the host's current speed, read between timed operations.

The benchmark runs on shared hosts whose speed drifts by a fifth or more over
periods of seconds to minutes, in wall and CPU time alike, so more samples
per run do not average it out. The gauge times a fixed reference task before
and after every operation. An operation's wall time, times the task's
reference duration, divided by the median of the readings around it, is the
time the operation would take on a host where the task takes exactly its
reference duration: "reference seconds". The tasks never call the library,
so a change to the library cannot move them.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

_TABLE = tuple(range(1009))
_MEMBERS = frozenset(range(0, 1009, 3))


class PythonTask:
    """Interpreter-bound work like the library's: indexing, set lookups, int ops.

    It allocates no containers, so it never triggers the garbage collector,
    whose cost would depend on how many objects the library keeps alive.
    """

    ref_s = 0.0045  # about its duration on an idle 2-core x86 host

    def __call__(self) -> int:
        acc = 0
        table, members = _TABLE, _MEMBERS
        for i in range(40000):
            v = table[(i * 7919) % 1009]
            if v in members:
                acc += v & 7
            else:
                acc ^= i
        return acc


class NumpyTask:
    """Memory-bound array work like the oracle kernels: digit extraction over packed codes.

    It writes into buffers it owns, so its time does not depend on how the
    allocator was left by the library's own arrays.
    """

    ref_s = 0.003  # about its duration on an idle 2-core x86 host

    def __init__(self, size: int = 400_000):
        self.codes = np.arange(size, dtype=np.int64)
        self.low = np.empty_like(self.codes)
        self.high = np.empty_like(self.codes)
        self.differ = np.empty(size, dtype=np.bool_)

    def __call__(self) -> int:
        np.floor_divide(self.codes, 125, out=self.low)
        np.remainder(self.low, 5, out=self.low)
        np.floor_divide(self.codes, 625, out=self.high)
        np.remainder(self.high, 5, out=self.high)
        np.not_equal(self.low, self.high, out=self.differ)
        return int(np.count_nonzero(self.differ))


class MixedTask:
    """Both tasks back to back, for operations that are partly interpreter-bound."""

    def __init__(self):
        self.parts = (PythonTask(), NumpyTask())
        self.ref_s = sum(part.ref_s for part in self.parts)

    def __call__(self) -> None:
        for part in self.parts:
            part()


TASKS = {"python": PythonTask, "mixed": MixedTask}


class Gauge:
    def __init__(self, kind: str):
        self.task = TASKS[kind]()
        self.ref_s = self.task.ref_s
        self.readings: list[float] = []

    def read(self) -> None:
        t0 = perf_counter()
        self.task()
        self.readings.append(perf_counter() - t0)

    def scale(self, j: int) -> float:
        """Factor from wall to reference seconds for work done between readings j and j+1."""
        window = self.readings[max(0, j - 2) : j + 4]
        return self.ref_s / statistics.median(window)
