"""Span tracing of the library's layers, from outside the library.

`Tracer.install` replaces each layer function with a timing wrapper at every
attribute of the imported `recolor` modules that holds it, which covers calls
made through imported names (`recolor.chordalize.verify_sequence`) and through
module globals (`recolor.bestchoice._extend`, `recolor._kernels.proper_mask`).
`Tracer.uninstall` puts the originals back. A layer the library no longer
has is reported as absent instead of failing the run, so the same benchmark
runs on commits before and after a layer is rewritten or removed.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (layer name, defining module, attribute)
LAYERS = (
    ("reduce_width2", "recolor.decomposition", "reduce_width2"),
    ("validate_decomposition", "recolor.decomposition", "validate_decomposition"),
    ("merge_same_colored", "recolor.chordalize", "merge_same_colored"),
    ("mcs_order", "recolor.decomposition", "mcs_order"),
    ("degeneracy_order", "recolor.decomposition", "degeneracy_order"),
    ("greedy_coloring", "recolor.graphs", "greedy_coloring"),
    ("is_perfect_elimination", "recolor.decomposition", "is_perfect_elimination"),
    ("best_choice_recoloring", "recolor.bestchoice", "best_choice_recoloring"),
    ("extend", "recolor.bestchoice", "_extend"),
    ("lift_sequence", "recolor.chordalize", "lift_sequence"),
    ("two_phase_transform", "recolor.chordalize", "two_phase_transform"),
    ("verify_sequence", "recolor.sequences", "verify_sequence"),
    ("pipeline_theorem", "recolor.chordalize", "pipeline_theorem"),
    ("audit_best_choice", "recolor.sequences", "audit_best_choice"),
    ("out_neighbors", "recolor.decomposition", "out_neighbors"),
    ("bfs_distance", "recolor.oracle", "bfs_distance"),
    ("reconfig_connected", "recolor.oracle", "reconfig_connected"),
    ("proper_mask", "recolor._kernels", "proper_mask"),
    ("bfs_levels", "recolor._kernels", "bfs_levels"),
)
LAYER_NAMES = tuple(name for name, _, _ in LAYERS)

# work counts: (metric, layer, count(args, kwargs, result))
WORK = (
    ("reduce_width2.bags", "reduce_width2", lambda a, kw, r: len(r.bags)),
    ("merge_same_colored.merged_away", "merge_same_colored", lambda a, kw, r: a[0].n - r[0].n),
    ("extend.steps_in", "extend", lambda a, kw, r: len(a[0])),
    ("lift_sequence.steps_out", "lift_sequence", lambda a, kw, r: len(r.steps)),
    ("two_phase_transform.steps", "two_phase_transform", lambda a, kw, r: len(r.steps)),
    ("verify_sequence.steps_replayed", "verify_sequence", lambda a, kw, r: len(a[1].steps)),
    ("proper_mask.states", "proper_mask", lambda a, kw, r: int(r.size)),
    ("bfs_levels.states_reached", "bfs_levels", lambda a, kw, r: int((r >= 0).sum())),
    ("bfs_levels.levels", "bfs_levels", lambda a, kw, r: int(r.max())),
)
WORK_NAMES = tuple(metric for metric, _, _ in WORK)


class Tracer:
    """Records (name, start, end, parent) spans while installed."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.uncountable: set[str] = set()
        self.absent: list[str] = []
        self._sites: list = []
        self._locate()

    def _locate(self) -> None:
        """Find every module attribute that holds a layer function; wrap each once."""
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "recolor" or name.startswith("recolor."))
        ]
        self.absent = []
        self._sites = []
        for layer, modname, attr in LAYERS:
            try:
                original = getattr(importlib.import_module(modname), attr)
            except (ImportError, AttributeError):
                self.absent.append(layer)
                continue
            counters = [(metric, fn) for metric, name, fn in WORK if name == layer]
            wrapper = self._wrap(layer, original, counters)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._sites.append((module, key, original, wrapper))

    def install(self) -> None:
        for module, key, _, wrapper in self._sites:
            setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original, _ in self._sites:
            setattr(module, key, original)

    def _wrap(self, layer, fn, counters):
        spans = self.spans
        stack = self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (layer, start, end, parent)
            for metric, count in counters:
                try:
                    self.counts[metric] += count(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    self.uncountable.add(metric)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def root(self, name: str):
        """A top-level span; time inside it outside every layer is its self time."""
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self.stack.pop()
            self.spans[idx] = (name, start, end, -1)

    @contextmanager
    def active(self, name: str):
        """Trace the enclosed code under a root span named `name`."""
        self.install()
        try:
            with self.root(name):
                yield
        finally:
            self.uninstall()

    def collect(self):
        """Per-name [self seconds, calls] over the spans so far, and the work counts.

        Clears both, so each call reports what happened since the last one.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for (name, start, end, _), covered in zip(self.spans, child_time):
            entry = totals[name]
            entry[0] += end - start - covered
            entry[1] += 1
        counts = dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        return totals, counts
