"""Batch experiment runner producing CSV records.

Each instance is transformed in both directions; sequences are verified,
audited where the direct greedy algorithm was used, and cross-checked
against the exhaustive search when the state space fits under the cap. The
exact distance is searched once per instance, before either row is timed,
and recorded on both rows.
Instances run in order in the calling process.
A request the library rejects (a generator's InvalidSize or InvalidInput, a
size above MAX_JSON_VERTICES, an InvalidInput or InvalidColoring for the
requested k, a TooLarge state space) stops the batch with that error; a
failure on a valid request is recorded as a row. Every graph is built before
any instance runs, so a rejection of the requested sizes or parameters
raises before the batch does any work.
"""

from __future__ import annotations

import csv
import os
import time
from collections import Counter
from dataclasses import dataclass, fields
from typing import Optional

from .bestchoice import best_choice_recoloring
from .chordalize import pipeline_theorem
from .decomposition import degeneracy_order, mcs_order
from .errors import InvalidInput, RecolorError, TooLarge
from .graphs import (
    Graph,
    _require_instance,
    _require_int,
    gen_2tree,
    gen_chordal_omega3,
    gen_partial_2tree,
    greedy_coloring,
    random_proper_coloring,
)
from .oracle import DEFAULT_STATE_CAP, _within, bfs_distance
from .sequences import audit_best_choice

CSV_SCHEMA_VERSION = 1

FAMILIES = ("chordal-omega3", "2tree", "partial-2tree")


@dataclass(frozen=True)
class ExperimentConfig:
    family: str
    sizes: tuple[int, ...]
    seeds: tuple[int, ...]
    k: int = 5
    keep_prob: float = 0.6
    state_cap: int = DEFAULT_STATE_CAP


@dataclass
class ExperimentRecord:
    family: str
    instance_id: str
    n: int
    k: int
    seed: int
    direction: str
    status: str
    seq_len: Optional[int] = None
    max_per_vertex: Optional[int] = None
    saved_total: Optional[int] = None
    bfs_distance: Optional[int] = None
    runtime_sec: float = 0.0
    detail: str = ""

    def row(self) -> list:
        cells = {f.name: getattr(self, f.name) for f in fields(self)}
        cells["runtime_sec"] = f"{self.runtime_sec:.6f}"
        return [CSV_SCHEMA_VERSION] + ["" if x is None else x for x in cells.values()]


CSV_COLUMNS = ["schema_version"] + [f.name for f in fields(ExperimentRecord)]


def _build_graph(family: str, n: int, keep_prob: float, seed: int) -> Graph:
    if family == "chordal-omega3":
        return gen_chordal_omega3(n, seed)
    if family == "2tree":
        return gen_2tree(n, seed)
    return gen_partial_2tree(n, keep_prob, seed)


def _run_instance(config: ExperimentConfig, g: Graph, seed: int) -> list[ExperimentRecord]:
    records = []
    k = config.k
    chordal_direct = config.family == "chordal-omega3"
    if chordal_direct:
        peo = mcs_order(g)
        alpha = random_proper_coloring(g, peo, k, seed * 2 + 1)
        beta = greedy_coloring(g, peo)
    else:
        order = degeneracy_order(g)
        alpha = random_proper_coloring(g, order, k, seed * 2 + 1)
        beta = random_proper_coloring(g, order, k, seed * 2 + 2)
    # the pipeline's sequences use 5 colors whatever k its endpoints declare
    palette = k if chordal_direct else 5
    cross_check = _within(palette, g.n, config.state_cap)
    # the state graph is undirected, so one search serves both directions; it
    # runs before either row's clock starts
    exact = bfs_distance(g, palette, alpha, beta, config.state_cap) if cross_check else None

    for direction, src, dst in (("forward", alpha, beta), ("backward", beta, alpha)):
        rec = ExperimentRecord(
            family=config.family,
            instance_id=f"{config.family}-n{g.n}-s{seed}",
            n=g.n,
            k=k,
            seed=seed,
            direction=direction,
            status="ok",
        )
        t0 = time.perf_counter()
        try:
            if chordal_direct:
                seq = best_choice_recoloring(g, peo, src, dst, k)
                report = audit_best_choice(seq, peo, g, strict=False)
                rec.saved_total = sum(report.saved)
                if not report.clean:
                    rec.status = "audit-violation"
                    rec.detail = report.violations[0].detail
            else:
                seq = pipeline_theorem(g, src, dst)
            rec.seq_len = len(seq.steps)
            rec.max_per_vertex = max(Counter(v for v, _ in seq.steps).values(), default=0)
            if cross_check:
                rec.bfs_distance = exact
                if exact is None or exact > len(seq.steps):
                    rec.status = "oracle-mismatch"
                    rec.detail = f"bfs distance {exact} vs sequence length {len(seq.steps)}"
        except (InvalidInput, TooLarge):
            raise
        except RecolorError as exc:
            rec.status = type(exc).__name__
            rec.detail = str(exc)
        rec.runtime_sec = time.perf_counter() - t0
        records.append(rec)
    return records


def _tuple_of(name: str, values) -> tuple:
    """`values` as a tuple; InvalidInput naming the field when it is not iterable."""
    try:
        return tuple(values)
    except TypeError:
        raise InvalidInput(f"{name} must be an iterable of integers, got {values!r}") from None


def run_experiments(config: ExperimentConfig) -> list[ExperimentRecord]:
    _require_instance("config", config, ExperimentConfig)
    if config.family not in FAMILIES:
        raise InvalidInput(f"unknown family {config.family!r}")
    sizes, seeds = _tuple_of("sizes", config.sizes), _tuple_of("seeds", config.seeds)
    if not (sizes and seeds):
        raise InvalidInput("no sizes or no seeds: the batch would check nothing")
    _require_int("state cap", config.state_cap, 1)
    graphs = [
        (_build_graph(config.family, n, config.keep_prob, seed), seed)
        for n in sizes
        for seed in seeds
    ]
    return [rec for g, seed in graphs for rec in _run_instance(config, g, seed)]


def has_violations(records: list[ExperimentRecord]) -> bool:
    """True when any record reflects a broken guarantee."""
    return any(rec.status != "ok" for rec in records)


def write_csv(path: str | os.PathLike, records: list[ExperimentRecord]) -> None:
    """Write the records as CSV; an int path, a file descriptor `open` would close, is rejected."""
    _require_instance("path", path, (str, os.PathLike))
    _require_instance("records", records, list)
    for rec in records:
        _require_instance("records entry", rec, ExperimentRecord)
    try:
        handle = open(path, "w", newline="")
    except OSError as exc:
        raise InvalidInput(f"path {os.fspath(path)!r} cannot be written: {exc.strerror}") from exc
    with handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow(rec.row())
