import csv
import re
import time

import pytest

from recolor import (
    AuditReport,
    AuditViolation,
    ExperimentConfig,
    ImproperStep,
    InvalidInput,
    bfs_distance,
    gen_partial_2tree,
    pipeline_theorem,
    run_experiments,
    write_csv,
)
from recolor import decomposition, experiments, sequences
from recolor.experiments import CSV_COLUMNS, FAMILIES, has_violations


def test_chordal_family_runs_clean(tmp_path):
    config = ExperimentConfig(
        family="chordal-omega3", sizes=(6, 12), seeds=(0, 1), state_cap=50_000
    )
    records = run_experiments(config)
    # two directions per instance
    assert len(records) == 8
    assert all(rec.status == "ok" for rec in records)
    assert all(rec.seq_len is not None for rec in records)
    assert all(rec.saved_total is not None for rec in records)
    # n=6 fits under the cap, so the oracle cross-check ran there
    small = [rec for rec in records if rec.n == 6]
    assert all(rec.bfs_distance is not None for rec in small)
    assert all(rec.bfs_distance <= rec.seq_len for rec in small)
    assert not has_violations(records)

    out = tmp_path / "records.csv"
    write_csv(str(out), records)
    with open(out) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 1 + len(records)
    assert all(row[0] == "1" for row in rows[1:])  # schema version column


def test_partial_2tree_family():
    config = ExperimentConfig(
        family="partial-2tree",
        sizes=(10,),
        seeds=(0, 1, 2),
        keep_prob=0.6,
    )
    records = run_experiments(config)
    assert len(records) == 6
    assert all(rec.status == "ok" for rec in records)


def test_one_replay_per_batch_instance(monkeypatch):
    calls = []

    replay = sequences._replay

    def counting(*args):
        calls.append(args)
        return replay(*args)

    # verify_sequence and the builders' private replay both run this loop
    monkeypatch.setattr(sequences, "_replay", counting)
    config = ExperimentConfig(family="partial-2tree", sizes=(10,), seeds=(0,))
    records = run_experiments(config)
    assert [rec.status for rec in records] == ["ok", "ok"]
    assert len(calls) == 2  # one pipeline_theorem replay per direction


def test_one_later_table_per_chordal_instance():
    decomposition._later_table.cache_clear()
    config = ExperimentConfig(family="chordal-omega3", sizes=(30,), seeds=(0,))
    records = run_experiments(config)
    assert [rec.status for rec in records] == ["ok", "ok"]
    # best-choice and its audit, forward and backward: four calls, one build
    info = decomposition._later_table.cache_info()
    assert (info.hits, info.misses) == (3, 1)


def test_exact_search_is_outside_the_rows_times(monkeypatch):
    def slow(g, k, alpha, beta, cap):
        time.sleep(0.2)
        return bfs_distance(g, k, alpha, beta, cap)

    monkeypatch.setattr(experiments, "bfs_distance", slow)
    for family in FAMILIES:
        records = run_experiments(ExperimentConfig(family=family, sizes=(6,), seeds=(0,)))
        assert [rec.status for rec in records] == ["ok", "ok"]
        assert all(rec.bfs_distance is not None for rec in records)
        assert all(rec.runtime_sec < 0.1 for rec in records)


def test_one_exact_search_per_instance(monkeypatch):
    calls = []

    def counting(g, k, alpha, beta, cap):
        calls.append(g.n)
        return bfs_distance(g, k, alpha, beta, cap)

    monkeypatch.setattr(experiments, "bfs_distance", counting)
    for family in FAMILIES:
        calls.clear()
        records = run_experiments(ExperimentConfig(family=family, sizes=(6, 7), seeds=(0, 1)))
        assert calls == [6, 6, 7, 7]
        assert all(rec.status == "ok" for rec in records)
        forward, backward = records[::2], records[1::2]
        assert [r.bfs_distance for r in forward] == [r.bfs_distance for r in backward]
        assert all(r.bfs_distance is not None for r in records)


def test_pipeline_rows_are_cross_checked_at_five_colors():
    # endpoints declared at k = 4 fit the pipeline's palette; its sequences use
    # 5 colors, so the oracle distance they are held to is the 5-color one
    records = run_experiments(ExperimentConfig(family="partial-2tree", sizes=(8,), seeds=(0,), k=4))
    assert [rec.status for rec in records] == ["ok", "ok"]
    assert all(rec.k == 4 and rec.bfs_distance <= rec.seq_len for rec in records)


def test_vertex_cap_stops_the_batch_before_any_work(monkeypatch):
    # any instance run would fail: the cap must stop the batch first
    monkeypatch.setattr(experiments, "_run_instance", None)
    config = ExperimentConfig(family="2tree", sizes=(8, 10**6 + 1), seeds=(0,))
    with pytest.raises(InvalidInput, match=r"^graph declares 1000001 vertices, above 1000000$"):
        run_experiments(config)


@pytest.mark.parametrize("field, value", [("sizes", 5), ("seeds", 3.5), ("sizes", None)])
def test_non_iterable_sizes_or_seeds_rejected(field, value):
    config = ExperimentConfig(**{"family": "2tree", "sizes": (8,), "seeds": (0,), field: value})
    message = f"^{field} must be an iterable of integers, got {value}$"
    with pytest.raises(InvalidInput, match=message):
        run_experiments(config)


@pytest.mark.parametrize("path", ["", "missing-dir/x.csv"])
def test_unwritable_csv_path_rejected(tmp_path, path):
    # a path open cannot create, empty or in a directory that does not exist
    path = str(tmp_path / path) if path else path
    with pytest.raises(InvalidInput, match=f"^path {re.escape(repr(path))} cannot be written: "):
        write_csv(path, [])


def test_seeds_from_a_generator_serve_every_size():
    config = ExperimentConfig(family="2tree", sizes=(4, 5), seeds=(s for s in (0, 1)))
    assert [(rec.n, rec.seed) for rec in run_experiments(config)[::2]] == [
        (4, 0), (4, 1), (5, 0), (5, 1)
    ]


def test_unknown_family_rejected_up_front():
    for family in ("3tree", "explicit"):
        config = ExperimentConfig(family=family, sizes=(8,), seeds=(0,))
        with pytest.raises(InvalidInput, match=f"unknown family '{family}'"):
            run_experiments(config)


def test_failure_on_valid_request_is_a_row(monkeypatch):
    bad = gen_partial_2tree(10, 0.6, 1)

    def failing_on_bad(g, alpha, beta):
        if g == bad:
            raise ImproperStep(0, "injected")
        return pipeline_theorem(g, alpha, beta)

    monkeypatch.setattr(experiments, "pipeline_theorem", failing_on_bad)
    config = ExperimentConfig(family="partial-2tree", sizes=(10,), seeds=(0, 1, 2))
    records = run_experiments(config)
    assert [(rec.seed, rec.status) for rec in records] == [
        (0, "ok"), (0, "ok"),
        (1, "ImproperStep"), (1, "ImproperStep"),
        (2, "ok"), (2, "ok"),
    ]
    assert records[2].detail == "step 0: injected"
    assert has_violations(records)


def test_audit_violation_is_a_row(monkeypatch):
    def dirty(seq, peo, g, strict=True):
        violation = AuditViolation(0, "count-bound", None, "injected")
        return AuditReport((0,) * g.n, (0,) * g.n, (0,) * g.n, (violation,))

    monkeypatch.setattr(experiments, "audit_best_choice", dirty)
    # 5^6 states fit under the cap, so the oracle runs and agrees; the
    # injected violation stays the row's status
    config = ExperimentConfig(family="chordal-omega3", sizes=(6,), seeds=(0,))
    records = run_experiments(config)
    assert [(r.status, r.detail) for r in records] == [("audit-violation", "injected")] * 2
    assert has_violations(records)


@pytest.mark.parametrize("distance", [None, 10**6])
def test_oracle_mismatch_is_a_row(monkeypatch, distance):
    # unreachable, or a shortest sequence longer than the one built
    monkeypatch.setattr(experiments, "bfs_distance", lambda *args: distance)
    config = ExperimentConfig(family="partial-2tree", sizes=(4,), seeds=(0,))
    records = run_experiments(config)
    assert [r.status for r in records] == ["oracle-mismatch"] * 2
    assert all(r.bfs_distance == distance for r in records)
    length = records[0].seq_len
    assert records[0].detail == f"bfs distance {distance} vs sequence length {length}"
    assert has_violations(records)
