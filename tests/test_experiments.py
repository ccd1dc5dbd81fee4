import concurrent.futures
import csv

import pytest

import helpers
from recolor import (
    AuditReport,
    AuditViolation,
    ExperimentConfig,
    ImproperStep,
    InvalidInput,
    gen_partial_2tree,
    pipeline_theorem,
    run_experiments,
    write_csv,
)
from recolor import experiments, sequences
from recolor.experiments import CSV_COLUMNS, has_violations


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
        cross_check=False,
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
    config = ExperimentConfig(
        family="partial-2tree", sizes=(10,), seeds=(0,), cross_check=False
    )
    records = run_experiments(config)
    assert [rec.status for rec in records] == ["ok", "ok"]
    assert len(calls) == 2  # one pipeline_theorem replay per direction


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
    config = ExperimentConfig(
        family="partial-2tree", sizes=(10,), seeds=(0, 1, 2), cross_check=False
    )
    records = run_experiments(config)
    assert [(rec.seed, rec.status) for rec in records] == [
        (0, "ok"), (0, "ok"),
        (1, "ImproperStep"), (1, "ImproperStep"),
        (2, "ok"), (2, "ok"),
    ]
    assert records[2].detail == "step 0: injected"
    assert has_violations(records)


def test_parallel_jobs_match_serial():
    config = ExperimentConfig(
        family="chordal-omega3", sizes=(8,), seeds=(0, 1), cross_check=False
    )
    serial = run_experiments(config)
    parallel = run_experiments(
        ExperimentConfig(
            family="chordal-omega3", sizes=(8,), seeds=(0, 1), cross_check=False, jobs=2
        )
    )
    assert [r.row()[:11] for r in serial] == [r.row()[:11] for r in parallel]


def test_jobs_bounded_by_instances_and_cpus(monkeypatch):
    workers = []
    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor", helpers.serial_pool(workers)
    )
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 4)
    base = dict(family="chordal-omega3", sizes=(6,), cross_check=False)
    # jobs=1: in this process, seeds 0..5 in order
    serial = run_experiments(ExperimentConfig(seeds=tuple(range(6)), **base))
    serial = [r.row()[:11] for r in serial]
    assert workers == []
    for jobs, seeds, want in (
        (100_000, (0, 1, 2), [3]),  # one worker per instance at most
        (100_000, tuple(range(6)), [4]),  # one per CPU at most
        (2, (0, 1, 2), [2]),
        (5, (0,), []),  # one instance runs in this process
    ):
        workers.clear()
        records = run_experiments(ExperimentConfig(seeds=seeds, jobs=jobs, **base))
        assert workers == want
        assert [r.row()[:11] for r in records] == serial[: 2 * len(seeds)]
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: None)
    workers.clear()
    run_experiments(ExperimentConfig(seeds=(0, 1), jobs=8, **base))
    assert workers == []


def test_audit_violation_is_a_row(monkeypatch):
    def dirty(seq, peo, g, strict=True):
        violation = AuditViolation(0, "count-bound", None, "injected")
        return AuditReport((0,) * g.n, (0,) * g.n, (0,) * g.n, (violation,))

    monkeypatch.setattr(experiments, "audit_best_choice", dirty)
    config = ExperimentConfig(
        family="chordal-omega3", sizes=(6,), seeds=(0,), cross_check=False
    )
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
