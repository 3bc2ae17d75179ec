"""Resilient-executor tests: retry, backoff (fake clock), quarantine.

The engine retries in-process only; crashes and hangs are lease expiry
on the coordinator (``tests/dist``).  A killed attempt is retried by the
lease table, which the transient-kill test drives directly.  Under a
policy the engine runs the same fused path as a fail-fast one, isolated:
only a cell whose own attempt fails leaves its chunk.
"""

import itertools
import json
import os

import pytest

import repro.runtime.executor as executor
from repro.cpu.pipeline import run_workloads
from repro.dist.lease import LeaseTable, WorkUnit
from repro.errors import ConfigurationError
from repro.faults.chaos import ChaosPolicy, chaos_injection
from repro.runtime.cache import RunCache
from repro.runtime.executor import (
    CampaignEngine,
    Cell,
    FailedCell,
    RetryPolicy,
    run_items,
)
from repro.runtime.serialize import run_result_to_dict


@pytest.fixture
def cells(simple_workload, compute_workload, bandwidth_workload, emr,
          device_a):
    workloads = (simple_workload, compute_workload, bandwidth_workload)
    return [Cell(w, emr, device_a) for w in workloads]


@pytest.fixture
def grid(simple_workload, compute_workload, bandwidth_workload, emr,
         device_a, device_b):
    workloads = (simple_workload, compute_workload, bandwidth_workload)
    return [
        Cell(w, emr, t) for w in workloads for t in (device_a, device_b)
    ]


def dumped(results):
    return [json.dumps(run_result_to_dict(r), sort_keys=True)
            for r in results]


def resilient_engine(**policy_kwargs):
    defaults = dict(max_attempts=3, backoff_base_s=0.0)
    defaults.update(policy_kwargs)
    return CampaignEngine(
        cache=RunCache(), policy=RetryPolicy(**defaults)
    )


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError, match="jitter_frac"):
            RetryPolicy(jitter_frac=1.5)
        with pytest.raises(ConfigurationError, match="backoff_max_s"):
            RetryPolicy(backoff_base_s=1.0, backoff_max_s=0.5)

    def test_backoff_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_base_s=0.1, backoff_factor=2.0,
                             backoff_max_s=0.5, jitter_frac=0.25, seed=4)
        for attempt in range(1, 6):
            a = policy.backoff_s("cell-x", attempt)
            assert a == policy.backoff_s("cell-x", attempt)
            nominal = min(0.1 * 2.0 ** (attempt - 1), 0.5)
            assert nominal * 0.75 <= a <= nominal * 1.25

    def test_zero_base_never_sleeps(self):
        policy = RetryPolicy(backoff_base_s=0.0, backoff_max_s=2.0)
        assert policy.backoff_s("cell-x", 1) == 0.0


class TestQuarantine:
    def test_doomed_cell_quarantined_others_survive(self, cells):
        engine = resilient_engine()
        doomed = cells[1].key()
        with chaos_injection(ChaosPolicy(doomed=(doomed,))):
            results = engine.run_cells(cells)
        assert results[0] is not None and results[2] is not None
        assert results[1] is None
        [record] = engine.failed
        assert record.key == doomed
        assert record.reason == "error"
        assert record.attempts == 3
        assert record.workload == cells[1].workload.name
        assert engine.stats.cells_quarantined == 1
        assert engine.stats.cells_retried == 2
        assert "quarantined" in engine.stats.summary()

    def test_quarantined_cell_not_cached_and_not_rerun(self, cells):
        engine = resilient_engine()
        doomed = cells[0].key()
        with chaos_injection(ChaosPolicy(doomed=(doomed,))):
            engine.run_cells(cells)
        assert engine.cache.get(doomed) is None
        ran_before = engine.stats.cells_run
        again = engine.run_cells(cells)  # no chaos needed: ledger blocks it
        assert again[0] is None
        assert engine.stats.cells_run == ran_before
        assert len(engine.failed) == 2  # re-reported per requesting batch

    def test_restore_quarantine_short_circuits(self, cells):
        record = FailedCell(
            key=cells[2].key(), workload=cells[2].workload.name,
            platform="EMR2S", target=cells[2].target.name,
            attempts=3, reason="crash",
        )
        engine = resilient_engine()
        assert engine.restore_quarantine([record]) == 1
        results = engine.run_cells(cells)
        assert results[2] is None
        assert engine.stats.cells_run == 2
        assert engine.failed == [record]

    def test_failed_cell_round_trips(self):
        record = FailedCell(
            key="k", workload="w", platform="p", target="t",
            attempts=2, reason="timeout", message="cell exceeded 1.0s",
        )
        assert FailedCell.from_dict(record.to_dict()) == record


class TestBackoffClock:
    def test_backoff_uses_injected_clock_no_real_sleep(self, cells):
        engine = resilient_engine(
            backoff_base_s=0.5, backoff_factor=2.0, backoff_max_s=4.0,
            jitter_frac=0.25, seed=11,
        )
        slept = []
        engine.sleep_fn = slept.append
        doomed = cells[0].key()
        with chaos_injection(ChaosPolicy(doomed=(doomed,))):
            engine.run_cells([cells[0]])
        policy = engine.policy
        # Two retries -> exactly the seeded schedule, through the fake
        # clock only (real sleeps of 0.5s+ would blow the test budget).
        assert slept == [
            policy.backoff_s(doomed, 1),
            policy.backoff_s(doomed, 2),
        ]

    def test_transient_kill_retried_to_success(self, cells, monkeypatch):
        # Nothing in the engine survives a kill: the worker process dies,
        # the fleet releases its lease (charging the attempt) and starts a
        # replacement, which gets the unit once its backoff has passed on
        # the table's clock.  Here the kill is caught at os._exit, as a
        # BaseException that no cell outcome can swallow.
        class Killed(BaseException):
            pass

        def killed(code):
            raise Killed(code)

        monkeypatch.setattr(os, "_exit", killed)
        now = [0.0]
        policy = RetryPolicy(max_attempts=2, backoff_base_s=0.5,
                             jitter_frac=0.0)
        units = [
            WorkUnit(unit_id=f"u{i}", kind="grid", workload=f"w{i}",
                     target="CXL-A", key=cell.key())
            for i, cell in enumerate(cells)
        ]
        cell_of = {unit.unit_id: cell for unit, cell in zip(units, cells)}
        table = LeaseTable(units, policy=policy, clock=lambda: now[0])
        workers = (f"dw{i}" for i in itertools.count())
        worker = next(workers)
        results, slept = {}, []
        chaos = ChaosPolicy(kill_prob=1.0, max_sabotaged_attempt=1, seed=3)
        with chaos_injection(chaos):
            while not table.done:
                lease = table.acquire(worker)
                if lease is None:
                    slept.append(table.next_ready_s())
                    now[0] += slept[-1]
                    continue
                cell = cell_of[lease.unit_id]
                try:
                    [(outcomes, _)] = run_items(
                        [(cell, cell.key(), lease.attempt)]
                    )
                except Killed:
                    assert len(table.release_worker(worker)) == 1
                    worker = next(workers)
                    continue
                [(_, results[lease.unit_id])] = outcomes
                assert table.commit(lease.unit_id, lease.lease_id, worker,
                                    cell.key()) == "committed"
        assert table.quarantined() == []
        assert table.lost == {"dw0": 1, "dw1": 1, "dw2": 1}
        assert table.counters["released"] == len(cells)
        # Every unit parked behind the same backoff, waited on the fake
        # clock only.
        assert slept == [policy.backoff_s(cells[0].key(), 1)]
        serial = CampaignEngine(cache=RunCache()).run_cells(cells)
        assert [results[unit.unit_id] for unit in units] == serial


class TestFusedUnderPolicy:
    """A resilient engine fuses like a fail-fast one, isolated."""

    def test_doomed_cell_leaves_its_chunk_mates_fused(self, grid,
                                                      monkeypatch):
        monkeypatch.setattr(executor, "ANALYTIC_CHUNK_CELLS", 3)
        engine = resilient_engine(
            backoff_base_s=0.5, backoff_factor=2.0, backoff_max_s=4.0,
            jitter_frac=0.25, seed=7,
        )
        slept = []
        engine.sleep_fn = slept.append
        doomed = grid[1].key()  # mid-chunk of the first chunk of three
        with chaos_injection(ChaosPolicy(doomed=(doomed,))):
            results = engine.run_cells(grid)
        serial = CampaignEngine(cache=RunCache(), mode="serial") \
            .run_cells(grid)
        assert engine.stats.cells_batched == len(grid) - 1
        assert results[1] is None
        assert dumped(results[:1] + results[2:]) \
            == dumped(serial[:1] + serial[2:])
        [record] = engine.failed
        assert (record.key, record.attempts) == (doomed, 3)
        assert engine.stats.cells_retried == 2
        assert engine.stats.cells_quarantined == 1
        policy = engine.policy
        assert slept == [
            policy.backoff_s(doomed, 1),
            policy.backoff_s(doomed, 2),
        ]

    def test_raising_chunk_reruns_its_cells_alone(self, grid, tmp_path,
                                                  monkeypatch):
        calls = []

        def second_chunk_fails(cells):
            calls.append(cells)
            if len(calls) == 2:
                raise RuntimeError("a genuine run failure")
            return run_workloads(cells)

        monkeypatch.setattr(executor, "ANALYTIC_CHUNK_CELLS", 3)
        monkeypatch.setattr(executor, "run_workloads", second_chunk_fails)
        engine = CampaignEngine(
            cache=RunCache(str(tmp_path)),
            policy=RetryPolicy(max_attempts=3, backoff_base_s=0.0),
        )
        results = engine.run_cells(grid)
        assert len(calls) == 2
        assert engine.stats.cells_batched == 3
        assert engine.stats.cells_serial == 3
        assert engine.stats.cells_retried == 0
        assert engine.failed == []
        fresh = RunCache(str(tmp_path))
        assert all(fresh.get(cell.key()) is not None for cell in grid)
        serial = CampaignEngine(cache=RunCache(), mode="serial") \
            .run_cells(grid)
        assert dumped(results) == dumped(serial)
