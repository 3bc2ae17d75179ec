"""The one worker fleet: supervisor policy, a gone fleet, kill-and-replace.

:meth:`Fleet.step` is driven by hand against fake handles and a lease
table on a fake clock (no sockets, no sleeps).  Two end-to-end cases
then run the real supervisor beside a real coordinator: a fleet whose
workers all exit at once stops the coordinator instead of waiting out
its deadline, and a thread worker hung past its lease is killed and
replaced, and never reconnects once its hang ends.
"""

import signal
import time

from test_cli_dist import FakeProc
from test_lease import table

from repro.dist.coordinator import Coordinator
from repro.dist.fleet import Fleet, thread_spawner
from repro.dist.harness import SMOKE_SPEC, solo_records
from repro.dist.worker import Worker
from repro.faults.chaos import ChaosPolicy
from repro.runtime.executor import RetryPolicy


class StandIn:
    """The coordinator surface a fleet touches, over a bare lease table."""

    def __init__(self, table):
        self.table = table
        self.stopped = False

    def release_worker(self, name):
        return self.table.release_worker(name)

    def stop(self):
        self.stopped = True


def named(*procs):
    """A spawner handing out ``procs`` as ``dw<i>``, then running fakes."""
    def spawn(index):
        proc = procs[index] if index < len(procs) else FakeProc(running=True)
        proc.name = f"dw{index}"
        return proc

    return spawn


def fleet_over(lease_table, *procs):
    fleet = Fleet(StandIn(lease_table), named(*procs))
    for _ in procs:
        fleet.launch()
    return fleet


def names(fleet):
    return [handle.name for handle in fleet.handles]


class TestStep:
    def test_running_worker_without_overrun_is_left_alone(self):
        t, _ = table(n=2)
        worker = FakeProc(running=True)
        fleet = fleet_over(t, worker)
        t.acquire("dw0")
        assert fleet.step()
        assert not worker.killed
        assert names(fleet) == ["dw0"]

    def test_running_worker_with_overrun_is_killed(self):
        t, clock = table(n=2, lease_s=1.0)
        hung = FakeProc(running=True)
        fleet = fleet_over(t, hung)
        t.acquire("dw0")
        clock.advance(1.0)
        t.expire()
        assert fleet.step()
        assert hung.killed
        assert t.overruns == {"dw0": 1}
        # The expired lease was a charged attempt: dw1 replaces dw0.
        assert names(fleet) == ["dw0", "dw1"]

    def test_exit_after_charged_attempt_is_replaced_under_fresh_name(self):
        t, _ = table(n=2)
        fleet = fleet_over(t, FakeProc(code=9))
        t.acquire("dw0")  # held when the worker died
        assert fleet.step()
        assert t.lost == {"dw0": 1}
        assert names(fleet) == ["dw0", "dw1"]
        assert not fleet.coordinator.stopped

    def test_exit_with_nothing_lost_is_not_replaced(self):
        t, _ = table(n=2)
        fleet = fleet_over(t, FakeProc(code=3), FakeProc(running=True))
        assert fleet.step()
        assert names(fleet) == ["dw0", "dw1"]
        assert t.lost == {}
        assert not fleet.coordinator.stopped

    def test_no_replacement_once_the_table_is_done(self):
        t, clock = table(n=1, lease_s=1.0)
        fleet = fleet_over(t, FakeProc(code=3))
        t.acquire("dw0")
        clock.advance(1.0)
        t.expire()  # dw0 lost an attempt ...
        retry = t.acquire("other")
        assert t.commit(retry.unit_id, retry.lease_id, "other", "d") \
            == "committed"
        assert t.done  # ... but another worker finished the campaign
        assert not fleet.step()
        assert names(fleet) == ["dw0"]
        assert not fleet.coordinator.stopped

    def test_fleet_that_is_gone_stops_the_coordinator(self):
        t, _ = table(n=2)
        fleet = fleet_over(t, FakeProc(code=3), FakeProc(code=0))
        assert not fleet.step()
        assert fleet.coordinator.stopped


class TestGoneFleet:
    def test_coordinator_returns_incomplete_well_under_deadline(
        self, tmp_path
    ):
        """The in-process twin of ``test_cli_dist.py``'s all-die case."""
        coordinator = Coordinator(SMOKE_SPEC, cache_dir=str(tmp_path))
        coordinator.start()
        dead = [FakeProc(code=1), FakeProc(code=1)]
        start = time.monotonic()
        try:
            with Fleet(coordinator, named(*dead)) as fleet:
                fleet.launch()
                fleet.launch()
                summary = fleet.run(timeout=60.0)
        finally:
            coordinator.stop()
        assert time.monotonic() - start < 10.0
        assert not summary.complete
        assert summary.committed == 0
        assert names(fleet) == ["dw0", "dw1"]


class TestKillAndReplace:
    LEASE_S = 1.0

    def test_hung_thread_worker_is_killed_and_replaced(self, tmp_path):
        cache = str(tmp_path / "cache")
        coordinator = Coordinator(
            SMOKE_SPEC, cache_dir=cache, lease_s=self.LEASE_S,
            policy=RetryPolicy(max_attempts=3, backoff_base_s=0.0),
            max_grant=1,
        )
        port = coordinator.start()
        hang = ChaosPolicy(hang_prob=1.0, hang_s=3.0)

        def make_worker(index):
            return Worker(
                "127.0.0.1", port, name=f"hw{index}",
                cell_chaos=hang if index == 0 else None,
            )

        try:
            with Fleet(coordinator, thread_spawner(make_worker)) as fleet:
                hung = fleet.launch()
                fleet.supervise()
                # The coordinator still listens while the hang runs out:
                # the killed worker's run() must return, not reconnect.
                hung.join(timeout=30.0)
                assert not hung.is_alive()
                summary = coordinator.run(timeout=60.0)
        finally:
            coordinator.stop()
        assert hung.poll() == -signal.SIGKILL
        assert hung.worker.killed
        assert coordinator.table.overruns == {"hw0": 1}
        assert names(fleet) == ["hw0", "hw1"]  # exactly one replacement
        assert fleet.handles[1].poll() == 0
        assert summary.complete
        assert summary.quarantined == []
        assert summary.workers_seen == 2
        assert solo_records(SMOKE_SPEC, cache) \
            == solo_records(SMOKE_SPEC, None)
