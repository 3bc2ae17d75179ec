"""Worker lifetime edges: killing a hung worker and the reconnect budget.

A local fleet worker hung in a cell must be killed once its lease is
over (the coordinator has already expired the lease and charged the
attempt), so the fleet supervisor can replace it; and a worker's
reconnect budget must bound only *consecutive* failed connection
attempts, never the campaign's length.
"""

import os
import signal
import sys
import textwrap
import threading
import time

import repro
from repro.dist.coordinator import Coordinator
from repro.dist.fleet import Fleet, subprocess_spawner
from repro.dist.harness import SMOKE_SPEC, solo_records
from repro.dist.worker import Worker
from repro.faults.chaos import NetChaosPolicy
from repro.runtime.executor import RetryPolicy

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

# Worker dw0 hangs in its first cell; its replacements are healthy.
FLEET_WORKER = textwrap.dedent("""\
    import sys
    sys.path.insert(0, sys.argv[1])
    from repro.dist.worker import Worker
    from repro.faults.chaos import ChaosPolicy

    name = sys.argv[3]
    worker = Worker(
        host="127.0.0.1", port=int(sys.argv[2]), name=name,
        cell_chaos=(ChaosPolicy(hang_prob=1.0, hang_s=120.0)
                    if name == "dw0" else None),
        hard_exit=True,
    )
    sys.exit(worker.run())
""")


def run_in_thread(worker):
    codes = []
    thread = threading.Thread(
        target=lambda: codes.append(worker.run()), daemon=True
    )
    thread.start()
    return thread, codes


class TestHangKill:
    LEASE_S = 1.0

    def test_hung_worker_killed_and_unit_succeeds_on_retry(self, tmp_path):
        coordinator = Coordinator(
            SMOKE_SPEC, cache_dir=str(tmp_path / "cache"),
            lease_s=self.LEASE_S,
            policy=RetryPolicy(max_attempts=3, backoff_base_s=0.0),
            max_grant=1,
        )
        port = coordinator.start()
        script = tmp_path / "worker.py"
        script.write_text(FLEET_WORKER)
        try:
            with Fleet(coordinator, subprocess_spawner(lambda index: [
                sys.executable, str(script), SRC_DIR, str(port),
                f"dw{index}",
            ])) as fleet:
                hanger = fleet.launch()
                fleet.supervise()
                while not coordinator.table.counters["granted"]:
                    assert hanger.poll() is None, "died before a grant"
                    time.sleep(0.01)
                granted = time.monotonic()
                code = hanger.wait(timeout=30)
                killed_after = time.monotonic() - granted
                summary = coordinator.run(timeout=120)
                workers = len(fleet.handles)
        finally:
            coordinator.stop()
        assert code == -signal.SIGKILL
        # One expiry tick and one supervisor poll past the lease.
        assert self.LEASE_S <= killed_after < self.LEASE_S + 0.75
        assert coordinator.table.overruns == {"dw0": 1}
        assert workers == 2  # one replacement, for one charged attempt

        # Attempt 2 of the hung unit ran clean on the replacement.
        assert summary.complete
        assert summary.quarantined == []
        assert solo_records(SMOKE_SPEC, str(tmp_path / "cache")) \
            == solo_records(SMOKE_SPEC, None)


class TestReconnectBudget:
    def test_budget_counts_consecutive_failures_only(self, tmp_path):
        coordinator = Coordinator(
            SMOKE_SPEC, cache_dir=str(tmp_path / "cache"),
            lease_s=10.0,
            policy=RetryPolicy(max_attempts=5, backoff_base_s=0.0),
        )
        port = coordinator.start()
        worker = Worker(
            "127.0.0.1", port, name="flaky",
            net_chaos=NetChaosPolicy(drop_prob=0.25, seed=0),
            reconnect_attempts=2,
        )
        thread, _ = run_in_thread(worker)
        summary = coordinator.run(timeout=30)
        thread.join(timeout=10)
        # More sessions than the budget: only consecutive failures count.
        # (The worker may still exit 3 after the campaign settled: its
        # last reconnects find the coordinator gone.)
        assert summary.workers_seen >= 3
        assert summary.complete
