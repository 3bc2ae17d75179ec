"""Lease state-machine edge cases, driven with an injectable fake clock.

The satellite scenarios the issue names live here explicitly: expiry
exactly at the deadline, a reassignment racing the original holder's
late result, and duplicate commits being rejected (identical digest) or
flagged (divergent digest).
"""

import pytest

from repro.dist.lease import Lease, LeaseTable, WorkUnit
from repro.errors import MelodyError
from repro.runtime.executor import RetryPolicy


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, by):
        self.now += by


def units(n, kind="grid"):
    return [
        WorkUnit(
            unit_id=f"u{i}", kind=kind, workload=f"w{i}",
            target="CXL-A", key=f"key{i}", platform="EMR2S",
        )
        for i in range(n)
    ]


def table(n=1, max_attempts=3, lease_s=10.0, backoff=0.0):
    clock = FakeClock()
    policy = RetryPolicy(
        max_attempts=max_attempts, backoff_base_s=backoff,
        backoff_max_s=max(backoff, 2.0), jitter_frac=0.0,
    )
    return LeaseTable(
        units(n), policy=policy, lease_s=lease_s, clock=clock
    ), clock


class TestGrant:
    def test_attempt_charged_at_grant(self):
        t, clock = table()
        lease = t.acquire("alpha")
        assert lease.attempt == 1
        assert lease.granted_at == clock.now
        assert lease.deadline == clock.now + 10.0

    def test_nothing_pending_returns_none(self):
        t, _ = table(n=1)
        assert t.acquire("alpha") is not None
        assert t.acquire("beta") is None

    def test_duplicate_unit_ids_rejected(self):
        bad = units(1) + units(1)
        with pytest.raises(MelodyError):
            LeaseTable(bad)

    def test_nonpositive_lease_rejected(self):
        with pytest.raises(MelodyError):
            LeaseTable(units(1), lease_s=0.0)


class TestGrants:
    def test_grant_fills_in_order_with_staggered_deadlines(self):
        # A worker runs its grant in order: lease i waits for i others.
        t, clock = table(n=5)
        grant = t.acquire_many("alpha", 3)
        assert [lease.unit_id for lease in grant] == ["u0", "u1", "u2"]
        assert [lease.attempt for lease in grant] == [1, 1, 1]
        assert [lease.deadline - clock.now for lease in grant] \
            == [10.0, 20.0, 30.0]
        assert len({lease.lease_id for lease in grant}) == 3
        assert t.progress()["leased"] == 3

    def test_retried_unit_is_granted_alone(self):
        t, _ = table(n=4)
        first, _second = t.acquire_many("alpha", 2)
        t.fail(first.unit_id, first.lease_id, "alpha", "error", "boom")
        retry = t.acquire_many("beta", 4)
        assert [(lease.unit_id, lease.attempt) for lease in retry] \
            == [("u0", 2)]
        assert [lease.unit_id for lease in t.acquire_many("beta", 4)] \
            == ["u2", "u3"]

    def test_backoff_gated_unit_is_skipped_not_blocking(self):
        t, clock = table(n=3, backoff=5.0)
        (lease,) = t.acquire_many("alpha", 1)
        t.fail(lease.unit_id, lease.lease_id, "alpha", "error", "boom")
        assert [l.unit_id for l in t.acquire_many("beta", 3)] \
            == ["u1", "u2"]
        assert t.acquire_many("beta", 3) == []
        clock.advance(5.0)
        assert [l.unit_id for l in t.acquire_many("beta", 3)] == ["u0"]

    def test_expire_and_release_touch_only_their_leases(self):
        t, clock = table(n=4)
        t.acquire_many("alpha", 2)
        t.acquire_many("beta", 2)
        clock.advance(10.0)
        # Only the first lease of each grant is at its deadline.
        assert sorted(l.unit_id for l in t.expire()) == ["u0", "u2"]
        assert [l.unit_id for l in t.release_worker("beta")] == ["u3"]
        assert [l.unit_id for l in t.outstanding()] == ["u1"]


class TestExpiry:
    def test_no_expiry_before_deadline(self):
        t, clock = table()
        t.acquire("alpha")
        clock.advance(10.0 - 1e-6)
        assert t.expire() == []

    def test_expiry_exactly_at_deadline(self):
        # now >= deadline: a clock landing on the boundary reassigns
        # rather than trusting a worker provably out of time.
        t, clock = table()
        lease = t.acquire("alpha")
        clock.advance(10.0)
        reaped = t.expire()
        assert [r.lease_id for r in reaped] == [lease.lease_id]
        assert t.counters["expired"] == 1

    def test_expired_unit_regrants_with_attempt_charged(self):
        t, clock = table()
        t.acquire("alpha")
        clock.advance(10.0)
        t.expire()
        second = t.acquire("beta")
        assert second.attempt == 2
        assert second.worker == "beta"


class TestReassignmentRace:
    def race(self):
        """Lease to alpha, expire it, re-lease to beta; return both."""
        t, clock = table(max_attempts=5)
        first = t.acquire("alpha")
        clock.advance(10.0)
        t.expire()
        second = t.acquire("beta")
        return t, first, second

    def test_late_result_from_original_holder_wins(self):
        # Work is deterministic, so the stale holder's finished result
        # is accepted ("late") instead of thrown away and re-run.
        t, first, second = self.race()
        verdict = t.commit(
            first.unit_id, first.lease_id, "alpha", "digest-1"
        )
        assert verdict == "late"
        assert t.counters["late_commits"] == 1
        assert t.committed_keys() == ["key0"]

    def test_new_holder_then_duplicate_from_stale_lease(self):
        t, first, second = self.race()
        assert t.commit(
            second.unit_id, second.lease_id, "beta", "digest-1"
        ) == "committed"
        assert t.commit(
            first.unit_id, first.lease_id, "alpha", "digest-1"
        ) == "duplicate"
        assert t.counters["duplicates"] == 1
        assert t.counters["committed"] == 1

    def test_divergent_redelivery_is_a_conflict(self):
        t, first, second = self.race()
        t.commit(second.unit_id, second.lease_id, "beta", "digest-1")
        verdict = t.commit(
            first.unit_id, first.lease_id, "alpha", "digest-2"
        )
        assert verdict == "conflict"
        assert t.conflicts == [{
            "unit_id": first.unit_id,
            "worker": "alpha",
            "lease_id": first.lease_id,
            "digest": "digest-2",
            "committed_digest": "digest-1",
        }]

    def test_stale_failure_report_dropped(self):
        # The expiry already charged alpha's attempt; its late error
        # report must not charge a second one.
        t, first, second = self.race()
        assert not t.fail(
            first.unit_id, first.lease_id, "alpha", "error", "late"
        )
        assert t.counters["failed"] == 0


class TestFailureRouting:
    def test_backoff_gates_the_retry(self):
        t, clock = table(backoff=5.0)
        lease = t.acquire("alpha")
        assert t.fail(lease.unit_id, lease.lease_id, "alpha", "error",
                      "boom")
        assert t.acquire("alpha") is None  # parked behind backoff
        assert t.next_ready_s() == pytest.approx(5.0)
        clock.advance(5.0)
        assert t.acquire("alpha") is not None

    def test_release_worker_settles_every_lease_it_holds(self):
        t, _ = table(n=3)
        t.acquire("alpha")
        t.acquire("alpha")
        t.acquire("beta")
        released = t.release_worker("alpha")
        assert len(released) == 2
        assert t.counters["released"] == 2
        assert len(t.outstanding()) == 1

    def test_exhausted_budget_quarantines_with_full_record(self):
        t, clock = table(max_attempts=2)
        for worker in ("alpha", "beta"):
            lease = t.acquire(worker)
            t.fail(lease.unit_id, lease.lease_id, worker, "error", "boom")
        records = t.quarantined()
        assert len(records) == 1
        record = records[0]
        assert record.key == "key0"
        assert record.workload == "w0"
        assert record.target == "CXL-A"
        assert record.platform == "EMR2S"
        assert record.attempts == 2
        assert record.reason == "error"
        assert t.done

    def test_late_success_resurrects_quarantined_unit(self):
        t, clock = table(max_attempts=1)
        lease = t.acquire("alpha")
        clock.advance(10.0)
        t.expire()
        assert len(t.quarantined()) == 1
        verdict = t.commit(lease.unit_id, lease.lease_id, "alpha", "d")
        assert verdict == "resurrected"
        assert t.quarantined() == []
        assert t.committed_keys() == ["key0"]


class TestProgress:
    def test_progress_and_done_track_terminal_states(self):
        t, clock = table(n=2, max_attempts=1)
        first = t.acquire("alpha")
        t.commit(first.unit_id, first.lease_id, "alpha", "d")
        assert not t.done
        second = t.acquire("alpha")
        t.fail(second.unit_id, second.lease_id, "alpha", "error", "x")
        assert t.done
        assert t.progress() == {
            "pending": 0, "leased": 0, "committed": 1, "quarantined": 1,
        }

    def test_next_ready_none_when_nothing_pending(self):
        t, _ = table(n=1)
        t.acquire("alpha")
        assert t.next_ready_s() is None

    def test_commit_unknown_unit(self):
        t, _ = table()
        assert t.commit("nope", "L1", "alpha", "d") == "unknown"
