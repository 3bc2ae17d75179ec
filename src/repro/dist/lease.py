"""Time-bounded work leases with at-most-once commit.

:class:`LeaseTable` is the coordinator's brain, kept deliberately pure:
no sockets, no threads, no real clock -- callers inject ``clock`` (the
coordinator passes ``time.monotonic``; tests pass a fake) and serialize
access themselves.  Every unit of campaign work moves through a small
state machine:

```
pending --grant--> leased --commit--> committed         (terminal)
   ^                   |
   |   expire / fail / release (attempt charged,
   |   seeded backoff gates the retry)
   +-------------------+
   |
   +--attempts exhausted--> quarantined                 (terminal*)
```

(*) a late *successful* delivery resurrects a quarantined unit: the
work demonstrably finished, so graceful degradation yields to the
result.  Quarantine records are :class:`~repro.runtime.executor
.FailedCell` documents -- the same records PR 5's resilient engine
writes -- so the checkpoint/resume path downstream needs no new cases.

**Attempt accounting.**  An attempt is charged when the lease is
*granted*, because every way a granted lease can end badly -- worker
error report, lease expiry (covers hangs and silent death), connection
loss -- means the attempt really ran (or wedged).  Bounding attempts at
grant time is what makes a deterministic crash-on-cell loop terminate:
a worker that dies on a unit every time consumes the unit's budget and
the unit quarantines, instead of the campaign ping-ponging forever.

**At-most-once commit.**  The first result delivered for a unit wins
and is committed exactly once; every later delivery is compared by
digest of the canonical result document.  Identical digest -- a
duplicate (chaos redelivery, a reassigned unit finishing twice) -- is
counted and dropped.  Divergent digest is a **conflict**: two workers
disagreeing about deterministic work means one of them is broken, and
the table records it loudly instead of letting either result silently
win the cache.

**Grants.**  :meth:`LeaseTable.acquire_many` fills one grant of up to
``limit`` leases in a single scan, in submission order.  A worker runs
a grant's units one after another, so the ``i``-th lease of a grant
(0-based) gets ``(i + 1) * lease_s`` to its deadline: every unit keeps
``lease_s`` of its own, however long its queue.  A unit that already
has a charged attempt is always granted alone -- a poison cell then
spends only its own retry budget, never that of healthy units granted
beside it (:meth:`LeaseTable.acquire_many` explains why a retried unit
always starts its grant, which it then ends).

``expiry`` uses ``now >= deadline`` -- a lease is dead *exactly at* its
deadline, so a clock that lands on the boundary reassigns rather than
trusting a worker that is provably out of time.

**Bookkeeping cost.**  Status counts are kept incrementally (``done``
and ``progress`` are O(1)), expiry and release walk only the leased
units, and grants scan from a cursor below which no unit is pending, so
a failure-free campaign of N units costs O(N) table work, not O(N^2)
(each retry moves the cursor back to the retried unit once).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import MelodyError
from repro.runtime.executor import FailedCell, RetryPolicy

UNIT_KINDS = ("baseline", "grid")


@dataclass(frozen=True)
class WorkUnit:
    """One leasable unit: a single campaign cell, by identity."""

    unit_id: str
    """Stable partition token (see :mod:`repro.runtime.shard`)."""
    kind: str
    """``baseline`` or ``grid``."""
    workload: str
    target: str
    key: str
    """The cell's content-addressed run key (cache identity)."""
    platform: str = ""
    """Display name for quarantine records (not part of identity)."""

    def __post_init__(self) -> None:
        if self.kind not in UNIT_KINDS:
            raise MelodyError(
                f"unit kind must be one of {UNIT_KINDS}: {self.kind!r}"
            )

    def descriptor(self) -> Dict[str, object]:
        """The wire form workers receive inside a lease frame."""
        return {
            "unit_id": self.unit_id,
            "kind": self.kind,
            "workload": self.workload,
            "target": self.target,
        }


@dataclass(frozen=True)
class Lease:
    """One granted lease: a unit, a worker, an attempt, a deadline."""

    lease_id: str
    unit_id: str
    worker: str
    attempt: int
    granted_at: float
    deadline: float


class _UnitState:
    """Mutable per-unit bookkeeping (internal to the table)."""

    __slots__ = (
        "unit", "index", "status", "attempts", "not_before", "lease",
        "digest", "failure",
    )

    def __init__(self, unit: WorkUnit, index: int):
        self.unit = unit
        self.index = index
        self.status = "pending"
        self.attempts = 0
        self.not_before = 0.0
        self.lease: Optional[Lease] = None
        self.digest: Optional[str] = None
        self.failure: Optional[FailedCell] = None


class LeaseTable:
    """The pure lease state machine over one campaign's work units."""

    def __init__(
        self,
        units: Sequence[WorkUnit],
        policy: Optional[RetryPolicy] = None,
        lease_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if lease_s <= 0:
            raise MelodyError(f"lease_s must be positive, got {lease_s}")
        seen: Dict[str, WorkUnit] = {}
        for unit in units:
            if unit.unit_id in seen:
                raise MelodyError(f"duplicate unit id {unit.unit_id!r}")
            seen[unit.unit_id] = unit
        self._states: List[_UnitState] = [
            _UnitState(unit, index)
            for index, unit in enumerate(seen.values())
        ]
        self._units: Dict[str, _UnitState] = {
            state.unit.unit_id: state for state in self._states
        }
        self._leased: Dict[str, _UnitState] = {}
        self._counts: Dict[str, int] = {
            "pending": len(self._states), "leased": 0, "committed": 0,
            "quarantined": 0,
        }
        # No pending unit sits below this index in submission order.
        self._cursor = 0
        self.policy = policy if policy is not None else RetryPolicy(
            max_attempts=5, backoff_base_s=0.05, backoff_max_s=1.0
        )
        self.lease_s = lease_s
        self.clock = clock
        self._grants = 0
        self.counters: Dict[str, int] = {
            "granted": 0, "expired": 0, "released": 0, "failed": 0,
            "committed": 0, "late_commits": 0, "duplicates": 0,
            "conflicts": 0, "quarantined": 0, "resurrected": 0,
        }
        self.conflicts: List[Dict[str, str]] = []

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._states)

    @property
    def done(self) -> bool:
        """All units terminal (committed or quarantined)."""
        counts = self._counts
        return counts["committed"] + counts["quarantined"] \
            == len(self._states)

    @property
    def pending(self) -> int:
        """Units waiting for a grant (backoff-gated ones included)."""
        return self._counts["pending"]

    def unit(self, unit_id: str) -> WorkUnit:
        """The work unit behind ``unit_id`` (KeyError when unknown)."""
        return self._units[unit_id].unit

    def committed_keys(self) -> List[str]:
        """Run keys of every committed unit (for store promotion)."""
        return [
            state.unit.key for state in self._states
            if state.status == "committed"
        ]

    def quarantined(self) -> List[FailedCell]:
        """Quarantine records, in unit submission order."""
        return [
            state.failure for state in self._states
            if state.status == "quarantined"
        ]

    def outstanding(self) -> List[Lease]:
        """Currently granted leases, in grant order."""
        return [state.lease for state in self._leased.values()]

    def progress(self) -> Dict[str, int]:
        """Unit counts by status (for banners and wide events)."""
        return dict(self._counts)

    def next_ready_s(self) -> Optional[float]:
        """Seconds until the earliest backoff-gated unit is grantable.

        ``0.0`` means a unit is grantable now; ``None`` means nothing is
        pending at all (every unit is leased or terminal), so a fetching
        worker should poll again after a short wait.
        """
        if not self._counts["pending"]:
            return None
        now = self.clock()
        return min(
            max(0.0, state.not_before - now)
            for state in self._states[self._cursor:]
            if state.status == "pending"
        )

    # -- transitions -------------------------------------------------------

    def acquire(self, worker: str) -> Optional[Lease]:
        """Grant the first ready pending unit to ``worker``."""
        leases = self.acquire_many(worker, 1)
        return leases[0] if leases else None

    def acquire_many(self, worker: str, limit: int) -> List[Lease]:
        """Fill one grant of up to ``limit`` leases for ``worker``.

        One scan in submission order from the cursor; backoff-gated
        units are skipped.  Every fresh unit the scan meets is granted,
        so the units ever granted form a prefix of the submission order
        and a retried unit always comes before every fresh one: it is
        granted first, and ends the grant, so it is always granted
        alone.
        """
        now = self.clock()
        states = self._states
        grant: List[Lease] = []
        left_behind: Optional[int] = None
        index = self._cursor
        while index < len(states) and len(grant) < limit:
            state = states[index]
            index += 1
            if state.status != "pending":
                continue
            if state.not_before > now:
                if left_behind is None:
                    left_behind = state.index
                continue
            retry = state.attempts > 0
            grant.append(self._grant(state, worker, now, len(grant)))
            if retry:
                break
        self._cursor = index if left_behind is None else left_behind
        return grant

    def expire(self) -> List[Lease]:
        """Reap every lease at or past its deadline; returns the reaped.

        Expiry covers hung workers and silently dead connections alike:
        the attempt stays charged and the unit returns to ``pending``
        behind its seeded backoff (or quarantines when the budget is
        spent).
        """
        now = self.clock()
        reaped: List[Lease] = []
        for state in list(self._leased.values()):
            lease = state.lease
            if now >= lease.deadline:
                reaped.append(lease)
                self.counters["expired"] += 1
                self._settle_failure(
                    state, "timeout",
                    f"lease {lease.lease_id} expired after "
                    f"{lease.deadline - lease.granted_at:.1f}s on "
                    f"{lease.worker}",
                )
        return reaped

    def fail(
        self, unit_id: str, lease_id: str, worker: str,
        reason: str, message: str,
    ) -> bool:
        """A worker reported the leased attempt failed.

        Only the current lease holder can fail a unit; stale reports
        (an expired lease's worker finally answering) are dropped --
        the expiry already charged that attempt.
        """
        state = self._units.get(unit_id)
        if state is None or state.status != "leased":
            return False
        lease = state.lease
        if lease is None or lease.lease_id != lease_id \
                or lease.worker != worker:
            return False
        self.counters["failed"] += 1
        self._settle_failure(state, reason, message)
        return True

    def release_worker(self, worker: str) -> List[Lease]:
        """The worker's connection died: settle every lease it holds.

        A lost connection mid-lease is a crash as far as the unit is
        concerned -- the attempt stays charged, which bounds the
        reconnect-and-die-again loop of a worker that crashes
        deterministically on one unit.
        """
        released: List[Lease] = []
        for state in list(self._leased.values()):
            lease = state.lease
            if lease.worker != worker:
                continue
            released.append(lease)
            self.counters["released"] += 1
            self._settle_failure(
                state, "crash",
                f"worker {worker} disconnected holding "
                f"{lease.lease_id}",
            )
        return released

    def commit(
        self, unit_id: str, lease_id: str, worker: str, digest: str
    ) -> str:
        """Record one result delivery; returns the commit verdict.

        * ``"committed"``   -- first delivery, by the current holder;
        * ``"late"``        -- first delivery, but the lease had expired
          or moved on (the result still wins: work is deterministic);
        * ``"resurrected"`` -- first delivery for a unit already
          quarantined (the quarantine is revoked);
        * ``"duplicate"``   -- already committed with the same digest;
        * ``"conflict"``    -- already committed with a *different*
          digest (recorded in :attr:`conflicts`);
        * ``"unknown"``     -- no such unit.

        The caller performs the actual cache write exactly when the
        verdict is one of the three accepting outcomes -- that pairing
        is the at-most-once guarantee.
        """
        state = self._units.get(unit_id)
        if state is None:
            return "unknown"
        if state.status == "committed":
            if state.digest == digest:
                self.counters["duplicates"] += 1
                return "duplicate"
            self.counters["conflicts"] += 1
            self.conflicts.append({
                "unit_id": unit_id,
                "worker": worker,
                "lease_id": lease_id,
                "digest": digest,
                "committed_digest": state.digest or "",
            })
            return "conflict"
        verdict = "committed"
        if state.status == "quarantined":
            verdict = "resurrected"
            self.counters["resurrected"] += 1
            state.failure = None
        elif state.status == "pending" or (
            state.lease.lease_id != lease_id
            or state.lease.worker != worker
        ):
            verdict = "late"
            self.counters["late_commits"] += 1
        self._move(state, "committed")
        state.digest = digest
        self.counters["committed"] += 1
        return verdict

    # -- internals ---------------------------------------------------------

    def _grant(
        self, state: _UnitState, worker: str, now: float, position: int
    ) -> Lease:
        """Lease one pending unit as the ``position``-th of a grant."""
        self._grants += 1
        state.attempts += 1
        lease = Lease(
            lease_id=f"L{self._grants}",
            unit_id=state.unit.unit_id,
            worker=worker,
            attempt=state.attempts,
            granted_at=now,
            deadline=now + self.lease_s * (position + 1),
        )
        self._move(state, "leased")
        state.lease = lease
        self._leased[lease.unit_id] = state
        self.counters["granted"] += 1
        return lease

    def _move(self, state: _UnitState, status: str) -> None:
        """Change one unit's status, keeping counts, lease and cursor."""
        counts = self._counts
        counts[state.status] -= 1
        counts[status] += 1
        if state.status == "leased":
            del self._leased[state.unit.unit_id]
            state.lease = None
        state.status = status
        if status == "pending" and state.index < self._cursor:
            self._cursor = state.index

    def _settle_failure(
        self, state: _UnitState, reason: str, message: str
    ) -> None:
        """Route one failed attempt: backoff-gated retry or quarantine."""
        unit = state.unit
        if state.attempts >= self.policy.max_attempts:
            self._move(state, "quarantined")
            state.failure = FailedCell(
                key=unit.key,
                workload=unit.workload,
                platform=unit.platform,
                target=unit.target,
                attempts=state.attempts,
                reason=reason,
                message=message,
            )
            self.counters["quarantined"] += 1
            return
        self._move(state, "pending")
        state.not_before = self.clock() + self.policy.backoff_s(
            unit.key, state.attempts
        )
