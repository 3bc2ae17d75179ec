"""Dist-layer invariants: the coordinator fabric never changes results.

The distributed campaign fabric (:mod:`repro.dist`) makes four promises
that these checks enforce on every ``repro validate`` run:

* **The lease state machine is sound.**  Attempts are charged at grant,
  a lease is dead exactly at its deadline, stale failure reports are
  dropped, exhausted budgets quarantine, and the at-most-once commit
  distinguishes duplicates from conflicts -- all checked against the
  pure :class:`~repro.dist.lease.LeaseTable` with a fake clock.
* **Chaos cannot change the answer.**  A campaign run through a real
  coordinator and real socket workers -- one speaking through the
  seeded chaos transport, one abandoning its socket mid-lease --
  completes and leaves the shared cache assembling records
  bit-identical to a solo run.
* **A row's digest is its identity.**  One unit executed by two workers
  yields equal row digests, which the at-most-once commit folds as a
  duplicate; one flipped vector bit yields a conflict.
* **Degradation is graceful and honest.**  A cell that fails every
  attempt quarantines as a ``FailedCell`` record, is never cached, the
  rest of the campaign completes around it, and every surviving record
  is bit-identical to a chaos-free run.
"""

from __future__ import annotations

import json
import tempfile
from typing import Iterator, List

from repro.diag.context import DiagContext
from repro.diag.registry import invariant, subjects
from repro.diag.report import Violation
from repro.dist.lease import LeaseTable, WorkUnit
from repro.runtime.executor import RetryPolicy


class _FakeClock:
    """A hand-cranked monotonic clock."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


def _units(n: int) -> List[WorkUnit]:
    return [
        WorkUnit(
            unit_id=f"u{i}", kind="grid", workload=f"w{i}",
            target="CXL-A", key=f"k{i}", platform="EMR2S",
        )
        for i in range(n)
    ]


@invariant(
    name="lease-state-machine",
    layer="dist",
    description="leases charge attempts at grant, expire exactly at the "
    "deadline, drop stale reports, quarantine exhausted units, and "
    "commit at most once",
)
def check_lease_state_machine(ctx: DiagContext) -> Iterator[Violation]:
    """Drive the pure lease table through every transition."""
    subjects(check_lease_state_machine, 3)

    def bad(subject: str, message: str, **context: str):
        return Violation(
            layer="dist", check="lease-state-machine", subject=subject,
            message=message, context=context,
        )

    clock = _FakeClock()
    policy = RetryPolicy(
        max_attempts=2, backoff_base_s=0.0, jitter_frac=0.0
    )
    table = LeaseTable(
        _units(2), policy=policy, lease_s=10.0, clock=clock
    )
    lease = table.acquire("w1")
    if lease is None or lease.attempt != 1 or lease.deadline != 110.0:
        yield bad("grant", "first grant must charge attempt 1 with "
                  "deadline now+lease_s", lease=repr(lease))
        return
    clock.now = 109.999
    if table.expire():
        yield bad("expiry", "a lease expired before its deadline")
    clock.now = 110.0
    reaped = table.expire()
    if len(reaped) != 1:
        yield bad("expiry", "a lease at exactly its deadline must "
                  "expire", reaped=str(len(reaped)))
    # The original holder answers late: the expiry already charged the
    # attempt, so the stale report must be dropped on the floor.
    if table.fail(lease.unit_id, lease.lease_id, "w1", "error", "late"):
        yield bad("stale-report", "a failure report against an expired "
                  "lease was accepted")
    # Second grant exhausts the 2-attempt budget on the next failure.
    second = table.acquire("w2")
    if second is None or second.unit_id != lease.unit_id \
            or second.attempt != 2:
        yield bad("reassign", "the expired unit must be regrantable at "
                  "attempt 2", lease=repr(second))
        return
    if not table.fail(second.unit_id, second.lease_id, "w2", "error",
                      "boom"):
        yield bad("fail", "the current holder's failure report was "
                  "dropped")
    quarantined = table.quarantined()
    if len(quarantined) != 1 or quarantined[0].key != "k0" \
            or quarantined[0].attempts != 2:
        yield bad("quarantine", "exhausting the budget must quarantine "
                  "with the full attempt count",
                  records=repr(quarantined))
    # At-most-once commit on the surviving unit.
    third = table.acquire("w1")
    verdict = table.commit(third.unit_id, third.lease_id, "w1", "d1")
    if verdict != "committed":
        yield bad("commit", "first delivery must commit",
                  verdict=verdict)
    if table.commit(third.unit_id, third.lease_id, "w1", "d1") \
            != "duplicate":
        yield bad("commit", "identical redelivery must read as a "
                  "duplicate")
    if table.commit(third.unit_id, "L999", "w2", "d2") != "conflict":
        yield bad("commit", "divergent redelivery must read as a "
                  "conflict")
    if table.conflicts[-1]["digest"] != "d2":
        yield bad("commit", "the conflict record must carry the "
                  "divergent digest")
    # A late success resurrects the quarantined unit.
    if table.commit("u0", "L1", "w1", "d0") != "resurrected":
        yield bad("resurrect", "a late success must revoke quarantine")
    if not table.done or table.quarantined():
        yield bad("terminal", "all units committed must mean done with "
                  "an empty quarantine",
                  progress=str(table.progress()))


@invariant(
    name="dist-row-digest",
    layer="dist",
    description="one unit executed by two in-process workers gives "
    "equal row digests (a duplicate commit); one flipped vector bit "
    "gives a conflict",
)
def check_dist_row_digest(ctx: DiagContext) -> Iterator[Violation]:
    """Digest equality is what separates duplicates from conflicts."""
    from repro.dist.coordinator import row_digest, unit_cells
    from repro.dist.harness import SMOKE_SPEC
    from repro.dist.worker import Worker
    from repro.runtime.checkpoint import campaign_fingerprint

    def bad(subject: str, message: str, **context: str):
        return Violation(
            layer="dist", check="dist-row-digest", subject=subject,
            message=message, context=context,
        )

    campaign = SMOKE_SPEC.build_campaign()
    fingerprint = campaign_fingerprint(campaign)
    unit = next(
        unit for unit, _ in unit_cells(campaign, fingerprint)
        if unit.kind == "grid"
    )
    subjects(check_dist_row_digest, 1)
    welcome = {
        "fingerprint": fingerprint,
        "spec": SMOKE_SPEC.to_dict(),
    }
    lease = {"lease_id": "L1", "attempt": 1, "unit": unit.descriptor()}
    digests = []
    for name in ("w1", "w2"):
        worker = Worker("127.0.0.1", 0, name=name)
        worker.adopt_welcome(welcome)
        [(entry, vector)] = worker.run_grant([lease])
        if vector is None:
            yield bad("execute", "the worker failed to execute the unit",
                      worker=name, message=str(entry.get("message")))
            return
        digests.append(row_digest(entry["row"], vector))
    flipped = bytearray(vector)
    flipped[0] ^= 1
    table = LeaseTable([unit], lease_s=10.0, clock=_FakeClock())
    granted = table.acquire("w1")
    verdicts = [
        table.commit(unit.unit_id, granted.lease_id, worker, digest)
        for worker, digest in (
            ("w1", digests[0]),
            ("w2", digests[1]),
            ("w2", row_digest(entry["row"], bytes(flipped))),
        )
    ]
    if verdicts != ["committed", "duplicate", "conflict"]:
        yield bad("verdicts", "two executions must commit then fold as a "
                  "duplicate, and a flipped bit must conflict",
                  verdicts=str(verdicts))


@invariant(
    name="dist-campaign-identity",
    layer="dist",
    description="a campaign through the coordinator -- chaos transport "
    "active, one worker dying mid-lease -- completes and assembles "
    "records bit-identical to a solo run",
)
def check_dist_campaign_identity(ctx: DiagContext) -> Iterator[Violation]:
    """The end-to-end proof: sockets + chaos + death change nothing."""
    from repro.dist.harness import (
        SMOKE_SPEC,
        run_hostile_fleet,
        solo_records,
    )

    with tempfile.TemporaryDirectory() as cache_dir:
        outcome = run_hostile_fleet(
            cache_dir, net_chaos_seed=ctx.seed, deadline_s=300.0
        )
        subjects(check_dist_campaign_identity, outcome.summary.units)
        if not outcome.summary.complete:
            yield Violation(
                layer="dist", check="dist-campaign-identity",
                subject="completion",
                message="the campaign wedged under chaos",
                context={"progress": str(outcome.summary.committed)},
            )
            return
        if outcome.summary.conflicts:
            yield Violation(
                layer="dist", check="dist-campaign-identity",
                subject="commit",
                message="workers delivered divergent results for one "
                "unit (determinism broke)",
                context={"conflicts": str(outcome.summary.conflicts)},
            )
        if outcome.summary.quarantined:
            yield Violation(
                layer="dist", check="dist-campaign-identity",
                subject="quarantine",
                message="healthy cells were quarantined (recovery must "
                "absorb chaos, not give up)",
                context={
                    "records": str([
                        f.key[:16] for f in outcome.summary.quarantined
                    ]),
                },
            )
        if outcome.worker_codes[0] != 9:
            yield Violation(
                layer="dist", check="dist-campaign-identity",
                subject="harness",
                message="the mortal worker did not die mid-lease "
                "(the scenario under test never happened)",
                context={"codes": str(outcome.worker_codes)},
            )
        assembled = solo_records(SMOKE_SPEC, cache_dir)
    reference = solo_records(SMOKE_SPEC, None)
    if json.dumps(assembled, sort_keys=True) \
            != json.dumps(reference, sort_keys=True):
        yield Violation(
            layer="dist", check="dist-campaign-identity",
            subject="bit-identity",
            message="records assembled from the dist cache differ from "
            "a solo run",
            context={"assembled": str(len(assembled)),
                     "reference": str(len(reference))},
        )


@invariant(
    name="dist-quarantine",
    layer="dist",
    description="a cell failing every attempt quarantines as a "
    "FailedCell, stays out of the cache, and the campaign completes "
    "around it with survivors bit-identical to a chaos-free run",
)
def check_dist_quarantine(ctx: DiagContext) -> Iterator[Violation]:
    """Graceful degradation end to end: doomed cell, finished campaign."""
    from repro.dist.harness import (
        SMOKE_SPEC,
        WorkerPlan,
        doomed_key,
        run_dist_campaign,
        solo_records,
    )
    from repro.faults.chaos import ChaosPolicy
    from repro.runtime.cache import RunCache

    doomed = doomed_key(SMOKE_SPEC, index=0)
    chaos = ChaosPolicy(doomed=(doomed,), seed=ctx.seed)
    with tempfile.TemporaryDirectory() as cache_dir:
        outcome = run_dist_campaign(
            cache_dir,
            workers=(WorkerPlan(name="saboteur", cell_chaos=chaos),),
            policy=RetryPolicy(max_attempts=2, backoff_base_s=0.0),
            deadline_s=300.0,
        )
        subjects(check_dist_quarantine, outcome.summary.units)
        if not outcome.summary.complete:
            yield Violation(
                layer="dist", check="dist-quarantine",
                subject="completion",
                message="a doomed cell wedged the campaign (it must "
                "quarantine and move on)",
                context={"committed": str(outcome.summary.committed)},
            )
            return
        records = outcome.summary.quarantined
        if len(records) != 1 or records[0].key != doomed:
            yield Violation(
                layer="dist", check="dist-quarantine",
                subject="quarantine",
                message="exactly the doomed cell must be quarantined",
                context={"got": str([r.key[:16] for r in records]),
                         "expected": doomed[:16]},
            )
            return
        record = records[0]
        if record.attempts != 2 or record.reason != "error":
            yield Violation(
                layer="dist", check="dist-quarantine",
                subject="record",
                message="the quarantine record must carry the spent "
                "budget and diagnosis",
                context={"attempts": str(record.attempts),
                         "reason": record.reason},
            )
        if RunCache(cache_dir).get(doomed) is not None:
            yield Violation(
                layer="dist", check="dist-quarantine",
                subject="cache",
                message="a quarantined cell was committed to the "
                "shared cache",
                context={"key": doomed[:16]},
            )
        if outcome.summary.committed != outcome.summary.units - 1:
            yield Violation(
                layer="dist", check="dist-quarantine",
                subject="completion",
                message="cells beyond the doomed one went missing",
                context={"committed": str(outcome.summary.committed),
                         "units": str(outcome.summary.units)},
            )
        # Assembling from the dist cache re-runs only the doomed cell
        # (sabotage-free here); every other record is a survivor.
        assembled = solo_records(SMOKE_SPEC, cache_dir)
    reference = solo_records(SMOKE_SPEC, None)
    if json.dumps(assembled, sort_keys=True) \
            != json.dumps(reference, sort_keys=True):
        yield Violation(
            layer="dist", check="dist-quarantine",
            subject="bit-identity",
            message="records surviving the doomed cell differ from a "
            "chaos-free run (retries must be bit-transparent)",
            context={"assembled": str(len(assembled)),
                     "reference": str(len(reference))},
        )
