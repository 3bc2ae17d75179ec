"""End-to-end dist harness: coordinator + in-process workers + chaos.

Used by the ``dist`` diag layer (``repro validate --layer dist``), the
dist test suite, and the dist benchmark.  The harness runs a small real
campaign through a real :class:`~repro.dist.coordinator.Coordinator`
listening on a loopback socket, with N :class:`~repro.dist.worker
.Worker` instances on threads -- optionally speaking through the seeded
:class:`~repro.dist.chaos.ChaosTransport`, sabotaged by a cell-level
:class:`~repro.faults.chaos.ChaosPolicy`, or armed to abandon their
socket mid-lease (``die_after``) -- and hands back everything the
survival invariants inspect:

* the campaign completes (no hang, no abort) under every schedule;
* at most the doomed cells are quarantined, as ``FailedCell`` records;
* the shared cache ends up holding results **bit-identical** to a solo
  run of the same campaign, which is what makes downstream exports
  byte-identical.

In-process workers must not use ``kill``-probability cell chaos (that
is a literal ``os._exit``): abrupt worker death is modeled by
``die_after`` (the worker abandons the socket, exactly what the
coordinator observes when a remote process is SIGKILLed); real process
death is exercised by the CI ``dist-smoke`` job.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.dist.coordinator import Coordinator, DistSummary
from repro.dist.spec import CampaignSpec
from repro.dist.worker import Worker
from repro.faults.chaos import ChaosPolicy, NetChaosPolicy
from repro.runtime.executor import RetryPolicy

SMOKE_SPEC = CampaignSpec(
    platform="EMR2S",
    targets=("cxl-a",),
    suite="GAPBS",
    sample=6,
    name="dist-smoke",
)
"""The harness default: 5 GAPBS workloads on CXL-A (~10 work units)."""


@dataclass(frozen=True)
class WorkerPlan:
    """How one harness worker should (mis)behave."""

    name: str = ""
    net_chaos_seed: Optional[int] = None
    cell_chaos: Optional[ChaosPolicy] = None
    die_after: Optional[int] = None


@dataclass(frozen=True)
class DistOutcome:
    """Everything the dist survival invariants inspect."""

    summary: DistSummary
    worker_codes: Tuple[int, ...]
    workers: Tuple[Worker, ...]
    cache_dir: str
    fingerprint: str
    spec: CampaignSpec


class _Fleet:
    """One coordinator on a loopback port plus its worker threads."""

    def __init__(
        self,
        cache_dir: str,
        spec: CampaignSpec,
        lease_s: float,
        heartbeat_s: float,
        policy: Optional[RetryPolicy],
    ):
        if policy is None:
            policy = RetryPolicy(
                max_attempts=4, backoff_base_s=0.0, backoff_max_s=0.05
            )
        self.cache_dir = cache_dir
        self.spec = spec
        self.coordinator = Coordinator(
            spec,
            cache_dir=cache_dir,
            lease_s=lease_s,
            heartbeat_s=heartbeat_s,
            policy=policy,
        )
        self.port = self.coordinator.start()
        self.workers: List[Worker] = []
        self.codes: List[int] = []
        self.threads: List[threading.Thread] = []

    def launch(self, plan: WorkerPlan) -> None:
        """Start one worker thread following ``plan``."""
        index = len(self.workers)
        net_chaos = (
            NetChaosPolicy.from_seed(plan.net_chaos_seed)
            if plan.net_chaos_seed is not None else None
        )
        worker = Worker(
            host="127.0.0.1",
            port=self.port,
            name=plan.name or f"hw{index}",
            net_chaos=net_chaos,
            cell_chaos=plan.cell_chaos,
            die_after=plan.die_after,
            hard_exit=False,
        )
        self.workers.append(worker)
        self.codes.append(-1)

        def body() -> None:
            self.codes[index] = worker.run()

        thread = threading.Thread(
            target=body, name=f"dist-harness-w{index}", daemon=True
        )
        self.threads.append(thread)
        thread.start()

    def settle(self, deadline_s: float) -> DistOutcome:
        """Run the coordinator to the end; join workers with a grace."""
        summary = self.coordinator.run(timeout=deadline_s)
        for thread in self.threads:
            thread.join(timeout=5.0)
        return DistOutcome(
            summary=summary,
            worker_codes=tuple(self.codes),
            workers=tuple(self.workers),
            cache_dir=self.cache_dir,
            fingerprint=self.coordinator.fingerprint,
            spec=self.spec,
        )


def run_dist_campaign(
    cache_dir: str,
    spec: CampaignSpec = SMOKE_SPEC,
    workers: Sequence[WorkerPlan] = (WorkerPlan(), WorkerPlan()),
    lease_s: float = 10.0,
    heartbeat_s: float = 0.25,
    policy: Optional[RetryPolicy] = None,
    deadline_s: float = 120.0,
) -> DistOutcome:
    """One coordinated campaign against in-process workers.

    Worker threads join with a grace period after the coordinator
    settles; a worker parked in a chaos hang is abandoned (daemon
    thread) rather than waited for -- its exit code reports ``-1``.
    """
    fleet = _Fleet(cache_dir, spec, lease_s, heartbeat_s, policy)
    for plan in workers:
        fleet.launch(plan)
    return fleet.settle(deadline_s)


def run_hostile_fleet(
    cache_dir: str, net_chaos_seed: int, deadline_s: float = 120.0
) -> DistOutcome:
    """The smoke campaign through a worker that dies mid-lease and a
    worker behind the chaos transport; ``worker_codes`` is
    ``(mortal, chaotic)``.

    The mortal worker (``die_after=1``) starts alone, so its first
    fetch is granted the fair share of the whole campaign (5 of ~10
    units) and it always dies on its second lease.  The chaotic worker
    starts only once the coordinator's lease table shows that grant:
    started together, it could drain the campaign before the mortal
    worker ever fetched.
    """
    fleet = _Fleet(cache_dir, SMOKE_SPEC, 10.0, 0.25, None)
    table = fleet.coordinator.table
    fleet.launch(WorkerPlan(name="mortal", die_after=1))
    give_up = time.monotonic() + deadline_s
    while not table.counters["granted"] and time.monotonic() < give_up:
        time.sleep(0.005)
    fleet.launch(WorkerPlan(name="chaotic", net_chaos_seed=net_chaos_seed))
    return fleet.settle(deadline_s)


def solo_records(
    spec: CampaignSpec, cache_dir: Optional[str] = None
) -> list:
    """Reference records: the same campaign run solo, as plain dicts.

    With ``cache_dir`` pointing at a dist run's cache, every cell is a
    warm hit and this *assembles* the campaign from distributed results;
    with ``None`` it executes fresh.  Either way the return value is a
    list of JSON-safe record documents, directly comparable across runs
    -- equality here is the bit-identity claim.
    """
    from repro.core.melody import Melody
    from repro.runtime.cache import RunCache
    from repro.runtime.executor import CampaignEngine
    from repro.runtime.serialize import run_result_to_dict

    plan = spec.load_fault_plan()
    if plan is not None:
        from repro.faults import fault_injection

        scope = fault_injection(plan)
    else:
        from contextlib import nullcontext

        scope = nullcontext()
    with scope:
        campaign = spec.build_campaign()
        engine = CampaignEngine(cache=RunCache(cache_dir))
        result = Melody(engine=engine).run(campaign)
        records = []
        for record in result.records:
            records.append({
                "workload": record.workload,
                "target": record.target,
                "slowdown_pct": record.slowdown_pct,
                "baseline": run_result_to_dict(record.baseline),
                "run": run_result_to_dict(record.run),
            })
        return records


def doomed_key(spec: CampaignSpec, index: int = 0) -> str:
    """The run key of the ``index``-th grid cell (for doomed-cell chaos)."""
    from repro.dist.coordinator import campaign_units
    from repro.runtime.checkpoint import campaign_fingerprint

    campaign = spec.build_campaign()
    units = campaign_units(campaign, campaign_fingerprint(campaign))
    grid = [u for u in units if u.kind == "grid"]
    return grid[index].key
