"""End-to-end dist harness: coordinator + in-process workers + chaos.

Used by the ``dist`` diag layer (``repro validate --layer dist``), the
dist test suite, and the dist benchmark.  The harness runs a small real
campaign through a real :class:`~repro.dist.coordinator.Coordinator`
listening on a loopback socket, with :class:`~repro.dist.worker.Worker`
instances on threads -- optionally speaking through the seeded
:class:`~repro.dist.chaos.ChaosTransport`, sabotaged by a cell-level
:class:`~repro.faults.chaos.ChaosPolicy`, or armed to abandon their
socket mid-lease (``die_after``) -- and hands back everything the
survival invariants inspect:

* the campaign completes (no hang, no abort) under every schedule;
* at most the doomed cells are quarantined, as ``FailedCell`` records;
* the shared cache ends up holding results **bit-identical** to a solo
  run of the same campaign, which is what makes downstream exports
  byte-identical.

The threads are a :class:`~repro.dist.fleet.Fleet`, supervised as the
CLI's worker processes are.  In-process workers must not use
``kill``-probability cell chaos (a literal ``os._exit``): worker death is
``die_after`` or the fleet's kill, which abandon the socket -- all the
coordinator sees of a SIGKILLed process.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

from repro.dist.coordinator import Coordinator, DistSummary
from repro.dist.fleet import Fleet, thread_spawner
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


def _run_fleet(cache_dir, spec, plans, lease_s, policy, deadline_s,
               launch: Callable[[Fleet], None]) -> DistOutcome:
    """A loopback coordinator and a thread :class:`Fleet` run to the end;
    ``launch`` starts the first workers.  Worker ``i`` follows
    ``plans[i]``; workers beyond them are healthy replacements."""
    coordinator = Coordinator(
        spec, cache_dir=cache_dir, lease_s=lease_s,
        policy=policy or RetryPolicy(
            max_attempts=4, backoff_base_s=0.0, backoff_max_s=0.05
        ),
    )
    port = coordinator.start()

    def make_worker(index: int) -> Worker:
        plan = plans[index] if index < len(plans) else WorkerPlan()
        seed = plan.net_chaos_seed
        return Worker(
            "127.0.0.1", port, name=plan.name or f"hw{index}",
            net_chaos=None if seed is None else NetChaosPolicy.from_seed(seed),
            cell_chaos=plan.cell_chaos, die_after=plan.die_after,
        )

    try:
        with Fleet(coordinator, thread_spawner(make_worker)) as fleet:
            launch(fleet)
            summary = fleet.run(timeout=deadline_s)
    finally:
        coordinator.stop()
    return DistOutcome(
        summary=summary,
        worker_codes=tuple(handle.poll() for handle in fleet.handles),
        workers=tuple(handle.worker for handle in fleet.handles),
        cache_dir=cache_dir,
        fingerprint=coordinator.fingerprint,
        spec=spec,
    )


def run_dist_campaign(
    cache_dir: str,
    spec: CampaignSpec = SMOKE_SPEC,
    workers: Sequence[WorkerPlan] = (WorkerPlan(), WorkerPlan()),
    lease_s: float = 10.0,
    policy: Optional[RetryPolicy] = None,
    deadline_s: float = 120.0,
) -> DistOutcome:
    """One coordinated campaign against in-process workers.

    Workers still running once the coordinator settles share one grace
    period; one still parked in a chaos hang after it reports
    ``-SIGKILL`` (its thread is abandoned).
    """
    def launch(fleet: Fleet) -> None:
        for _ in workers:
            fleet.launch()

    return _run_fleet(cache_dir, spec, workers, lease_s, policy,
                      deadline_s, launch)


def run_hostile_fleet(
    cache_dir: str, net_chaos_seed: int, deadline_s: float = 120.0
) -> DistOutcome:
    """The smoke campaign through a worker that dies mid-lease and a
    worker behind the chaos transport; ``worker_codes`` starts
    ``(mortal, chaotic)``, then the mortal worker's replacement.

    The mortal worker (``die_after=1``) starts alone, so its first
    fetch is granted the fair share of the whole campaign (5 of ~10
    units) and it always dies on its second lease.  The chaotic worker
    starts only once the coordinator's lease table shows that grant:
    started together, it could drain the campaign before the mortal
    worker ever fetched.  The fleet's first poll comes as soon as the
    mortal worker is gone, so its replacement always starts.
    """
    def launch(fleet: Fleet) -> None:
        mortal = fleet.launch()
        give_up = time.monotonic() + deadline_s
        while not fleet.coordinator.table.counters["granted"] \
                and time.monotonic() < give_up:
            time.sleep(0.005)
        fleet.launch()
        while mortal.poll() is None and time.monotonic() < give_up:
            time.sleep(0.005)
        fleet.step()

    plans = (WorkerPlan(name="mortal", die_after=1),
             WorkerPlan(name="chaotic", net_chaos_seed=net_chaos_seed))
    return _run_fleet(cache_dir, SMOKE_SPEC, plans, 10.0, None,
                      deadline_s, launch)


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

    from repro.faults import fault_injection

    plan = spec.load_fault_plan()
    with fault_injection(plan) if plan is not None else nullcontext():
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
