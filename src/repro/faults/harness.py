"""End-to-end chaos harness: a small campaign under worker sabotage.

Used by the ``faults`` diag layer (``repro validate --layer faults``), the
resilience test suite, and the CI chaos smoke job.  The harness builds a
small real campaign (a few workloads on one CXL device), installs a
seeded :class:`~repro.faults.chaos.ChaosPolicy` that kills workers and
dooms one chosen cell, runs it through a resilient
:class:`~repro.runtime.executor.CampaignEngine`, and hands back everything
a caller needs to assert the survival invariants:

* the campaign completes (no hang, no abort);
* exactly the doomed cells are quarantined, as :class:`FailedCell`
  records with their diagnosis;
* every surviving record is bit-identical to a chaos-free run (retries
  re-execute deterministic cells, so sabotage can delay but never change
  a result);
* the cache holds no entry for a quarantined cell.

This module imports the campaign stack, so it is *not* pulled in by
``repro.faults`` itself -- import it explicitly (the executor imports
``repro.faults``, which must therefore not drag the campaign stack along).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.melody import Campaign, CampaignResult, Melody
from repro.faults.chaos import ChaosPolicy, chaos_injection
from repro.hw.cxl import cxl_a
from repro.hw.platform import EMR2S
from repro.runtime.cache import RunCache
from repro.runtime.executor import CampaignEngine, Cell, RetryPolicy
from repro.workloads import all_workloads


@dataclass(frozen=True)
class ChaosOutcome:
    """Everything the survival invariants inspect after a chaos run."""

    result: CampaignResult
    engine: CampaignEngine
    campaign: Campaign
    doomed_keys: Tuple[str, ...]
    expected_records: int
    """Records a fault-free run would produce (grid minus capacity skips)."""


def chaos_campaign(n_workloads: int = 4) -> Campaign:
    """A small, real campaign: ``n_workloads`` on CXL-A with EMR baseline."""
    target = cxl_a()
    fitting = tuple(
        w for w in all_workloads()
        if w.working_set_gb <= target.capacity_gb
    )[:n_workloads]
    return Campaign(
        name="chaos-smoke",
        platform=EMR2S,
        targets=(target,),
        workloads=fitting,
    )


def run_chaos_campaign(
    seed: int = 7,
    kill_prob: float = 0.35,
    error_prob: float = 0.15,
    n_workloads: int = 4,
    doom_index: int = 1,
    max_attempts: int = 3,
    timeout_s: Optional[float] = None,
    backoff_base_s: float = 0.0,
    cache_dir: Optional[str] = None,
) -> ChaosOutcome:
    """Run the chaos campaign; sabotage is seeded and terminates.

    ``max_sabotaged_attempt = max_attempts - 1`` guarantees every
    non-doomed cell a clean final attempt, so the campaign always
    completes; the ``doom_index``-th workload's device cell fails every
    attempt and must come back quarantined.  ``backoff_base_s`` defaults
    to 0 so harness runs never sleep.
    """
    campaign = chaos_campaign(n_workloads)
    workloads = campaign.workloads
    target = campaign.targets[0]
    doomed: Tuple[str, ...] = ()
    if workloads and 0 <= doom_index < len(workloads):
        doomed = (
            Cell(
                workloads[doom_index], campaign.platform, target,
                campaign.config,
            ).key(),
        )
    policy = RetryPolicy(
        max_attempts=max_attempts,
        timeout_s=timeout_s,
        backoff_base_s=backoff_base_s,
        seed=seed,
    )
    chaos = ChaosPolicy(
        kill_prob=kill_prob,
        error_prob=error_prob,
        max_sabotaged_attempt=max_attempts - 1,
        doomed=doomed,
        seed=seed,
    )
    engine = CampaignEngine(cache=RunCache(cache_dir), policy=policy)
    melody = Melody(engine=engine)
    with chaos_injection(chaos):
        result = melody.run(campaign)
    expected = sum(
        1 for w in workloads if w.working_set_gb <= target.capacity_gb
    )
    return ChaosOutcome(
        result=result,
        engine=engine,
        campaign=campaign,
        doomed_keys=doomed,
        expected_records=expected,
    )


def fault_free_reference(campaign: Campaign) -> CampaignResult:
    """The same campaign, fail-fast, fresh cache, no sabotage."""
    engine = CampaignEngine(cache=RunCache())
    return Melody(engine=engine).run(campaign)
