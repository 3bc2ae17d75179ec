"""Faults-layer invariants: injection is deterministic, retries reproducible.

The fault subsystem makes two promises that these checks enforce on every
``repro validate`` run:

* **Injection is a pure, keyed transform.**  An empty plan is
  indistinguishable from no plan (byte-identical latencies, identical run
  keys); an enabled plan perturbs both engines identically and
  deterministically; and enabling a plan moves the cell to a *different*
  cache key so faulted results can never shadow fault-free ones.
* **Retries are reproducible.**  The seeded backoff schedule is a pure,
  jitter-bounded function of (seed, cell, attempt).

Surviving worker sabotage end to end -- quarantine of doomed cells and
survivors bit-identical to a chaos-free run -- is the ``dist`` layer's
job (:mod:`repro.diag.checks_dist`): crashes and hangs are the lease
coordinator's to absorb.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.cpu.pipeline import PipelineConfig
from repro.diag.context import DiagContext
from repro.diag.registry import invariant, subjects
from repro.diag.report import Violation
from repro.faults.plan import FaultEpisode, FaultPlan, fault_injection
from repro.hw.cxl.eventdevice import EventDrivenDevice
from repro.runtime.cache import run_key
from repro.runtime.executor import RetryPolicy

_N_REQUESTS = 4000
_LOAD_GBPS = 8.0


def _kitchen_sink_plan(seed: int) -> FaultPlan:
    """Every fault mechanism at once, windows spanning the whole run."""
    return FaultPlan(
        name="diag-kitchen-sink",
        seed=seed,
        episodes=(
            FaultEpisode(kind="link_retry_storm", start_ns=0.0,
                         duration_ns=1e9, retry_multiplier=400.0),
            FaultEpisode(kind="thermal_throttle", start_ns=0.0,
                         duration_ns=1e9, temperature_c=95.0),
            FaultEpisode(kind="device_dropout", start_ns=2_000.0,
                         duration_ns=1_500.0),
            FaultEpisode(kind="ecc", start_ns=0.0, duration_ns=1e9,
                         ecc_single_prob=0.02, ecc_multi_prob=0.002),
        ),
    )


def _counters(result) -> dict:
    return {
        "link_retries": result.link_retries,
        "bank_conflicts": result.bank_conflicts,
        "refresh_collisions": result.refresh_collisions,
        "injected_retries": result.injected_retries,
        "poisoned_reads": result.poisoned_reads,
        "ecc_corrected": result.ecc_corrected,
        "throttled_requests": result.throttled_requests,
    }


@invariant(
    name="plan-neutrality",
    layer="faults",
    description="an installed but empty fault plan is indistinguishable "
    "from no plan: byte-identical latencies and unchanged run keys",
)
def check_plan_neutrality(ctx: DiagContext) -> Iterator[Violation]:
    """Empty plans inject nothing, perturb nothing, and key nothing."""
    devices = ctx.cxl_devices()
    subjects(check_plan_neutrality, len(devices))
    config = PipelineConfig(seed=ctx.seed)
    empty = FaultPlan(name="diag-empty", seed=ctx.seed)
    platform = ctx.platforms[0]
    workload = ctx.sampled_workloads()[0]
    for device in devices:
        sim = EventDrivenDevice(device, seed=ctx.seed)
        bare = sim.simulate(_N_REQUESTS, _LOAD_GBPS, engine="vector")
        with fault_injection(empty):
            covered = sim.simulate(_N_REQUESTS, _LOAD_GBPS, engine="vector")
            key_covered = run_key(workload, platform, device, config)
        key_bare = run_key(workload, platform, device, config)
        if not np.array_equal(bare.latencies_ns, covered.latencies_ns):
            yield Violation(
                layer="faults",
                check="plan-neutrality",
                subject=device.name,
                message="an empty fault plan changed simulated latencies",
                context={"mean_bare": f"{bare.mean_ns:.4f}",
                         "mean_covered": f"{covered.mean_ns:.4f}"},
            )
        if covered.fault_plan is not None or _counters(covered) != _counters(bare):
            yield Violation(
                layer="faults",
                check="plan-neutrality",
                subject=device.name,
                message="an empty fault plan left traces in the result ledger",
                context={"covered": str(_counters(covered))},
            )
        if key_covered != key_bare:
            yield Violation(
                layer="faults",
                check="plan-neutrality",
                subject=device.name,
                message="an empty fault plan perturbed the run cache key",
                context={"bare": key_bare[:16], "covered": key_covered[:16]},
            )


@invariant(
    name="engine-identity-under-faults",
    layer="faults",
    description="with every fault mechanism active, the scalar and vector "
    "engines stay bit-identical and two runs are deterministic",
)
def check_engine_identity(ctx: DiagContext) -> Iterator[Violation]:
    """Faults ride the shared inputs, so engine identity must survive them."""
    devices = ctx.cxl_devices()
    subjects(check_engine_identity, len(devices))
    plan = _kitchen_sink_plan(ctx.seed)
    for device in devices:
        sim = EventDrivenDevice(device, seed=ctx.seed)
        with fault_injection(plan):
            scalar = sim.simulate(_N_REQUESTS, _LOAD_GBPS, engine="scalar")
            vector = sim.simulate(_N_REQUESTS, _LOAD_GBPS, engine="vector")
            again = sim.simulate(_N_REQUESTS, _LOAD_GBPS, engine="vector")
        if not np.array_equal(scalar.latencies_ns, vector.latencies_ns):
            worst = float(
                np.max(np.abs(scalar.latencies_ns - vector.latencies_ns))
            )
            yield Violation(
                layer="faults",
                check="engine-identity-under-faults",
                subject=device.name,
                message="scalar and vector engines diverged under faults",
                context={"max_abs_diff_ns": f"{worst:.6g}"},
            )
        if _counters(scalar) != _counters(vector):
            yield Violation(
                layer="faults",
                check="engine-identity-under-faults",
                subject=device.name,
                message="engines disagree on fault/event counters",
                context={"scalar": str(_counters(scalar)),
                         "vector": str(_counters(vector))},
            )
        if not np.array_equal(vector.latencies_ns, again.latencies_ns):
            yield Violation(
                layer="faults",
                check="engine-identity-under-faults",
                subject=device.name,
                message="two runs under the same plan were not identical",
                context={"plan": plan.key()[:16]},
            )
        if vector.injected_retries == 0 or vector.ecc_corrected == 0:
            yield Violation(
                layer="faults",
                check="engine-identity-under-faults",
                subject=device.name,
                message="kitchen-sink plan injected no faults (dead windows?)",
                context={"counters": str(_counters(vector))},
            )


@invariant(
    name="cache-isolation",
    layer="faults",
    description="an enabled fault plan moves every cell to a distinct "
    "cache key, so faulted runs can never shadow fault-free entries",
)
def check_cache_isolation(ctx: DiagContext) -> Iterator[Violation]:
    """Fault-free and faulted runs of one cell must never share a key."""
    devices = ctx.cxl_devices()
    workloads = ctx.sampled_workloads()
    subjects(check_cache_isolation, len(devices) * len(workloads))
    config = PipelineConfig(seed=ctx.seed)
    platform = ctx.platforms[0]
    plan = _kitchen_sink_plan(ctx.seed)
    other = FaultPlan(name="renamed", episodes=plan.episodes, seed=plan.seed)
    for device in devices:
        for workload in workloads:
            bare = run_key(workload, platform, device, config)
            with fault_injection(plan):
                faulted = run_key(workload, platform, device, config)
            with fault_injection(other):
                renamed = run_key(workload, platform, device, config)
            if faulted == bare:
                yield Violation(
                    layer="faults",
                    check="cache-isolation",
                    subject=f"{workload.name}/{device.name}",
                    message="enabled fault plan did not change the run key",
                    context={"key": bare[:16]},
                )
            if renamed != faulted:
                yield Violation(
                    layer="faults",
                    check="cache-isolation",
                    subject=f"{workload.name}/{device.name}",
                    message="plan key depends on the display name "
                    "(should be content-addressed)",
                    context={"faulted": faulted[:16], "renamed": renamed[:16]},
                )


@invariant(
    name="backoff-schedule",
    layer="faults",
    description="retry backoff is seeded-deterministic, jitter-bounded, "
    "and capped at the policy maximum",
)
def check_backoff_schedule(ctx: DiagContext) -> Iterator[Violation]:
    """The backoff schedule must be reproducible and bounded."""
    policy = RetryPolicy(
        max_attempts=5, backoff_base_s=0.05, backoff_factor=2.0,
        backoff_max_s=0.4, jitter_frac=0.25, seed=ctx.seed,
    )
    attempts = range(1, 8)
    subjects(check_backoff_schedule, len(list(attempts)))
    for attempt in attempts:
        first = policy.backoff_s("diag-cell", attempt)
        second = policy.backoff_s("diag-cell", attempt)
        if first != second:
            yield Violation(
                layer="faults",
                check="backoff-schedule",
                subject=f"attempt-{attempt}",
                message="backoff is not deterministic for a fixed "
                "(seed, cell, attempt)",
                context={"first": f"{first:.6f}", "second": f"{second:.6f}"},
            )
        nominal = min(
            policy.backoff_base_s * policy.backoff_factor ** (attempt - 1),
            policy.backoff_max_s,
        )
        lo = nominal * (1.0 - policy.jitter_frac)
        hi = nominal * (1.0 + policy.jitter_frac)
        if not lo <= first <= hi:
            yield Violation(
                layer="faults",
                check="backoff-schedule",
                subject=f"attempt-{attempt}",
                message="backoff left the jitter envelope",
                context={"value": f"{first:.6f}",
                         "envelope": f"[{lo:.6f}, {hi:.6f}]"},
            )
