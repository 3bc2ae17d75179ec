"""Runtime-layer invariants: the memoization layer must be invisible.

The campaign engine's whole value proposition is that a cache hit is
indistinguishable from a recompute.  These checks run real pipeline cells
and verify (a) a disk round-trip through :class:`~repro.runtime.cache
.RunCache` reproduces the stored result bit-identically, (b) re-running
the same cell recomputes bit-identical observables (the determinism the
content-addressed key relies on), and (c) the key itself is stable across
object reconstruction and distinct across cells.
"""

from __future__ import annotations

import tempfile
from typing import Iterator

from repro.cpu.pipeline import PipelineConfig, run_workload
from repro.diag.context import DiagContext
from repro.diag.registry import invariant, subjects
from repro.diag.report import Violation
from repro.runtime.cache import RunCache, run_key
from repro.runtime.serialize import run_result_to_dict


def _reference_platform(ctx: DiagContext):
    for platform in ctx.platforms:
        if getattr(platform, "name", "") == "EMR2S":
            return platform
    return ctx.platforms[0]


def _reference_target(ctx: DiagContext):
    devices = ctx.cxl_devices()
    return devices[0] if devices else ctx.targets[0]


@invariant(
    name="cache-fidelity",
    layer="runtime",
    description="a disk-cache round trip and a recompute both reproduce a "
    "run's observables bit-identically",
)
def check_cache_fidelity(ctx: DiagContext) -> Iterator[Violation]:
    """Cache round trips and recomputes are bit-identical to the original run."""
    platform = _reference_platform(ctx)
    target = _reference_target(ctx)
    config = PipelineConfig(seed=ctx.seed)
    workloads = ctx.sampled_workloads()
    subjects(check_cache_fidelity, len(workloads))
    with tempfile.TemporaryDirectory(prefix="repro-diag-") as cache_dir:
        cache = RunCache(cache_dir)
        for workload in workloads:
            result = run_workload(workload, platform, target, config)
            reference = run_result_to_dict(result)
            key = run_key(workload, platform, target, config)
            cache.put(key, result)
            cache.flush()
            cache.clear_memory()
            reloaded = cache.get(key)
            if reloaded is None:
                yield Violation(
                    layer="runtime",
                    check="cache-fidelity",
                    subject=workload.name,
                    message="stored run did not survive a disk round trip",
                    context={"key": key[:16]},
                )
            elif run_result_to_dict(reloaded) != reference:
                yield Violation(
                    layer="runtime",
                    check="cache-fidelity",
                    subject=workload.name,
                    message="disk round trip altered the run's observables",
                    context={"key": key[:16]},
                )
            recomputed = run_workload(workload, platform, target, config)
            if run_result_to_dict(recomputed) != reference:
                yield Violation(
                    layer="runtime",
                    check="cache-fidelity",
                    subject=workload.name,
                    message="recomputing the same cell produced different "
                    "observables (pipeline non-determinism)",
                    context={"key": key[:16]},
                )


@invariant(
    name="run-key-stability",
    layer="runtime",
    description="the content-addressed run key is stable across object "
    "reconstruction and distinct across cells",
)
def check_run_key_stability(ctx: DiagContext) -> Iterator[Violation]:
    """Run keys are stable across reconstruction and distinct across cells."""
    from repro.hw.cxl.device import CxlDevice

    platform = _reference_platform(ctx)
    config = PipelineConfig(seed=ctx.seed)
    workloads = ctx.sampled_workloads()
    devices = ctx.cxl_devices()
    subjects(check_run_key_stability, len(workloads) * max(1, len(devices)))
    seen = {}
    for device in devices:
        rebuilt = CxlDevice(device.profile, temperature_c=device.temperature_c)
        for workload in workloads:
            key = run_key(workload, platform, device, config)
            rebuilt_key = run_key(workload, platform, rebuilt, config)
            if key != rebuilt_key:
                yield Violation(
                    layer="runtime",
                    check="run-key-stability",
                    subject=f"{workload.name}/{device.name}",
                    message="identical reconstructed cell hashed to a "
                    "different run key",
                    context={"key": key[:16], "rebuilt": rebuilt_key[:16]},
                )
            collision = seen.get(key)
            if collision is not None:
                yield Violation(
                    layer="runtime",
                    check="run-key-stability",
                    subject=f"{workload.name}/{device.name}",
                    message=f"distinct cells share a run key with {collision}",
                    context={"key": key[:16]},
                )
            seen[key] = f"{workload.name}/{device.name}"


@invariant(
    name="analytic-batch-identity",
    layer="runtime",
    description="a fused pending set of analytic cells returns byte-identical "
    "results to the serial engine, cell by cell, with or without a retry "
    "policy and a doomed cell",
)
def check_analytic_batch_identity(ctx: DiagContext) -> Iterator[Violation]:
    """The engine's fused analytic path is indistinguishable from serial.

    One heterogeneous pending set -- sampled, multi-phase, bursty and
    bandwidth-bound workloads on every target kind (plus CXL+NUMA, a
    switch and an interleaved pair), on two platforms, prefetchers on and
    off -- runs once through ``mode="serial"``, once through the default
    fused path, and once through a resilient engine with one cell doomed
    by chaos; each cell's serialized result must match byte for byte.
    The resilient pass must still run every other cell fused and
    quarantine exactly the doomed one.
    """
    import json

    from repro.faults.chaos import ChaosPolicy, chaos_injection
    from repro.hw.topology import (
        CxlNumaTopology,
        CxlSwitchTopology,
        InterleavedTarget,
    )
    from repro.runtime.executor import CampaignEngine, Cell, RetryPolicy

    workloads = list(ctx.sampled_workloads())
    extras = [
        next((w for w in ctx.workloads if w.phases), None),
        next((w for w in ctx.workloads
              if w.burst_fraction > 0.0 and w.burst_ratio > 1.0), None),
        # the heaviest traffic presses against the bandwidth floor
        max(ctx.workloads, default=None, key=lambda w: (
            w.memory_bytes_per_kilo_instruction() * w.threads
        )),
    ]
    for extra in extras:
        if extra is not None and extra not in workloads:
            workloads.append(extra)
    targets = list(ctx.targets)
    devices = ctx.cxl_devices()
    if devices:
        device = devices[0]
        targets += [
            CxlNumaTopology(device),
            CxlSwitchTopology(device),
            InterleavedTarget([device, device]),
        ]
    platforms = [
        p for p in ctx.platforms
        if getattr(p, "name", "") in ("EMR2S", "SPR2S")
    ] or [_reference_platform(ctx)]
    cells = [
        Cell(workload, platform, target,
             PipelineConfig(prefetchers_enabled=pf, seed=ctx.seed))
        for platform in platforms
        for pf in (True, False)
        for target in targets
        for workload in workloads
    ]
    subjects(check_analytic_batch_identity, len(cells))
    serial = CampaignEngine(cache=RunCache(), mode="serial").run_cells(cells)
    engine = CampaignEngine(cache=RunCache())
    fused = engine.run_cells(cells)
    doomed = cells[len(cells) // 2].key()
    resilient = CampaignEngine(
        cache=RunCache(), policy=RetryPolicy(max_attempts=2,
                                             backoff_base_s=0.0),
    )
    with chaos_injection(ChaosPolicy(doomed=(doomed,))):
        isolated = resilient.run_cells(cells)
    for label, run, results, quarantined in (
        ("default", engine, fused, []),
        ("resilient", resilient, isolated, [doomed]),
    ):
        if run.stats.cells_batched != len(cells) - len(quarantined) \
                or [record.key for record in run.failed] != quarantined:
            yield Violation(
                layer="runtime",
                check="analytic-batch-identity",
                subject=f"{label}-engine",
                message=f"the {label} engine did not run the analytic set "
                "fused, or did not quarantine exactly the doomed cells",
                context={"cells": len(cells),
                         "batched": run.stats.cells_batched,
                         "quarantined": len(run.failed)},
            )
        for cell, one, other in zip(cells, serial, results):
            if cell.key() in quarantined or other is not None and json.dumps(
                run_result_to_dict(one), sort_keys=True
            ) == json.dumps(run_result_to_dict(other), sort_keys=True):
                continue
            yield Violation(
                layer="runtime",
                check="analytic-batch-identity",
                subject=f"{cell.platform.name}/{cell.target.name}/"
                f"{cell.workload.name}/pf={cell.config.prefetchers_enabled}",
                message=f"{label} result differs from the serial engine's",
                context={"key": cell.key()[:16]},
            )
