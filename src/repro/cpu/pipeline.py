"""The pipeline runner: execute a workload model on (platform, target).

`run_workload` is the single entry point every higher layer (Melody
campaigns, Spa, the measurement tools) uses to "run" a workload.  It
resolves the workload's phases, solves the backend fixed point per phase,
and assembles aggregate cycles plus a noisy PMU counter reading -- i.e. the
exact observables a real profiling run would hand to Spa.
`run_workloads` does the same for many cells at once, solving each
target's phases in one batched fixed point; both share the assembly step,
so their results are identical.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cpu.backend import BackendModel, OperatingPoint, StallComponents
from repro.cpu.counters import CounterSample, CounterSet
from repro.hw.platform import Platform
from repro.hw.target import MemoryTarget
from repro.rng import DEFAULT_SEED, generator_for
from repro.workloads.base import Phase, WorkloadSpec

SERIALIZATION_BASE_CYCLES = 10.0
"""Baseline scoreboard cost per serializing operation (target-independent)."""


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs of a profiling run."""

    prefetchers_enabled: bool = True
    seed: int = DEFAULT_SEED
    counter_noise: Optional[float] = None  # None = default PMU noise


@dataclass(frozen=True)
class PhaseResult:
    """One phase's share of a run."""

    phase: Phase
    instructions: float
    components: StallComponents
    operating_point: OperatingPoint
    counters: CounterSample

    @property
    def cycles(self) -> float:
        """Phase cycles."""
        return self.components.cycles


@dataclass(frozen=True)
class RunResult:
    """Aggregate outcome of running a workload on one memory target."""

    workload: WorkloadSpec
    platform: Platform
    target_name: str
    cycles: float
    instructions: float
    counters: CounterSample
    components: StallComponents
    phases: Tuple[PhaseResult, ...]

    @property
    def time_s(self) -> float:
        """Wall-clock runtime in seconds."""
        return self.cycles / (self.platform.freq_ghz * 1e9)

    @property
    def performance(self) -> float:
        """Instructions per second (the paper's P metric)."""
        return self.instructions / self.time_s

    @property
    def ipc(self) -> float:
        """Instructions per cycle."""
        return self.instructions / self.cycles

    @property
    def mean_latency_ns(self) -> float:
        """Instruction-weighted mean device latency across phases."""
        total = sum(p.instructions for p in self.phases)
        return (
            sum(p.operating_point.latency_ns * p.instructions for p in self.phases)
            / total
        )

    @property
    def mean_load_gbps(self) -> float:
        """Time-weighted mean offered bandwidth across phases."""
        total_cycles = sum(p.cycles for p in self.phases)
        return (
            sum(p.operating_point.load_gbps * p.cycles for p in self.phases)
            / total_cycles
        )

    def slowdown_vs(self, baseline: "RunResult") -> float:
        """Paper's S metric vs a baseline run: (P_base / P - 1) * 100%."""
        return (baseline.performance / self.performance - 1.0) * 100.0


def _combine_components(parts) -> StallComponents:
    """Sum stall components across phases."""
    return StallComponents(
        base=sum(p.base for p in parts),
        frontend=sum(p.frontend for p in parts),
        s_l1=sum(p.s_l1 for p in parts),
        s_l2=sum(p.s_l2 for p in parts),
        s_l3=sum(p.s_l3 for p in parts),
        s_dram=sum(p.s_dram for p in parts),
        s_store=sum(p.s_store for p in parts),
        s_core=sum(p.s_core for p in parts),
        s_other=sum(p.s_other for p in parts),
    )


def run_workload(
    workload: WorkloadSpec,
    platform: Platform,
    target: MemoryTarget,
    config: PipelineConfig = PipelineConfig(),
) -> RunResult:
    """Profile one workload on ``target`` and return cycles + counters.

    The counter RNG is derived from (seed, workload, platform, target, pf)
    so repeated identical runs reproduce bit-identical readings while any
    configuration change re-randomizes the measurement noise.
    """
    model = BackendModel(platform, prefetchers_enabled=config.prefetchers_enabled)
    specs = [workload.in_phase(phase) for phase in workload.effective_phases()]
    solved = [model.solve(spec, target) for spec in specs]
    return _assemble(workload, platform, target, config, model, specs, solved)


def run_workloads(
    cells: Sequence[
        Tuple[WorkloadSpec, Platform, MemoryTarget, PipelineConfig]
    ],
) -> List[RunResult]:
    """:func:`run_workload` for many ``(workload, platform, target, config)``
    cells, one :meth:`BackendModel.solve_many` per target group.

    Cells group by (platform, target object, ``prefetchers_enabled``); a
    group's phases become rows of one batched fixed point, and each cell's
    :class:`RunResult` is assembled exactly as :func:`run_workload`
    assembles it, with its own counter RNG.  Results come back in cell
    order and equal ``run_workload`` on each cell, bit for bit.
    """
    groups: Dict[Tuple[int, int, bool], List[int]] = {}
    for i, (_, platform, target, config) in enumerate(cells):
        groups.setdefault(
            (id(platform), id(target), config.prefetchers_enabled), []
        ).append(i)
    results: List[Optional[RunResult]] = [None] * len(cells)
    for members in groups.values():
        _, platform, target, config = cells[members[0]]
        model = BackendModel(
            platform, prefetchers_enabled=config.prefetchers_enabled
        )
        specs = [
            [cells[i][0].in_phase(phase)
             for phase in cells[i][0].effective_phases()]
            for i in members
        ]
        solved = iter(
            model.solve_many([s for row in specs for s in row], target)
        )
        for i, cell_specs in zip(members, specs):
            workload, _, _, config = cells[i]
            results[i] = _assemble(
                workload, platform, target, config, model, cell_specs,
                [next(solved) for _ in cell_specs],
            )
    return results


def _assemble(
    workload: WorkloadSpec,
    platform: Platform,
    target: MemoryTarget,
    config: PipelineConfig,
    model: BackendModel,
    specs: Sequence[WorkloadSpec],
    solved: Sequence[Tuple[StallComponents, OperatingPoint]],
) -> RunResult:
    """One cell's :class:`RunResult` from its solved phases: the counter
    readings (one RNG per cell, drawn phase by phase) and the totals."""
    rng = generator_for(
        config.seed,
        "pipeline",
        workload.name,
        platform.name,
        target.name,
        f"pf={config.prefetchers_enabled}",
    )
    counter_kwargs = {}
    if config.counter_noise is not None:
        counter_kwargs["noise"] = config.counter_noise
    counter_set = CounterSet(rng, **counter_kwargs)

    phase_results = []
    for phase, spec, (components, op_point) in zip(
        workload.effective_phases(), specs, solved
    ):
        instructions = float(spec.instructions)
        baseline_loads = model.baseline_counter_activity(spec)
        serialization = (
            instructions / 1000.0
            * spec.serialization_pki
            * SERIALIZATION_BASE_CYCLES
        )
        counters = counter_set.build(
            cycles=components.cycles,
            instructions=instructions,
            s_l1=components.s_l1,
            s_l2=components.s_l2,
            s_l3=components.s_l3,
            s_dram=components.s_dram,
            s_store=components.s_store,
            s_core=components.s_core,
            s_other=components.s_other,
            frontend_stalls=components.frontend,
            baseline_load_stalls=baseline_loads,
            serialization_stalls=serialization,
            l1pf_l3_miss=instructions / 1000.0 * op_point.prefetch.l1pf_l3_miss_pki,
            l2pf_l3_miss=instructions / 1000.0 * op_point.prefetch.l2pf_l3_miss_pki,
            l2pf_l3_hit=instructions / 1000.0 * op_point.prefetch.l2pf_l3_hit_pki,
        )
        phase_results.append(
            PhaseResult(
                phase=phase,
                instructions=instructions,
                components=components,
                operating_point=op_point,
                counters=counters,
            )
        )

    total_counters = phase_results[0].counters
    for extra in phase_results[1:]:
        total_counters = total_counters.plus(extra.counters)
    components = _combine_components([p.components for p in phase_results])

    return RunResult(
        workload=workload,
        platform=platform,
        target_name=target.name,
        cycles=components.cycles,
        instructions=float(sum(p.instructions for p in phase_results)),
        counters=total_counters,
        components=components,
        phases=tuple(phase_results),
    )


def sample_run_latencies(
    result: RunResult,
    target: MemoryTarget,
    n: int = 10_000,
    seed: int = DEFAULT_SEED,
) -> np.ndarray:
    """Per-request device latencies a run would observe (Figure 7/8d data).

    Samples each phase's operating point in proportion to its instruction
    share, so phase bursts shape the tail exactly as the run experienced
    them.  Always returns exactly ``n`` samples: per-chunk rounding can
    under-shoot (e.g. two half-weight burst points of an odd count both
    round down), in which case the shortfall is drawn from the dominant
    phase's operating point.
    """
    rng = generator_for(
        seed, "run-latency", result.workload.name, result.target_name
    )
    total = sum(p.instructions for p in result.phases)
    chunks = []
    drawn = 0
    for phase in result.phases:
        count = max(1, int(round(n * phase.instructions / total)))
        op = phase.operating_point
        spec = result.workload.in_phase(phase.phase)
        # Mirror the burst mixture the backend used for this phase.
        for weight, load in _phase_traffic_points(spec, op.load_gbps):
            k = max(1, int(round(count * weight)))
            chunks.append(
                target.sample_latencies(
                    k, rng, load_gbps=load, read_fraction=op.read_fraction
                )
            )
            drawn += k
    if drawn < n:
        dominant = max(result.phases, key=lambda p: p.instructions)
        op = dominant.operating_point
        chunks.append(
            target.sample_latencies(
                n - drawn, rng,
                load_gbps=op.load_gbps, read_fraction=op.read_fraction,
            )
        )
    return np.concatenate(chunks)[:n]


def _phase_traffic_points(spec: WorkloadSpec, avg_load: float):
    """Re-expose the backend's burst mixture for latency sampling."""
    from repro.cpu.backend import _traffic_points

    return _traffic_points(spec, avg_load)
