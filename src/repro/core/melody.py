"""Melody: large-scale CXL characterization campaign orchestration.

A :class:`Campaign` declares what to measure -- workloads x memory targets
on a platform, with a local-DRAM baseline -- and :class:`Melody` executes
it, producing a :class:`CampaignResult` dataset of per-workload slowdowns
plus the underlying runs (so Spa and the prefetch analysis can reuse them
without re-running anything).

Standard campaign builders regenerate the paper's setups:

* :func:`Melody.device_campaign` -- the Figure 8a sweep: 265 workloads
  across NUMA and CXL-A..D on EMR.
* :func:`Melody.latency_spectrum_campaign` -- the Figure 9a violin sweep:
  all 11 {CPU} x {NUMA/CXL} latency configurations from 140 to 410 ns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cpu.pipeline import PipelineConfig, RunResult
from repro.errors import AnalysisError, ConfigurationError
from repro.hw.cxl.device import device_by_name
from repro.hw.platform import (
    EMR2S,
    SKX2S,
    SKX8S,
    SPR2S,
    Platform,
)
from repro.hw.target import MemoryTarget
from repro.obs.timers import phase_timer
from repro.runtime.cache import RunCache
from repro.runtime.context import get_engine
from repro.runtime.executor import CampaignEngine, Cell, FailedCell
from repro.workloads import all_workloads
from repro.workloads.base import WorkloadSpec


@dataclass(frozen=True)
class SlowdownRecord:
    """One (workload, target) slowdown measurement."""

    workload: str
    suite: str
    latency_class: str
    target: str
    platform: str
    slowdown_pct: float
    baseline: RunResult
    run: RunResult


@dataclass(frozen=True)
class Campaign:
    """A declarative measurement plan."""

    name: str
    platform: Platform
    targets: Tuple[MemoryTarget, ...]
    workloads: Tuple[WorkloadSpec, ...]
    config: PipelineConfig = PipelineConfig()
    baseline: Optional[MemoryTarget] = None  # defaults to platform local

    def __post_init__(self) -> None:
        if not self.targets:
            raise ConfigurationError(f"campaign {self.name}: no targets")
        if not self.workloads:
            raise ConfigurationError(f"campaign {self.name}: no workloads")


@dataclass
class CampaignResult:
    """Dataset produced by one campaign.

    Lookups go through a lazily built ``(workload, target)`` index (plus a
    per-target grouping) so per-workload queries from downstream analyses
    cost O(1) instead of scanning all records; the index rebuilds itself
    whenever records were appended since it was last used.
    """

    campaign: Campaign
    records: List[SlowdownRecord] = field(default_factory=list)
    skipped: List[Tuple[str, str]] = field(default_factory=list)  # (workload, target)
    failed: List[FailedCell] = field(default_factory=list)
    """Cells quarantined by a resilient engine (empty in fail-fast mode)."""
    _indexed_count: int = field(default=-1, init=False, repr=False, compare=False)
    _by_cell: Dict[Tuple[str, str], SlowdownRecord] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _by_target: Dict[str, List[SlowdownRecord]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def _index(self) -> None:
        if self._indexed_count == len(self.records):
            return
        self._by_cell = {}
        self._by_target = {}
        for r in self.records:
            self._by_cell[(r.workload, r.target)] = r
            self._by_target.setdefault(r.target, []).append(r)
        self._indexed_count = len(self.records)

    def slowdowns(self, target: str) -> np.ndarray:
        """Slowdown vector (percent) for one target, in workload order."""
        self._index()
        group = self._by_target.get(target)
        if not group:
            targets = sorted(self._by_target)
            raise AnalysisError(f"no records for {target!r}; have {targets}")
        return np.array([r.slowdown_pct for r in group])

    def record(self, workload: str, target: str) -> SlowdownRecord:
        """Look up one record."""
        self._index()
        try:
            return self._by_cell[(workload, target)]
        except KeyError:
            raise AnalysisError(
                f"no record for ({workload!r}, {target!r})"
            ) from None

    def pairs(self, target: str) -> List[Tuple[RunResult, RunResult]]:
        """(baseline, run) pairs for one target -- Spa's input."""
        self._index()
        return [
            (r.baseline, r.run) for r in self._by_target.get(target, [])
        ]

    def target_names(self) -> List[str]:
        """All targets present, in first-seen order."""
        self._index()
        return list(self._by_target)

    def fraction_below(self, target: str, threshold_pct: float) -> float:
        """Fraction of workloads with slowdown below ``threshold_pct``."""
        s = self.slowdowns(target)
        return float(np.mean(s < threshold_pct))


def campaign_cells(
    campaign: Campaign,
) -> Tuple[List[WorkloadSpec], List[Tuple[WorkloadSpec, MemoryTarget]],
           List[Tuple[str, str]]]:
    """Plan one campaign's cells: (baseline workloads, grid, skipped).

    The single source of truth for what a campaign executes:
    :meth:`Melody.run` submits exactly these cells, the CLI sizes
    checkpoints from the same plan, and the dist coordinator turns them
    into work units.
    """
    grid: List[Tuple[WorkloadSpec, MemoryTarget]] = []
    skipped: List[Tuple[str, str]] = []
    for workload in campaign.workloads:
        for target in campaign.targets:
            if workload.working_set_gb > target.capacity_gb:
                skipped.append((workload.name, target.name))
                continue
            grid.append((workload, target))
    return list(campaign.workloads), grid, skipped


class Melody:
    """Campaign executor on top of the shared :mod:`repro.runtime` engine.

    All cell execution -- baselines included -- routes through a
    :class:`~repro.runtime.executor.CampaignEngine`, so identical cells are
    memoized across campaigns, experiments and (with a disk cache) across
    processes.  By default every Melody in a process shares one engine;
    pass ``engine``, or ``cache_dir`` for a private one.
    """

    def __init__(
        self,
        config: PipelineConfig = PipelineConfig(),
        engine: Optional[CampaignEngine] = None,
        cache_dir: Optional[str] = None,
    ):
        self.config = config
        if engine is None and cache_dir is not None:
            engine = CampaignEngine(cache=RunCache(cache_dir))
        self._engine = engine

    @property
    def engine(self) -> CampaignEngine:
        """This Melody's engine (the process-wide one unless overridden)."""
        return self._engine if self._engine is not None else get_engine()

    # -- execution -----------------------------------------------------------

    def run(self, campaign: Campaign) -> CampaignResult:
        """Execute a campaign, skipping workloads that do not fit a device.

        The cell grid is submitted baselines-first, so slowdown cells that
        coincide with the baseline target (or with cells of an earlier
        campaign) are recalled from the run cache instead of re-executed.
        """
        with phase_timer("campaign", campaign=campaign.name):
            return self._run(campaign)

    def _run(self, campaign: Campaign) -> CampaignResult:
        """The untimed campaign body (see :meth:`run`)."""
        result = CampaignResult(campaign=campaign)
        baseline_target = campaign.baseline or campaign.platform.local_target()
        base_workloads, grid, skipped = campaign_cells(campaign)
        result.skipped.extend(skipped)
        cells: List[Cell] = [
            Cell(workload, campaign.platform, baseline_target, self.config)
            for workload in base_workloads
        ]
        cells.extend(
            Cell(workload, campaign.platform, target, campaign.config)
            for workload, target in grid
        )
        engine = self.engine
        failed_before = len(engine.failed)
        runs = engine.run_cells(cells)
        result.failed = list(engine.failed[failed_before:])
        baselines = dict(zip((w.name for w in base_workloads), runs))
        for (workload, target), run in zip(grid, runs[len(base_workloads):]):
            base = baselines[workload.name]
            if run is None or base is None:
                # Quarantined by the resilient engine: the FailedCell
                # record (in ``result.failed``) carries the diagnosis.
                continue
            result.records.append(
                SlowdownRecord(
                    workload=workload.name,
                    suite=workload.suite,
                    latency_class=workload.latency_class,
                    target=target.name,
                    platform=campaign.platform.name,
                    slowdown_pct=run.slowdown_vs(base),
                    baseline=base,
                    run=run,
                )
            )
        return result

    # -- standard campaigns ----------------------------------------------------

    @staticmethod
    def device_campaign(
        workloads: Sequence[WorkloadSpec] = None,
        platform: Platform = EMR2S,
        devices: Sequence[str] = ("CXL-A", "CXL-B", "CXL-C", "CXL-D"),
        include_numa: bool = True,
    ) -> Campaign:
        """The Figure 8a setup: all workloads across NUMA + 4 CXL devices."""
        targets: List[MemoryTarget] = []
        if include_numa:
            targets.append(platform.numa_target())
        targets.extend(device_by_name(name) for name in devices)
        return Campaign(
            name="device-characterization",
            platform=platform,
            targets=tuple(targets),
            workloads=tuple(workloads if workloads is not None else all_workloads()),
        )

    @staticmethod
    def latency_spectrum_setups() -> List[Tuple[str, Platform, MemoryTarget]]:
        """The 11 {CPU} x {NUMA, CXL} setups of Figure 9a, by rising latency.

        SKX contributes the NUMA-emulated 140/190/410 ns points; SPR and EMR
        contribute their NUMA plus locally-attached CXL devices.
        """
        setups: List[Tuple[str, Platform, MemoryTarget]] = [
            ("SKX-140ns", SKX2S, SKX2S.numa_target()),
            ("SKX-190ns", SKX2S, SKX2S.emulated_latency_target(190.0)),
            ("SPR-NUMA", SPR2S, SPR2S.numa_target()),
            ("EMR-NUMA", EMR2S, EMR2S.numa_target()),
            ("SPR-CXL-A", SPR2S, device_by_name("CXL-A")),
            ("EMR-CXL-A", EMR2S, device_by_name("CXL-A")),
            ("EMR-CXL-D", EMR2S, device_by_name("CXL-D")),
            ("SPR-CXL-B", SPR2S, device_by_name("CXL-B")),
            ("EMR-CXL-B", EMR2S, device_by_name("CXL-B")),
            ("EMR-CXL-C", EMR2S, device_by_name("CXL-C")),
            ("SKX-410ns", SKX8S, SKX8S.numa_target()),
        ]
        return setups

    def run_latency_spectrum(
        self, workloads: Sequence[WorkloadSpec] = None
    ) -> Dict[str, CampaignResult]:
        """Execute the full Figure 9a spectrum; one result per setup."""
        workloads = tuple(workloads if workloads is not None else all_workloads())
        results = {}
        for label, platform, target in self.latency_spectrum_setups():
            campaign = Campaign(
                name=label,
                platform=platform,
                targets=(target,),
                workloads=workloads,
                config=self.config,
            )
            results[label] = self.run(campaign)
        return results
