"""Shared infrastructure for experiment drivers."""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.core.melody import Campaign, CampaignResult, Melody
from repro.cpu.pipeline import PipelineConfig
from repro.errors import DiagnosticError
from repro.hw.cxl import cxl_a, cxl_b, cxl_c, cxl_d
from repro.hw.platform import EMR2S
from repro.hw.target import MemoryTarget
from repro.obs.timers import phase_timer
from repro.workloads import all_workloads
from repro.workloads.base import WorkloadSpec

FAST_SUBSAMPLE = 5
"""In fast mode, run every Nth workload of the population."""

_STRICT = False


def set_strict(enabled: bool) -> None:
    """Toggle strict mode: campaign results are diag-validated on return.

    Flipped by the CLI's ``--strict`` flag; affects every Melody built via
    :func:`campaign_melody` from then on (i.e. all experiment drivers).
    """
    global _STRICT
    _STRICT = bool(enabled)


def strict_enabled() -> bool:
    """Whether strict (invariant-enforcing) mode is on."""
    return _STRICT


class ValidatingMelody(Melody):
    """A Melody that refuses to return an invariant-violating dataset.

    In strict mode every campaign result passes through
    :func:`repro.diag.runcheck.validate_campaign_result` before being
    handed to the caller; any violation raises
    :class:`~repro.errors.DiagnosticError` carrying the full report, so a
    model regression aborts the experiment instead of flowing into a
    rendered figure.
    """

    def run(self, campaign: Campaign) -> CampaignResult:
        """Execute the campaign; in strict mode, validate before returning."""
        result = super().run(campaign)
        if _STRICT:
            from repro.diag.runcheck import validate_campaign_result

            with phase_timer("validate", campaign=campaign.name):
                report = validate_campaign_result(result)
            if not report.ok:
                raise DiagnosticError(report, context=f"campaign {campaign.name}")
        return result


def campaign_melody(config: Optional[PipelineConfig] = None) -> Melody:
    """A Melody on the process-wide shared runtime engine.

    Every experiment driver builds its Melody here, so their campaigns
    memoize against each other: the Figure 8a device sweep populates the
    run cache that the Spa / prefetch / breakdown figures then reuse, and
    the CLI-level ``--cache-dir`` setting applies to all of them.
    Under ``--strict`` the returned Melody validates every campaign result
    against the diag invariants before handing it back.
    """
    return (
        ValidatingMelody(config) if config is not None else ValidatingMelody()
    )


def experiment_timer(experiment: str, stage: str):
    """A phase timer for one stage (``run``/``render``) of one experiment.

    The CLI's ``figures`` command wraps every driver in these, so a
    ``--metrics`` export carries per-experiment wall-time histograms
    (``phase_seconds{experiment=...,phase=...}``) and a ``--trace`` file
    shows experiments as wall-clock spans alongside the simulator tracks.
    """
    return phase_timer(stage, experiment=experiment)


def workload_population(fast: bool) -> Tuple[WorkloadSpec, ...]:
    """The evaluation population: subsampled in fast mode, full otherwise.

    Fast mode keeps every anchored SPEC workload (the figures call them out
    by name) and every Nth of the rest, preserving suite diversity.
    """
    workloads = all_workloads()
    if not fast:
        return workloads
    anchored = {
        "603.bwaves_s", "619.lbm_s", "649.fotonik3d_s", "654.roms_s",
        "520.omnetpp_r", "605.mcf_s", "602.gcc_s", "631.deepsjeng_s",
        "508.namd_r", "503.bwaves_r", "519.lbm_r",
    }
    picked = [w for w in workloads if w.name in anchored]
    rest = [w for w in workloads if w.name not in anchored]
    picked.extend(rest[::FAST_SUBSAMPLE])
    picked.sort(key=lambda w: (w.suite, w.name))
    return tuple(picked)


def standard_targets() -> dict:
    """Local/NUMA/CXL-A..D on the EMR reference platform."""
    return {
        "Local": EMR2S.local_target(),
        "NUMA": EMR2S.numa_target(),
        "CXL-A": cxl_a(),
        "CXL-B": cxl_b(),
        "CXL-C": cxl_c(),
        "CXL-D": cxl_d(),
    }


def measurement_targets() -> Sequence[MemoryTarget]:
    """The six targets of every device-level figure, in paper order."""
    targets = standard_targets()
    return [targets[k] for k in ("Local", "NUMA", "CXL-A", "CXL-B", "CXL-C", "CXL-D")]
