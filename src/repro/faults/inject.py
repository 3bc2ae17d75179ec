"""Apply a :class:`~repro.faults.plan.FaultPlan` to prepared sim inputs.

The event-driven simulator draws *all* of its randomness up front into a
:class:`~repro.hw.cxl.kernels.SimInputs`; fault injection is a pure
transformation of those inputs plus two post-engine latency adjustments.
That placement is what keeps the subsystem's two identity contracts:

* **No-plan identity** -- with no (or an empty) plan the transformation
  is never invoked, so the simulator's RNG stream and every downstream
  float are untouched.
* **Cross-engine identity** -- injected retries are OR-ed into the shared
  ``retry_draw`` array and throttle derating rides a shared per-request
  ``service_scale`` array, both consumed identically by the scalar loop
  and the fused kernel; dropout overrides and ECC correction stalls are
  applied *after* the engine, elementwise, to whichever latency array it
  produced.  Scalar and vector runs under the same plan therefore stay
  bit-identical (the ``faults`` diag layer enforces this).

Fault randomness comes from a dedicated stream keyed by the plan's
content hash, the device, and the operating point -- never from the
simulator's own stream.  Every probabilistic episode draws a full-length
vector whether or not its window covers any request, so the draw layout
is independent of the data and two runs under one plan agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from repro.faults.plan import FaultPlan
from repro.rng import generator_for

# NOTE: SimInputs (repro.hw.cxl.kernels) is referenced only in annotations;
# importing it here would close an import cycle through repro.hw.cxl, whose
# eventdevice module imports this package.


@dataclass(frozen=True)
class AppliedFaults:
    """What a plan actually did to one simulation's inputs.

    ``extra_ns`` (additive, e.g. ECC correction stalls) and
    ``override_ns`` (absolute, NaN where inactive, e.g. dropout
    completions) are the shared post-engine latency transforms; the
    counters feed :class:`~repro.hw.cxl.eventdevice.EventSimResult` and
    the ``sim.faults.*`` metrics.
    """

    plan_key: str
    injected_retries: int = 0
    poisoned_reads: int = 0
    ecc_corrected: int = 0
    throttled_requests: int = 0
    extra_ns: Optional[np.ndarray] = None
    override_ns: Optional[np.ndarray] = None

    def adjust_latencies(self, latencies_ns: np.ndarray) -> np.ndarray:
        """The shared post-engine transform (elementwise, engine-agnostic)."""
        out = latencies_ns
        if self.extra_ns is not None:
            out = out + self.extra_ns
        if self.override_ns is not None:
            out = np.where(np.isnan(self.override_ns), out, self.override_ns)
        return out


def apply_fault_plan(
    inp: SimInputs,
    device,
    plan: FaultPlan,
    offered_gbps: float,
) -> Tuple[SimInputs, AppliedFaults]:
    """Transform ``inp`` per ``plan``; returns the new inputs + ledger.

    ``device`` is the :class:`~repro.hw.cxl.device.CxlDevice` being
    simulated (its link supplies the storm retry probability, its
    controller the thermal derating).
    """
    n = inp.n
    arrivals = inp.arrivals
    link = device.profile.link
    controller = device.profile.controller
    rng = generator_for(
        plan.seed, "faults", plan.key(), device.name,
        f"{offered_gbps:.3f}", str(n),
    )

    retry = inp.retry_draw
    scale: Optional[np.ndarray] = None
    extra: Optional[np.ndarray] = None
    override: Optional[np.ndarray] = None
    injected = 0
    poisoned = 0
    corrected = 0

    for episode in plan.episodes:
        mask = episode.window_mask(arrivals)
        if episode.kind == "link_retry_storm":
            prob = link.storm_retry_probability(episode.retry_multiplier)
            draw = (rng.random(n) < prob) & mask
            injected += int(np.count_nonzero(draw & ~retry))
            retry = retry | draw
        elif episode.kind == "thermal_throttle":
            derate = controller.throttle_episode_derating(
                episode.temperature_c
            )
            if derate > 1.0:
                if scale is None:
                    scale = np.ones(n)
                scale = np.where(mask, scale * derate, scale)
        elif episode.kind == "device_dropout":
            poisoned += int(np.count_nonzero(mask))
            if override is None:
                override = np.full(n, np.nan)
            override = np.where(
                mask,
                episode.dropout_latency_ns + inp.host_overhead_ns,
                override,
            )
        elif episode.kind == "ecc":
            single = (rng.random(n) < episode.ecc_single_prob) & mask
            multi = (rng.random(n) < episode.ecc_multi_prob) & mask
            corrected += int(np.count_nonzero(single))
            poisoned += int(np.count_nonzero(multi))
            if episode.ecc_correction_ns > 0 and single.any():
                if extra is None:
                    extra = np.zeros(n)
                extra = extra + np.where(
                    single, episode.ecc_correction_ns, 0.0
                )

    throttled = (
        int(np.count_nonzero(scale > 1.0)) if scale is not None else 0
    )
    if retry is not inp.retry_draw or scale is not None:
        inp = replace(inp, retry_draw=retry, service_scale=scale)
    applied = AppliedFaults(
        plan_key=plan.key(),
        injected_retries=injected,
        poisoned_reads=poisoned,
        ecc_corrected=corrected,
        throttled_requests=throttled,
        extra_ns=extra,
        override_ns=override,
    )
    return inp, applied
