"""repro.faults: deterministic CXL RAS fault injection + host chaos.

Two halves, both seeded and content-addressed:

* **Device faults** (:mod:`repro.faults.plan`, :mod:`repro.faults.inject`)
  -- scheduled :class:`FaultEpisode` windows (link CRC retry storms,
  device dropout, thermal throttle, ECC events) described by a pure-data
  :class:`FaultPlan` and applied to the event-driven simulator's prepared
  inputs, identically in both engines.
* **Host chaos** (:mod:`repro.faults.chaos`) -- worker kills, injected
  errors, and hangs against campaign cells (which the resilient engine
  retries or quarantines, and the lease coordinator survives), plus
  seeded per-frame sabotage (dropped connections, latency spikes,
  partial writes) of the :mod:`repro.dist` coordinator/worker wire,
  which the lease protocol must absorb without ever changing campaign
  output.

Importing this package is free of side effects: with no plan installed
every fault-free code path is byte-identical to a build without the
subsystem (the ``faults`` diag layer enforces this).  The end-to-end
chaos harness is :mod:`repro.dist.harness`.
"""

from repro.faults.chaos import (
    ChaosError,
    ChaosPolicy,
    NetChaosPolicy,
    active_chaos,
    chaos_injection,
    clear_chaos,
    install_chaos,
)
from repro.faults.inject import AppliedFaults, apply_fault_plan
from repro.faults.plan import (
    EPISODE_KINDS,
    FaultEpisode,
    FaultPlan,
    active_fault_plan,
    clear_fault_plan,
    fault_injection,
    install_fault_plan,
    load_plan,
    retry_storm_plan,
)

__all__ = [
    "AppliedFaults",
    "ChaosError",
    "ChaosPolicy",
    "EPISODE_KINDS",
    "FaultEpisode",
    "FaultPlan",
    "NetChaosPolicy",
    "active_chaos",
    "active_fault_plan",
    "apply_fault_plan",
    "chaos_injection",
    "clear_chaos",
    "clear_fault_plan",
    "fault_injection",
    "install_chaos",
    "install_fault_plan",
    "load_plan",
    "retry_storm_plan",
]
