"""repro.dist: the fault-tolerant multi-host campaign fabric.

One coordinator (:mod:`repro.dist.coordinator`) owns one campaign,
split into cell-granular work units and handed to any number of workers
(:mod:`repro.dist.worker`) over a length-prefixed frame protocol --
JSON headers, results as store rows with a binary vector tail
(:mod:`repro.dist.frames`) -- under **time-bounded leases**
(:mod:`repro.dist.lease`).  The design center is a hostile fleet:

* workers may die, hang, disconnect, or reconnect at any point -- lease
  expiry and connection-loss release recover every unit, bounded
  retries with seeded backoff reassign it, and a unit that fails its
  whole budget quarantines into the same ``FailedCell`` records the
  solo engine writes (graceful degradation, never a wedged campaign);
* the network may drop connections, delay frames, or truncate them
  mid-write -- the seeded chaos transport (:mod:`repro.dist.chaos`)
  injects all of it, and digest-checked at-most-once commit makes every
  schedule converge to the same campaign output (within one connection
  TCP delivers frames whole, once and in order, so frames carry no
  sequence numbers);
* the proof obligation is **bit-identity**: a campaign run through the
  coordinator under any chaos schedule produces exports byte-identical
  to a solo run (the ``dist`` diag layer re-proves this on every
  ``repro validate``).

Nothing here leaves the standard library and numpy: sockets, threads,
JSON, and the store codec's float64 vectors.
"""

from repro.dist.chaos import ChaosTransport
from repro.dist.coordinator import (
    Coordinator,
    DistSummary,
    PROTOCOL_VERSION,
    campaign_units,
    row_digest,
    unit_cells,
)
from repro.dist.frames import (
    FrameError,
    FrameTransport,
    decode_payload,
    encode_frame,
    encode_payload,
)
from repro.dist.lease import Lease, LeaseTable, WorkUnit
from repro.dist.spec import CampaignSpec, resolve_target
from repro.dist.worker import Worker

__all__ = [
    "CampaignSpec",
    "ChaosTransport",
    "Coordinator",
    "DistSummary",
    "FrameError",
    "FrameTransport",
    "Lease",
    "LeaseTable",
    "PROTOCOL_VERSION",
    "WorkUnit",
    "Worker",
    "campaign_units",
    "decode_payload",
    "encode_frame",
    "encode_payload",
    "resolve_target",
    "row_digest",
    "unit_cells",
]
