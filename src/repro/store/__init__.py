"""repro.store: the append-only columnar result tier.

One JSON document per cell, parsed in full on every warm read, is fine at
hundreds of cells and hopeless at a million -- re-parsing a million
documents to answer "all p99.9s for CXL-B" is the hot path this package
removes.  It is the run cache's on-disk tier (:mod:`repro.runtime.cache`):
every analytic run is written once, as its row here, and event-sim
results are promoted into it from their JSON documents.

* **segments** (:mod:`repro.store.segments`) -- append-only packed
  ``float64`` files holding every numeric payload (event-sim latency
  arrays, analytic counter vectors), read back as zero-copy ``mmap``
  views;
* **manifests** (:mod:`repro.store.manifest`) -- one compact columnar
  JSON document per (campaign fingerprint, job id) mapping cell keys to
  segment spans plus the queryable columns (device, operating point,
  fault-plan key, workload, target), and the *parts* writers flush
  before merging them into it;
* the **codec** (:mod:`repro.store.codec`) -- a lossless split of any
  result document into (structural skeleton, number vector), so the
  store round-trips :class:`~repro.hw.cxl.eventdevice.EventSimResult`
  and analytic run documents bit-exactly while keeping every float in
  binary;
* :class:`~repro.store.store.ResultStore` -- the read/scan facade:
  O(1) keyed reads through mmapped segments and vectorized predicate
  scans over the manifest columns; :func:`~repro.store.store.encode_row`
  encodes a run as its analytic row, and
  :class:`~repro.store.store.StoreWriter` appends, flushes and merges.

Bit-identity is the contract: a result read back from the store is
indistinguishable from the run in memory, and from an event-sim
result's JSON document (the ``store`` diag layer and
``benchmarks/test_perf_store.py`` both enforce this before any speed
number counts).
"""

from repro.store.codec import (
    canonical_document,
    skeleton_ref,
    split_document,
)
from repro.store.manifest import Manifest, ManifestEntry
from repro.store.segments import SegmentWriter, open_segment
from repro.store.store import ResultStore, StoreWriter

__all__ = [
    "Manifest",
    "ManifestEntry",
    "ResultStore",
    "SegmentWriter",
    "StoreWriter",
    "canonical_document",
    "open_segment",
    "skeleton_ref",
    "split_document",
]
