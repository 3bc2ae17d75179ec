"""Content-addressed memoization of pipeline runs.

A run is fully determined by its cell -- (workload spec, platform, target,
pipeline config) -- because every RNG in the pipeline is derived from those
values through stable string keys (:mod:`repro.rng`).  :func:`run_key`
hashes a canonical fingerprint of the cell; :class:`RunCache` maps keys to
:class:`~repro.cpu.pipeline.RunResult` objects in two tiers:

* an **in-memory tier** shared by every campaign and experiment driver in
  the process (this is what lets ``python -m repro figures`` run the
  device campaign once instead of five times), and
* an optional **on-disk tier** under ``cache_dir`` so repeated CLI
  invocations skip finished cells entirely.

On disk an analytic run is written once, as its row in the columnar
store (:mod:`repro.store`), and :meth:`RunCache.append_row` is the one
way a row gets there: it appends an encoded row to the cache's one
:class:`~repro.store.store.StoreWriter`, named by :meth:`RunCache.name_rows`
(the campaign fingerprint and job id where the caller has them, else
:data:`UNNAMED_ROWS`).  :meth:`RunCache.put` keeps the run in memory,
encodes its row (:func:`~repro.store.store.encode_row`) and appends it;
the dist coordinator appends the rows its workers ship, as received,
and never fills the memory tier.  :meth:`RunCache.flush` makes the
appended rows durable -- the engine calls it once per fused chunk or
serial cell, the coordinator once per ``results`` frame, so a kill
costs at most the chunk, cell or frame in flight -- and
:meth:`RunCache.close` merges the flushed parts into the one manifest of
their (fingerprint, job) (the CLI closes in a ``finally``, the
coordinator when its campaign settles, and replacing the shared engine
closes its cache; a cache never closed leaves O(log rows) parts, see
:meth:`~repro.store.store.StoreWriter.flush`).
Event-simulation results keep their self-contained JSON document per
cell (``<cache_dir>/<k[:2]>/<k>.json``, written by
:meth:`RunCache.put_memory`) and reach the store only through
:meth:`RunCache.promote_store`; a JSON document of any other kind (an
analytic document from an older cache) can never load and is a miss.

Reads go memory, then store, then the JSON documents.  Disk entries that
fail to parse -- truncated writes, stale schema versions -- are treated
as misses, never as errors: a corrupt JSON document is *deleted* on
detection rather than left to fail every future load, and temp files
from interrupted atomic writes are cleaned up on the failure path.  A
damaged store row is counted (``RunCache.store_errors``,
``runtime.store_read_errors``) rather than passing for an absent key.

Thread safety: one :class:`RunCache` may be shared by many threads (the
``repro serve`` worker pool runs one :class:`CampaignEngine` per query
against a single cache).  An internal lock guards the memory tier and
the hit/miss statistics, and a second one the store writer; temp-file
names are unique per (process, thread, write) so two threads storing
the same key can never race each other's ``os.replace``.  Disk reads
happen outside the locks, so a warm disk load never serializes
unrelated lookups.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import threading
from dataclasses import is_dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.cpu.pipeline import PipelineConfig, RunResult
from repro.errors import ConfigurationError
from repro.faults.plan import active_fault_plan
from repro.hw.platform import Platform
from repro.obs.metrics import metrics
from repro.hw.target import MemoryTarget
from repro.runtime.serialize import (
    FORMAT_VERSION,
    platform_to_dict,
    run_result_to_dict,
    shallow_dict,
    workload_to_dict,
)
from repro.store import ResultStore
from repro.store.store import encode_row
from repro.workloads.base import WorkloadSpec


def _canonical(payload) -> str:
    """Deterministic JSON text for fingerprinting (sorted keys)."""
    return json.dumps(payload, sort_keys=True, default=repr)


_FINGERPRINT_MEMO: Dict[int, Tuple[object, str]] = {}
_FINGERPRINT_MEMO_CAP = 100_000
_FINGERPRINT_LOCK = threading.Lock()
_BLOB_REFS: Dict[int, Tuple[object, str]] = {}

UNNAMED_ROWS = "runs"
"""Manifest name of the rows a cache appends before (or without) a
:meth:`RunCache.name_rows` call: figure runs, embedders, tests."""

_TMP_SEQ = itertools.count()
"""Process-wide sequence for temp-file names.

The pid alone is not enough: two *threads* of one process writing the
same key would share a temp path, and the loser's ``os.replace`` raises
``FileNotFoundError`` after the winner moves the file away.
"""


def _memoized(obj, build) -> str:
    """Fingerprint ``obj`` once per object identity.

    Campaigns hash the same workload/platform/target objects thousands of
    times; canonicalizing each once makes :func:`run_key` effectively free.
    The memo holds a strong reference to the keyed object, so an id() can
    never be recycled while its entry is alive.
    """
    with _FINGERPRINT_LOCK:
        entry = _FINGERPRINT_MEMO.get(id(obj))
        if entry is not None and entry[0] is obj:
            return entry[1]
    text = _canonical(build(obj))
    with _FINGERPRINT_LOCK:
        if len(_FINGERPRINT_MEMO) >= _FINGERPRINT_MEMO_CAP:
            _FINGERPRINT_MEMO.clear()
        _FINGERPRINT_MEMO[id(obj)] = (obj, text)
    return text


def target_fingerprint(target: MemoryTarget) -> Dict[str, object]:
    """Everything the pipeline observes about a target.

    Targets are identified by behaviour, not by name: two targets with the
    same name but different calibrations (say, a refitted device model)
    hash differently, while re-constructed-but-identical targets collapse
    onto one cache entry.
    """
    return {
        "type": type(target).__name__,
        "name": target.name,
        "capacity_gb": target.capacity_gb,
        "idle_latency_ns": target.idle_latency_ns(),
        "bandwidth": shallow_dict(target.bandwidth_model()),
        "queue": shallow_dict(target.queue_model()),
        "tail": shallow_dict(target.tail_model()),
    }


def run_key(
    workload: WorkloadSpec,
    platform: Platform,
    target: MemoryTarget,
    config: PipelineConfig = PipelineConfig(),
) -> str:
    """Content-addressed key of one cell (sha256 hex digest)."""
    parts = (
        str(FORMAT_VERSION),
        _memoized(workload, workload_to_dict),
        _memoized(platform, platform_to_dict),
        _memoized(target, target_fingerprint),
        _memoized(
            config,
            lambda c: shallow_dict(c) if is_dataclass(c) else repr(c),
        ),
    )
    # An active fault plan changes what a run computes, so it joins the
    # key: faulted results can never poison (or be served from) the
    # fault-free cache.  No plan -- or a disabled, episode-free one --
    # contributes nothing, keeping every historical key stable.
    plan = active_fault_plan()
    if plan is not None and plan.enabled:
        parts = parts + (f"fault-plan:{plan.key()}",)
    return hashlib.sha256("\x1f".join(parts).encode("utf-8")).hexdigest()


def blob_ref(obj, to_dict) -> str:
    """Content ref of one workload/platform blob (memoized per object).

    A store row names its workload and platform by these refs, and the
    manifest embeds each referenced ``to_dict`` document once.
    """
    with _FINGERPRINT_LOCK:
        entry = _BLOB_REFS.get(id(obj))
        if entry is not None and entry[0] is obj:
            return entry[1]
    ref = hashlib.sha256(
        _memoized(obj, to_dict).encode("utf-8")
    ).hexdigest()[:32]
    with _FINGERPRINT_LOCK:
        if len(_BLOB_REFS) >= _FINGERPRINT_MEMO_CAP:
            _BLOB_REFS.clear()
        _BLOB_REFS[id(obj)] = (obj, ref)
    return ref


def run_document(result: RunResult) -> Dict[str, object]:
    """One run's document: its context-free dict plus the content refs
    of its workload and platform.

    ``split_row(run_document(r))`` is the reference split the store's
    :func:`~repro.store.store.encode_row` must reproduce.
    """
    doc = run_result_to_dict(result, embed_context=False)
    doc["workload_ref"] = blob_ref(result.workload, workload_to_dict)
    doc["platform_ref"] = blob_ref(result.platform, platform_to_dict)
    return doc


class RunCache:
    """Two-tier (memory + optional disk) store of finished runs.

    On disk an analytic run is one store row; its workload and platform
    are referenced by content hash and embedded once per manifest, so
    the hundreds of runs of one campaign share a single copy of each
    spec.  Event-simulation results are JSON documents, promoted into
    the store on request (:meth:`promote_store`).
    """

    def __init__(
        self, cache_dir: Optional[str] = None, store_tier: bool = True
    ):
        self._memory: Dict[str, RunResult] = {}
        self.cache_dir = Path(cache_dir) if cache_dir else None
        if self.cache_dir is not None and self.cache_dir.exists() \
                and not self.cache_dir.is_dir():
            raise ConfigurationError(
                f"cache dir {cache_dir!r} exists and is not a directory"
            )
        # The columnar tier (repro.store) holds every analytic run and
        # the promoted event-sim results: warm reads are mmapped
        # segment slices.  ``store_tier=False`` exists for benchmarks
        # that time the event-sim JSON documents in isolation; such a
        # cache keeps analytic runs in memory only.
        self.store: Optional[ResultStore] = (
            ResultStore(self.cache_dir / "store")
            if self.cache_dir is not None and store_tier
            else None
        )
        self._made_shards = set()
        self._lock = threading.RLock()
        # The one writer analytic rows append to (append_row), its
        # (fingerprint, job) name, and the blob documents it embeds,
        # built once per ref; all guarded by _writer_lock.
        self._writer_lock = threading.Lock()
        self._writer = None
        self._rows_name: Tuple[str, str] = (UNNAMED_ROWS, "")
        self._blob_docs: Dict[str, dict] = {}
        self.memory_hits = 0
        self.disk_hits = 0
        self.store_hits = 0
        # Store reads that hit a damaged entry (counted; the JSON
        # documents are tried next).
        self.store_errors = 0
        self.misses = 0
        self.stores = 0
        self.corrupt_dropped = 0
        self.recovered = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    def _disk_path(self, key: str) -> Optional[str]:
        if self.cache_dir is None:
            return None
        return os.path.join(str(self.cache_dir), key[:2], f"{key}.json")

    # -- hygiene helpers -------------------------------------------------

    def _ensure_shard(self, shard: str) -> None:
        """Create a shard directory once (idempotent, lock-protected memo)."""
        with self._lock:
            if shard in self._made_shards:
                return
        os.makedirs(shard, exist_ok=True)
        with self._lock:
            self._made_shards.add(shard)

    def _atomic_write(self, path: str, payload) -> None:
        """Write ``payload`` as JSON via a temp file; clean up on failure.

        The temp name is unique per (process, thread, write), so
        concurrent stores of the same key each replace their *own* temp
        file -- last writer wins, nobody crashes.  If an external cleaner
        unlinks the temp file between the write and the ``os.replace``,
        the write retries once with a fresh temp name rather than failing
        the store.
        """
        for attempt in (1, 2):
            tmp = (f"{path}.tmp.{os.getpid()}."
                   f"{threading.get_ident()}.{next(_TMP_SEQ)}")
            try:
                with open(tmp, "w") as handle:
                    # One C-encoded string: json.dump streams through
                    # the pure-Python encoder, twice as slow per run.
                    handle.write(json.dumps(payload))
                os.replace(tmp, path)
                return
            except FileNotFoundError:
                if attempt == 2:
                    raise
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise

    def _discard(self, path: str) -> bool:
        """Remove one corrupt cache file (best effort) and count it."""
        try:
            os.unlink(path)
        except OSError:
            return False
        with self._lock:
            self.corrupt_dropped += 1
        return True

    def _recover(self, path: str) -> bool:
        """Drop a corrupt entry detected on the *load* path.

        Interrupted or chaos-killed writers can leave truncated documents
        behind; deleting one on load is self-healing, and the
        ``runtime.cache_recovered`` counter makes the recovery visible
        instead of silently eating it.
        """
        if not self._discard(path):
            return False
        with self._lock:
            self.recovered += 1
        metrics().counter("runtime.cache_recovered").inc()
        return True

    # -- run tier --------------------------------------------------------

    def _miss(self) -> None:
        with self._lock:
            self.misses += 1

    def get(self, key: str) -> Optional[RunResult]:
        """Look a run up; promotes disk hits into the memory tier.

        Tier order is memory, then the columnar store, then the
        event-sim JSON documents: warm reads of stored runs are mmap
        slices, and a JSON document is only opened for a key the store
        does not hold.
        """
        with self._lock:
            hit = self._memory.get(key)
            if hit is not None:
                self.memory_hits += 1
                return hit
        if self.store is not None:
            # A single lookup: get_result raises KeyError for a key the
            # store never had.  A damaged entry (truncated segment,
            # garbled manifest row) raises something else; it falls
            # through to the JSON documents too, but visibly.
            try:
                result = self.store.get_result(key)
            except KeyError:
                pass
            except (ValueError, TypeError, OSError):
                with self._lock:
                    self.store_errors += 1
                metrics().counter("runtime.store_read_errors").inc()
            else:
                return self._promote(key, result, tier="store")
        path = self._disk_path(key)
        if path is not None:
            try:
                with open(path, "r") as handle:
                    data = json.load(handle)
            except OSError:
                self._miss()
                return None
            except ValueError:
                # Truncated or garbled document: degrade to a miss, but
                # delete the file so it cannot keep failing forever.
                self._recover(path)
                self._miss()
                return None
            from repro.hw.cxl.eventdevice import EventSimResult

            try:
                if not isinstance(data, dict) \
                        or data.get("kind") != "eventsim":
                    # Not an event-sim document (an analytic document
                    # of an older cache, a stale schema): it can never
                    # load again -- drop it.
                    raise ValueError("not an event-sim document")
                result = EventSimResult.from_dict(data)
            except (ValueError, KeyError, TypeError):
                self._recover(path)
                self._miss()
                return None
            return self._promote(key, result)
        self._miss()
        return None

    def _promote(self, key: str, result, tier: str = "disk"):
        """Install one disk/store hit into the memory tier.

        When another thread promoted (or stored) the same key while this
        one was reading disk, the incumbent wins: both copies are
        bit-identical by construction, and keeping the first means every
        caller shares one object.
        """
        with self._lock:
            incumbent = self._memory.get(key)
            if incumbent is None:
                self._memory[key] = incumbent = result
            if tier == "store":
                self.store_hits += 1
            else:
                self.disk_hits += 1
        return incumbent

    def put(self, key: str, result: RunResult) -> None:
        """Store a run in memory and append its row to the store writer.

        The row is durable after the next :meth:`flush`; a cache without
        a store keeps the run in memory only.
        """
        with self._lock:
            self._memory[key] = result
            self.stores += 1
        if self.store is None:
            return
        plan = active_fault_plan()
        self.append_row(
            key, encode_row(result), result.workload, result.platform,
            plan.key() if plan is not None and plan.enabled else "",
        )

    def append_row(
        self,
        key: str,
        encoded: Tuple[Dict[str, str], str, object, object],
        workload: WorkloadSpec,
        platform: Platform,
        fault_plan: str,
    ) -> None:
        """Append one encoded analytic row to the store writer, and
        nothing to the memory tier.

        ``encoded`` is the ``(row, skeleton ref, skeleton, vector)``
        :func:`~repro.store.store.encode_row` returns -- or the same
        four a dist worker shipped; ``workload``/``platform`` are the
        objects the row's blob refs name, embedded once per manifest.
        This is the one way an analytic row reaches the store.
        """
        row, ref, skeleton, vector = encoded
        with self._writer_lock:
            docs = self._blob_docs
            for field_name, obj, to_dict in (
                ("workload_ref", workload, workload_to_dict),
                ("platform_ref", platform, platform_to_dict),
            ):
                if row[field_name] not in docs:
                    docs[row[field_name]] = to_dict(obj)
            if self._writer is None:
                self._writer = self.store.writer(*self._rows_name)
            self._writer.add_row(
                key, ref, skeleton, vector, row,
                workload_doc=docs[row["workload_ref"]],
                platform_doc=docs[row["platform_ref"]],
                fault_plan=fault_plan,
            )

    def name_rows(self, fingerprint: str, job_id: str = "") -> None:
        """Append the analytic rows from now on under
        ``(fingerprint, job_id)``; rows appended under another name are
        merged first (:meth:`close`)."""
        with self._writer_lock:
            if (fingerprint, job_id) == self._rows_name:
                return
            writer, self._writer = self._writer, None
            self._rows_name = (fingerprint, job_id)
        if writer is not None:
            writer.commit()

    def flush(self) -> None:
        """Make every appended row durable (one part manifest; see
        :meth:`~repro.store.store.StoreWriter.flush`)."""
        with self._writer_lock:
            if self._writer is not None:
                self._writer.flush()

    def close(self) -> None:
        """Merge this cache's rows, flushed or not, into the one
        manifest of their (fingerprint, job).  The cache stays usable;
        a later append opens a fresh writer."""
        with self._writer_lock:
            writer, self._writer = self._writer, None
        if writer is not None:
            writer.commit()

    def put_memory(self, key: str, result) -> None:
        """Store a non-pipeline result (event-sim cells) in both tiers.

        Event-simulation cells return :class:`EventSimResult` objects;
        they always memoize in the process, and when the result knows how
        to serialize itself (``to_dict``) and a disk tier is configured,
        it persists as a self-contained document so warm ``--cache-dir``
        invocations skip sim cells exactly like analytic ones.
        """
        with self._lock:
            self._memory[key] = result
            self.stores += 1
        path = self._disk_path(key)
        to_dict = getattr(result, "to_dict", None)
        if path is None or to_dict is None:
            return
        self._ensure_shard(os.path.dirname(path))
        self._atomic_write(path, to_dict())

    def promote_store(
        self, fingerprint: str, job_id: str = "", keys=None
    ) -> int:
        """Promote finished event-sim results from the memory tier into
        the columnar store under campaign ``fingerprint``.

        ``keys`` restricts promotion to one campaign's cells (the usual
        call, at campaign end); ``None`` promotes everything in memory.
        Keys already present in the store are skipped, so repeated
        promotions accrete without duplicating segments.  The documents
        written are byte-for-byte the JSON tier's ``to_dict`` documents,
        which is what makes the two tiers interchangeable on read.
        Analytic runs are never promoted: :meth:`put` already appended
        them.  Returns how many results were promoted.
        """
        if self.store is None:
            return 0
        with self._lock:
            if keys is None:
                snapshot = dict(self._memory)
            else:
                snapshot = {
                    key: self._memory[key]
                    for key in keys
                    if key in self._memory
                }
        pending = {
            key: result
            for key, result in snapshot.items()
            if key not in self.store
            and getattr(result, "to_dict", None) is not None
        }
        if not pending:
            return 0
        writer = self.store.writer(fingerprint, job_id)
        for key, result in pending.items():
            writer.add(key, result.to_dict())
        writer.commit()
        metrics().counter("runtime.store_promoted").inc(len(pending))
        return len(pending)

    def clear_memory(self) -> None:
        """Drop the in-memory tier (the disk tier survives)."""
        with self._lock:
            self._memory.clear()
