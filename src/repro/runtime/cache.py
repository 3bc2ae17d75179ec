"""Content-addressed memoization of pipeline runs.

A run is fully determined by its cell -- (workload spec, platform, target,
pipeline config) -- because every RNG in the pipeline is derived from those
values through stable string keys (:mod:`repro.rng`).  :func:`run_key`
hashes a canonical fingerprint of the cell; :class:`RunCache` maps keys to
:class:`~repro.cpu.pipeline.RunResult` objects in two tiers:

* an **in-memory tier** shared by every campaign and experiment driver in
  the process (this is what lets ``python -m repro figures`` run the
  device campaign once instead of five times), and
* an optional **on-disk tier** (one JSON document per run, sharded by key
  prefix) so repeated CLI invocations skip finished cells entirely.

Disk entries that fail to parse -- truncated writes, stale schema versions
-- are treated as misses, never as errors.  Hygiene: a corrupt run document
(or a run document whose referenced blob is corrupt) is *deleted* on
detection rather than left to fail every future load, and temp files from
interrupted atomic writes are cleaned up on the failure path.  A damaged
row of the columnar store tier falls through to the JSON documents, and
is counted (``RunCache.store_errors``, ``runtime.store_read_errors``)
rather than passing for an absent key.

Thread safety: one :class:`RunCache` may be shared by many threads (the
``repro serve`` worker pool runs one :class:`CampaignEngine` per query
against a single cache).  An internal lock guards the memory tier, the
blob memo, and the hit/miss statistics; temp-file names are unique per
(process, thread, write) so two threads storing the same key can never
race each other's ``os.replace``.  Disk I/O happens outside the lock, so
a warm disk load never serializes unrelated lookups.
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
    platform_from_dict,
    platform_to_dict,
    run_result_from_dict,
    run_result_to_dict,
    shallow_dict,
    workload_from_dict,
    workload_to_dict,
)
from repro.store import ResultStore
from repro.workloads.base import WorkloadSpec


def _canonical(payload) -> str:
    """Deterministic JSON text for fingerprinting (sorted keys)."""
    return json.dumps(payload, sort_keys=True, default=repr)


_FINGERPRINT_MEMO: Dict[int, Tuple[object, str]] = {}
_FINGERPRINT_MEMO_CAP = 100_000
_FINGERPRINT_LOCK = threading.Lock()

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


class RunCache:
    """Two-tier (memory + optional disk) store of finished runs.

    On disk a run document stores its workload and platform by *reference*
    -- a content hash pointing into ``blobs/`` -- so the hundreds of runs
    of one campaign share a single copy of each spec.  Blob loads are
    memoized per cache instance, which makes warm campaign loads cheap:
    each workload/platform is parsed and validated once per process, not
    once per cell.
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
        # The columnar tier (repro.store) sits between memory and the
        # per-cell JSON documents: warm reads of promoted campaigns come
        # from mmapped segments instead of re-parsing JSON.
        # ``store_tier=False`` exists for benchmarks that need to time
        # the JSON tier in isolation.
        self.store: Optional[ResultStore] = (
            ResultStore(self.cache_dir / "store")
            if self.cache_dir is not None and store_tier
            else None
        )
        self._made_shards = set()
        self._blobs: Dict[str, object] = {}
        self._blobs_written = set()
        self._lock = threading.RLock()
        self.memory_hits = 0
        self.disk_hits = 0
        self.store_hits = 0
        # Store reads that hit a damaged entry (the JSON tier answered).
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

    def _blob_path(self, ref: str) -> str:
        return os.path.join(str(self.cache_dir), "blobs", f"{ref}.json")

    # -- blob tier -------------------------------------------------------

    @staticmethod
    def _blob_ref(obj, to_dict) -> str:
        """Content ref of one workload/platform blob.

        Shared by the JSON tier's blob writes and the columnar tier's
        promotion path, so a promoted run document carries exactly the
        refs its JSON twin does.
        """
        return hashlib.sha256(
            _memoized(obj, to_dict).encode("utf-8")
        ).hexdigest()[:32]

    def _write_blob(self, obj, to_dict) -> str:
        """Store one workload/platform blob; returns its content ref."""
        ref = self._blob_ref(obj, to_dict)
        with self._lock:
            self._blobs[ref] = obj
            if ref in self._blobs_written:
                return ref
        path = self._blob_path(ref)
        self._ensure_shard(os.path.dirname(path))
        if not os.path.exists(path):
            self._atomic_write(path, to_dict(obj))
        with self._lock:
            self._blobs_written.add(ref)
        return ref

    def _load_blob(self, ref: str, from_dict):
        """Recall a blob (memoized); raises ``KeyError`` when absent.

        A blob file that exists but fails to parse or reconstruct is deleted
        on detection: it can never satisfy a future load, and dropping it
        lets the next :meth:`put` of the same content rewrite it cleanly.
        """
        with self._lock:
            obj = self._blobs.get(ref)
        if obj is None:
            path = self._blob_path(ref)
            try:
                with open(path, "r") as handle:
                    obj = from_dict(json.load(handle))
            except OSError as exc:
                raise KeyError(f"missing blob {ref}") from exc
            except (ValueError, TypeError, KeyError) as exc:
                self._recover(path)
                raise KeyError(f"corrupt blob {ref}") from exc
            with self._lock:
                self._blobs[ref] = obj
        return obj

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

        Tier order is memory, then the columnar store, then the JSON
        documents: a promoted campaign's warm reads are mmap slices,
        and the JSON tier only pays its parse cost for cells nobody
        promoted yet.
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
            # through to the JSON tier too, but visibly.
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
            if isinstance(data, dict) and data.get("kind") == "eventsim":
                # Event-simulation documents carry their payload inline
                # (no workload/platform blobs to resolve).
                from repro.hw.cxl.eventdevice import EventSimResult

                try:
                    result = EventSimResult.from_dict(data)
                except (ValueError, KeyError, TypeError):
                    self._recover(path)
                    self._miss()
                    return None
                return self._promote(key, result)
            try:
                result = run_result_from_dict(
                    data,
                    workload=self._load_blob(
                        data["workload_ref"], workload_from_dict
                    ),
                    platform=self._load_blob(
                        data["platform_ref"], platform_from_dict
                    ),
                )
            except (ValueError, KeyError, TypeError):
                # Stale schema or unusable blob reference: the document can
                # never load again -- drop it (corrupt blobs were already
                # dropped by ``_load_blob``).
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
        """Store a run in both tiers (atomic writes, blobs first)."""
        with self._lock:
            self._memory[key] = result
            self.stores += 1
        path = self._disk_path(key)
        if path is None:
            return
        data = run_result_to_dict(result, embed_context=False)
        data["workload_ref"] = self._write_blob(
            result.workload, workload_to_dict
        )
        data["platform_ref"] = self._write_blob(
            result.platform, platform_to_dict
        )
        self._ensure_shard(os.path.dirname(path))
        self._atomic_write(path, data)

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
        """Promote finished runs from the memory tier into the columnar
        store under campaign ``fingerprint``.

        ``keys`` restricts promotion to one campaign's cells (the usual
        call, at campaign end); ``None`` promotes everything in memory.
        Keys already present in the store are skipped, so repeated
        promotions accrete without duplicating segments.  The documents
        written are byte-for-byte the JSON tier's documents -- event-sim
        ``to_dict`` output and analytic run documents with the same
        content-addressed blob refs -- which is what makes the two
        tiers interchangeable on read.  Returns how many runs were
        promoted.
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
        }
        if not pending:
            return 0
        plan = active_fault_plan()
        plan_key = plan.key() if plan is not None and plan.enabled else ""
        writer = self.store.writer(fingerprint, job_id)
        promoted = 0
        for key, result in pending.items():
            to_dict = getattr(result, "to_dict", None)
            if to_dict is not None:
                writer.add(key, to_dict())
                promoted += 1
                continue
            if not isinstance(result, RunResult):
                continue  # unserializable ad-hoc result: memory-only
            doc = run_result_to_dict(result, embed_context=False)
            doc["workload_ref"] = self._blob_ref(
                result.workload, workload_to_dict
            )
            doc["platform_ref"] = self._blob_ref(
                result.platform, platform_to_dict
            )
            writer.add(
                key,
                doc,
                workload_doc=workload_to_dict(result.workload),
                platform_doc=platform_to_dict(result.platform),
                fault_plan=plan_key,
            )
            promoted += 1
        writer.commit()
        metrics().counter("runtime.store_promoted").inc(promoted)
        return promoted

    def clear_memory(self) -> None:
        """Drop the in-memory tier (the disk tier survives)."""
        with self._lock:
            self._memory.clear()
