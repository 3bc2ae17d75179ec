"""ResultStore: read/scan facade over segments and manifests.

Layout, under ``<cache_dir>/store/``::

    manifests/<fingerprint>.json            one campaign's manifest
    manifests/<fingerprint>.<job_id>.json   one job's slice of it
    manifests/<stem>@<token>.json           one flush not merged yet
    manifests/merge.lock                    serializes manifest merges
    segments/<writer_id>-<seq>.f64          packed float64 payloads

Reads are O(1): key -> (manifest row) -> ``np.memmap`` slice -> the
skeleton's :func:`~repro.store.codec.compile_skeleton` join, plus (for
an analytic row, through :func:`join_row`) the :data:`ROW_FIELDS` the
row holds instead of its skeleton.  Scans are vectorized
over the manifest columns and never touch segments except for the
latency arrays a query actually asks percentiles of.  Manifests of several jobs
may claim one cell key; the first claim wins and scans skip the
shadowed rows, so a cell is never reported twice.
"""

from __future__ import annotations

import fcntl
import math
import os
import threading
from dataclasses import dataclass, fields
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.store.codec import (
    array_span,
    compile_skeleton,
    skeleton_ref,
    split_document,
)
from repro.store.manifest import (
    KIND_ANALYTIC,
    KIND_EVENTSIM,
    PART_MARK,
    Manifest,
    ManifestEntry,
)
from repro.store.segments import SegmentWriter, open_segment

MANIFEST_DIR = "manifests"
SEGMENT_DIR = "segments"
MERGE_LOCK = "merge.lock"
"""Lock file (under ``manifests/``) serializing every manifest merge of
one store, across threads and processes."""
PART_FAN_IN = 16
"""How many parts of one level a writer folds into one part of the next
level (see :meth:`StoreWriter.flush`)."""

ROW_FIELDS = {
    "target_name": "target",
    "workload_ref": "workload_ref",
    "platform_ref": "platform_ref",
}
"""Top-level fields of an analytic run document that its manifest row
records, mapped to the column holding each.  A non-empty string value
lives only in the row, so the skeleton stays shared across cells."""


def _in_row(field: str, value: Any) -> bool:
    """Whether ``field``'s ``value`` is kept by the row, not the skeleton."""
    return field in ROW_FIELDS and isinstance(value, str) and value != ""


def split_row(
    doc: Dict[str, Any]
) -> Tuple[Dict[str, Any], Any, np.ndarray]:
    """Split an analytic run document as the store keeps it.

    Returns ``(row, skeleton, vector)``: ``row`` maps each
    :data:`ROW_FIELDS` document field to its value (``""`` when absent),
    and the skeleton leaves out the fields the row holds.  A dist
    worker ships exactly this split, so the coordinator appends the row
    it received without splitting again.
    """
    row = {field: doc.get(field, "") for field in ROW_FIELDS}
    body = {
        field: value for field, value in doc.items()
        if not _in_row(field, value)
    }
    skeleton, vector = split_document(body)
    return row, skeleton, vector


def join_row(
    join: Callable[[np.ndarray], Dict[str, Any]],
    vector: np.ndarray,
    row: Dict[str, Any],
) -> Dict[str, Any]:
    """The analytic run document of one row: the inverse of
    :func:`split_row`.

    ``join`` is the row's compiled skeleton
    (:func:`~repro.store.codec.compile_skeleton`) and ``row`` maps each
    :data:`ROW_FIELDS` document field to the row's value; the fields
    the row holds are written back after the join.  A skeleton written
    before rows held them still carries these fields, with exactly the
    values its row recorded.  Store reads and the dist coordinator's
    row check both decode with this.
    """
    doc = join(vector)
    for field in ROW_FIELDS:
        value = row[field]
        if _in_row(field, value):
            doc[field] = value
    return doc


_EXACT_INT = 2 ** 53
_GETTERS: Dict[type, Any] = {}
_LEAF_PLANS: Dict[tuple, Tuple[Tuple[int, ...], Tuple[int, ...], Any]] = {}
_SHAPES: Dict[tuple, Tuple[str, Any]] = {}
_MEMO_CAP = 4096


def _sorted_fields(obj) -> tuple:
    """``obj``'s dataclass field values in sorted field-name order:
    the order :func:`split_document` walks the ``shallow_dict``."""
    cls = type(obj)
    getter = _GETTERS.get(cls)
    if getter is None:
        names = sorted(f.name for f in fields(cls))
        getter = attrgetter(*names) if len(names) > 1 \
            else (lambda o, n=names[0]: (getattr(o, n),))
        _GETTERS[cls] = getter
    return getter(obj)


_RUNTIME: Optional[tuple] = None


def _runtime() -> tuple:
    """``(blob_ref, workload_to_dict, platform_to_dict, FORMAT_VERSION)``,
    imported on first use (:mod:`repro.runtime` imports this module)."""
    global _RUNTIME
    if _RUNTIME is None:
        from repro.runtime.cache import blob_ref
        from repro.runtime.serialize import (
            FORMAT_VERSION,
            platform_to_dict,
            workload_to_dict,
        )

        _RUNTIME = (blob_ref, workload_to_dict, platform_to_dict,
                    FORMAT_VERSION)
    return _RUNTIME


def _run_leaves(result, version: int) -> Tuple[list, tuple]:
    """Every leaf of ``result``'s run document in skeleton order, plus
    the structure the leaf types do not show (phase multiplier keys).

    Mirrors :func:`~repro.runtime.serialize.run_result_to_dict` with
    ``embed_context=False`` minus the row fields: ``components``,
    ``counters``, ``cycles``, ``instructions``, ``phases`` (each
    ``components``, ``counters``, ``instructions``, ``operating_point``
    with ``prefetch`` nested in place, ``phase``), ``version``.
    """
    leaves = [
        *_sorted_fields(result.components),
        *_sorted_fields(result.counters),
        result.cycles,
        result.instructions,
    ]
    structure = []
    for phase in result.phases:
        leaves += _sorted_fields(phase.components)
        leaves += _sorted_fields(phase.counters)
        leaves.append(phase.instructions)
        for value in _sorted_fields(phase.operating_point):
            if hasattr(value, "__dataclass_fields__"):
                leaves += _sorted_fields(value)
            else:
                leaves.append(value)
        spec = phase.phase
        multipliers = spec.multipliers
        names = tuple(sorted(multipliers))
        structure.append(names)
        leaves.append(spec.label)
        leaves += [multipliers[name] for name in names]
        leaves.append(spec.weight)
    leaves.append(version)
    return leaves, tuple(structure)


def _leaf_plan(kinds: tuple):
    """(literal positions, int positions, number gatherer) of one leaf
    type signature; ``None`` when a leaf is not a plain scalar."""
    plan = _LEAF_PLANS.get(kinds)
    if plan is None:
        if not set(kinds) <= {float, int, bool, str, type(None)}:
            return None
        literals = tuple(
            i for i, kind in enumerate(kinds) if kind not in (float, int)
        )
        ints = tuple(i for i, kind in enumerate(kinds) if kind is int)
        numbers = [i for i, kind in enumerate(kinds) if kind in (float, int)]
        plan = (literals, ints, itemgetter(*numbers) if len(numbers) > 1
                else (lambda leaves, i=numbers[0]: (leaves[i],)))
        if len(_LEAF_PLANS) >= _MEMO_CAP:
            _LEAF_PLANS.clear()
        _LEAF_PLANS[kinds] = plan
    return plan


def encode_row(
    result
) -> Tuple[Dict[str, str], str, Any, np.ndarray]:
    """One :class:`~repro.cpu.pipeline.RunResult` as its analytic store
    row: ``(row, skeleton ref, skeleton, vector)``.

    Equal to ``split_row(run_document(result))`` (the oracle) with the
    skeleton's ref, but built straight from the result's dataclasses:
    the leaves are gathered in skeleton order, the skeleton and its ref
    are memoized per shape (leaf types, literal values, phase
    structure), and the vector is the numeric leaves as ``float64``.  A
    result the fast path cannot vouch for -- a row field that is not a
    non-empty string, an int beyond 2**53, a leaf of an unexpected type
    -- goes through the oracle instead.  The engine's store append
    (:meth:`~repro.runtime.cache.RunCache.put`) and the dist worker both
    encode with this.
    """
    blob_ref, workload_to_dict, platform_to_dict, version = _runtime()
    row = {
        "target_name": result.target_name,
        "workload_ref": blob_ref(result.workload, workload_to_dict),
        "platform_ref": blob_ref(result.platform, platform_to_dict),
    }
    leaves, structure = _run_leaves(result, version)
    kinds = tuple(map(type, leaves))
    plan = _leaf_plan(kinds)
    if plan is not None and type(row["target_name"]) is str \
            and row["target_name"]:
        literals, ints, numbers = plan
        if all(-_EXACT_INT <= leaves[i] <= _EXACT_INT for i in ints):
            shape = (kinds, structure, tuple(leaves[i] for i in literals))
            known = _SHAPES.get(shape)
            if known is None:
                _, skeleton, _ = _oracle_row(result)
                known = (skeleton_ref(skeleton), skeleton)
                if len(_SHAPES) >= _MEMO_CAP:
                    _SHAPES.clear()
                _SHAPES[shape] = known
            vector = np.array(numbers(leaves), dtype=np.float64)
            return row, known[0], known[1], vector
    row, skeleton, vector = _oracle_row(result)
    return row, skeleton_ref(skeleton), skeleton, vector


def _oracle_row(result):
    """``split_row(run_document(result))``: the generic reference split."""
    from repro.runtime.cache import run_document

    return split_row(run_document(result))


@dataclass(frozen=True)
class ScanHit:
    """One row matched by :meth:`ResultStore.scan`.

    Carries the columnar fields directly; the latency payload stays on
    disk until :meth:`latencies`/:meth:`percentile` asks for it.
    """

    store: "ResultStore"
    manifest: Manifest
    row: int
    entry: ManifestEntry

    @property
    def key(self) -> str:
        """Cell key of the matched row."""
        return self.entry.key

    def latencies(self) -> np.ndarray:
        """The row's packed latency array (zero-copy segment view)."""
        return self.store._latencies(self.manifest, self.entry)

    def percentile(self, p: float) -> float:
        """Latency percentile straight off the segment span."""
        return float(np.percentile(self.latencies(), p))

    def document(self) -> Any:
        """The full reassembled result document."""
        return self.store._document(self.manifest, self.entry)


class StoreWriter:
    """Appends results of one (fingerprint, job) into the store.

    Rows accumulate in memory (``manifest``) and their vectors in this
    writer's own segment files.  :meth:`flush` makes the rows added
    since the last flush durable as one immutable *part* manifest --
    segment bytes first, then the part's atomic ``os.replace`` -- at a
    cost of O(rows flushed), whatever the manifest's size.
    Once :data:`PART_FAN_IN` parts of one level pile up, the flush
    folds them into one part of the next level, so a writer that is
    never committed leaves O(log rows) part files and writes each row
    O(log rows) times.
    :meth:`commit` merges: under the store's merge lock it folds this
    writer's rows, the manifest as it is on disk at that moment, and
    every other part of the stem the store has loaded (one a killed
    writer left, say) into the one manifest, replaces it, then deletes
    the parts it folded.  Writers whose lifetimes overlap therefore
    never drop each other's rows, and a kill at any point leaves every
    flushed row readable (from a part, the manifest, or both).  A
    manifest that cannot be loaded is replaced by the merge.  Writers
    of distinct (fingerprint, job) pairs never share a segment file,
    which is what lets concurrent jobs write safely.
    """

    def __init__(
        self, store: "ResultStore", fingerprint: str, job_id: str = ""
    ) -> None:
        self.store = store
        self.manifest = Manifest(fingerprint, job_id)
        self._flushed = 0  # rows of ``manifest`` already in a part
        # (file name, first row, level) of each part this writer wrote
        # and has not merged; the parts cover ``manifest[:_flushed]``
        # in order, and their levels never rise along the list.
        self._parts: List[Tuple[str, int, int]] = []
        writer_id = fingerprint[:12] + (f".{job_id}" if job_id else "")
        self._segments = SegmentWriter(store.segment_dir, writer_id)

    def __len__(self) -> int:
        """Rows this writer added."""
        return len(self.manifest)

    def add(
        self,
        key: str,
        doc: Dict[str, Any],
        workload_doc: Optional[Dict[str, Any]] = None,
        platform_doc: Optional[Dict[str, Any]] = None,
        fault_plan: str = "",
    ) -> ManifestEntry:
        """Store one result document under ``key``.

        ``doc`` is the exact JSON-tier document (event-sim ``to_dict``
        output, or an analytic run document including its blob refs);
        it reassembles bit-identically.  An analytic document is split
        by :func:`split_row` and stored through :meth:`add_row`; every
        event-sim field stays in the skeleton.
        """
        if doc.get("kind") != KIND_EVENTSIM:
            row, skeleton, vector = split_row(doc)
            return self.add_row(
                key, skeleton_ref(skeleton), skeleton, vector, row,
                workload_doc=workload_doc, platform_doc=platform_doc,
                fault_plan=fault_plan,
            )
        skeleton, vector = split_document(doc)
        ref = skeleton_ref(skeleton)
        self.manifest.skeletons.setdefault(ref, skeleton)
        segment, offset, length = self._segments.append(vector)
        entry = ManifestEntry(
            key=key,
            kind=KIND_EVENTSIM,
            device=doc["device"],
            workload="",
            target=doc["device"],
            fault_plan=doc.get("fault_plan") or "",
            offered_gbps=float(doc["offered_gbps"]),
            read_fraction=float(doc["read_fraction"]),
            skeleton=ref,
            segment=segment,
            offset=offset,
            length=length,
            n=len(doc["latencies_ns"]),
        )
        self.manifest.add(entry)
        return entry

    def add_row(
        self,
        key: str,
        ref: str,
        skeleton: Any,
        vector: np.ndarray,
        row: Dict[str, Any],
        workload_doc: Optional[Dict[str, Any]] = None,
        platform_doc: Optional[Dict[str, Any]] = None,
        fault_plan: str = "",
    ) -> ManifestEntry:
        """Store one analytic row already split by :func:`split_row`.

        ``ref`` must be ``skeleton_ref(skeleton)``.  The row's
        :data:`ROW_FIELDS` values land in their columns, so every cell
        of one document shape shares one skeleton whatever its target
        and blob refs; ``workload_doc``/``platform_doc`` are embedded
        under the row's blob refs the first time the manifest sees them.
        """
        self.manifest.skeletons.setdefault(ref, skeleton)
        segment, offset, length = self._segments.append(vector)
        columns = {
            column: row[field] for field, column in ROW_FIELDS.items()
        }
        workload_ref = columns["workload_ref"]
        platform_ref = columns["platform_ref"]
        if workload_doc is not None and workload_ref:
            self.manifest.blobs.setdefault(workload_ref, workload_doc)
        if platform_doc is not None and platform_ref:
            self.manifest.blobs.setdefault(platform_ref, platform_doc)
        entry = ManifestEntry(
            key=key,
            kind=KIND_ANALYTIC,
            device=columns["target"],
            workload=workload_doc.get("name", "") if workload_doc else "",
            fault_plan=fault_plan,
            offered_gbps=math.nan,
            read_fraction=math.nan,
            skeleton=ref,
            segment=segment,
            offset=offset,
            length=length,
            n=0,
            **columns,
        )
        self.manifest.add(entry)
        return entry

    def flush(self) -> Optional[Path]:
        """Make the rows added since the last flush durable: flush their
        segment bytes, then write them as one part manifest.  Returns
        the newest part's path (``None`` when there was nothing to
        flush)."""
        if self._flushed == len(self.manifest):
            return None
        self._segments.flush()
        path = self._write_part(self._flushed, 0)
        self._flushed = len(self.manifest)
        while len(self._parts) >= PART_FAN_IN and len(
            {level for _, _, level in self._parts[-PART_FAN_IN:]}
        ) == 1:
            folded = self._parts[-PART_FAN_IN:]
            del self._parts[-PART_FAN_IN:]
            _, start, level = folded[0]
            path = self._write_part(
                start, level + 1, replaces=[name for name, _, _ in folded]
            )
        return path

    def _write_part(
        self, start: int, level: int, replaces: Sequence[str] = ()
    ) -> Path:
        """Write ``manifest[start:_flushed]``'s rows as one part that
        takes over from the parts ``replaces`` (then deleted)."""
        part = Manifest(self.manifest.fingerprint, self.manifest.job_id)
        part.absorb(self.manifest, start)
        name = part.part_filename(os.urandom(8).hex())
        path = part.write(self.store.manifest_dir, name)
        self._parts.append((name, start, level))
        self.store._install(name, part, replaces=replaces)
        for old in replaces:
            try:
                os.unlink(self.store.manifest_dir / old)
            except FileNotFoundError:
                pass  # a concurrent merge folded it already
        return path

    def commit(self) -> Path:
        """Merge this writer's rows, the on-disk manifest and the parts
        of this (fingerprint, job) the store has seen into the one
        manifest (see the class docstring); refreshes the live index.
        """
        self._segments.flush()
        self._segments.close()
        directory = self.store.manifest_dir
        directory.mkdir(parents=True, exist_ok=True)
        with open(directory / MERGE_LOCK, "a") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            merged, folded = self._merge(directory)
            path = merged.write(directory)
            for name in folded:
                try:
                    os.unlink(directory / name)
                except OSError:
                    pass
        self._flushed = len(self.manifest)
        self._parts = []
        self.store._install(path.name, merged, replaces=folded)
        return path

    def _merge(self, directory: Path):
        """(merged manifest, part names folded into it), lock held.

        Folds the manifest as it is on disk now and, besides this
        writer's own parts, every part of the stem the store loaded (a
        killed writer's, say) -- no directory scan.  This writer's rows
        come first, so a row it rewrote (a damaged claim read as a
        miss, then recomputed) takes over the key.
        """
        mine = [name for name, _, _ in self._parts]
        loaded = [
            (name, manifest)
            for name, manifest in self.store._parts_of(self.manifest.stem())
            if name not in mine
        ]
        others = [manifest for _, manifest in loaded]
        folded = mine + [name for name, _ in loaded]
        try:
            others.insert(0, Manifest.load(
                directory / self.manifest.filename()
            ))
        except (OSError, ValueError, KeyError, TypeError):
            # Absent, or unreadable as in ``ResultStore._load``: the
            # merge replaces it.
            pass
        if not others:
            return self.manifest, folded
        merged = Manifest(self.manifest.fingerprint, self.manifest.job_id)
        for manifest in (self.manifest, *others):
            merged.absorb(manifest)
        return merged, folded


class ResultStore:
    """Union view of every manifest under one store root.

    Thread-safe: one store may serve concurrent ``repro serve`` query
    jobs.  Loading is lazy (first access scans ``manifests/``) and
    incremental installs from in-process writers keep the index fresh
    without re-reading anything.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self._lock = threading.RLock()
        self._loaded = False
        self._manifests: Dict[str, Manifest] = {}
        # key -> (manifest, row); first manifest to claim a key wins
        # (claims are bit-identical by construction: a key is a content
        # hash of deterministic work, so the index just picks one).
        self._index: Dict[str, Tuple[Manifest, int]] = {}
        self._blob_objects: Dict[str, Any] = {}
        self._spans: Dict[Tuple[str, str], Optional[Tuple[int, int]]] = {}
        # Warm-read caches.  Compiled joins are keyed by skeleton ref
        # (content-addressed, so safe across manifests); segment views
        # by segment name, re-opened through the size-aware
        # ``open_segment`` memo whenever a span reaches past the cached
        # mapping (a concurrent writer grew the file).  Both are plain
        # dicts touched without the lock: a lost race costs one
        # duplicate compile/open, never a wrong answer.
        self._joins: Dict[str, Any] = {}
        self._segment_views: Dict[str, np.ndarray] = {}
        self.corrupt_manifests = 0

    @property
    def manifest_dir(self) -> Path:
        return self.root / MANIFEST_DIR

    @property
    def segment_dir(self) -> Path:
        return self.root / SEGMENT_DIR

    # -- index maintenance ----------------------------------------------

    def _load(self) -> None:
        with self._lock:
            while not self._loaded:
                self._loaded = self._scan()

    def _scan(self) -> bool:
        """Index every manifest under ``manifests/``; lock held.  False
        when a listed manifest vanished before it could be read: a
        merge folded that part between the listing and the open, so the
        rows it held are in a manifest the listing may predate, and the
        caller scans again."""
        if not self.manifest_dir.is_dir():
            return True
        for path in sorted(self.manifest_dir.glob("*.json")):
            try:
                manifest = Manifest.load(path)
            except FileNotFoundError:
                self._manifests.clear()
                self._index.clear()
                self.corrupt_manifests = 0
                return False
            except (OSError, ValueError, KeyError, TypeError):
                # A truncated manifest must not take the whole store
                # down; it is counted, skipped, and left in place
                # for `repro validate --layer store` to report.
                self.corrupt_manifests += 1
                continue
            self._install_locked(path.name, manifest)
        return True

    def _install(
        self, name: str, manifest: Manifest, replaces: Sequence[str] = ()
    ) -> None:
        with self._lock:
            self._load()
            self._install_locked(name, manifest, replaces)

    def _install_locked(
        self, name: str, manifest: Manifest, replaces: Sequence[str] = ()
    ) -> None:
        # A re-install (a merge rewrote this manifest) or the parts a
        # merge or fold replaced: drop their claims so the fresh
        # manifest's rows claim the keys.  O(their rows), not O(index).
        for old in (name, *replaces):
            stale = self._manifests.pop(old, None)
            if stale is None:
                continue
            for key in stale.key_index():
                claim = self._index.get(key)
                if claim is not None and claim[0] is stale:
                    del self._index[key]
        self._manifests[name] = manifest
        for key, row in manifest.key_index().items():
            self._index.setdefault(key, (manifest, row))

    def refresh(self) -> None:
        """Drop the index and re-scan ``manifests/`` on next access."""
        with self._lock:
            self._loaded = False
            self._manifests.clear()
            self._index.clear()
            self._spans.clear()
            self._joins.clear()
            self._segment_views.clear()
            self.corrupt_manifests = 0

    # -- reads -----------------------------------------------------------

    def __len__(self) -> int:
        self._load()
        with self._lock:
            return len(self._index)

    def __contains__(self, key: str) -> bool:
        self._load()
        with self._lock:
            return key in self._index

    def keys(self) -> List[str]:
        """Every stored cell key (shadowed duplicates excluded)."""
        self._load()
        with self._lock:
            return list(self._index)

    def _parts_of(self, stem: str) -> List[Tuple[str, Manifest]]:
        """(file name, manifest) of every loaded part of ``stem``."""
        prefix = f"{stem}{PART_MARK}"
        self._load()
        with self._lock:
            return [
                (name, manifest)
                for name, manifest in self._manifests.items()
                if name.startswith(prefix)
            ]

    def manifests(self) -> List[Manifest]:
        """All loaded manifests, one per (fingerprint, job) file."""
        self._load()
        with self._lock:
            return list(self._manifests.values())

    def _claim(self, key: str) -> Tuple[Manifest, int]:
        self._load()
        with self._lock:
            claim = self._index.get(key)
        if claim is None:
            raise KeyError(f"key {key} not in store")
        return claim

    def _vector(self, entry: ManifestEntry) -> np.ndarray:
        end = entry.offset + entry.length
        view = self._segment_views.get(entry.segment)
        if view is None or end > view.size:
            view = open_segment(self.segment_dir / entry.segment)
            self._segment_views[entry.segment] = view
        if end > view.size:
            raise ValueError(
                f"span [{entry.offset}:{end}] exceeds segment "
                f"{entry.segment} ({view.size} values)"
            )
        return view[entry.offset:end]

    def _document(self, manifest: Manifest, entry: ManifestEntry) -> Any:
        join = self._joins.get(entry.skeleton)
        if join is None:
            join = compile_skeleton(manifest.skeletons[entry.skeleton])
            self._joins[entry.skeleton] = join
        vector = self._vector(entry)
        if entry.kind != KIND_ANALYTIC:
            return join(vector)
        return join_row(join, vector, {
            field: getattr(entry, column)
            for field, column in ROW_FIELDS.items()
        })

    def get(self, key: str) -> Any:
        """The stored document, reassembled bit-exactly.

        Large float arrays come back as read-only views of the mmapped
        segment -- no copy, no parse.
        """
        manifest, row = self._claim(key)
        return self._document(manifest, manifest.entry(row))

    def entry_for(self, key: str) -> ManifestEntry:
        """The manifest row of ``key`` (columns only, no segment read)."""
        manifest, row = self._claim(key)
        return manifest.entry(row)

    def get_result(self, key: str):
        """The stored result as a live object.

        Event-sim documents rebuild as
        :class:`~repro.hw.cxl.eventdevice.EventSimResult`; analytic
        documents rebuild as :class:`~repro.cpu.pipeline.RunResult`
        through the manifest's embedded workload/platform blobs.
        Raises ``KeyError`` when the key is absent or an analytic
        entry's blob is missing.

        A claim that fails to read (a torn segment, a missing blob)
        hands the key over to the first other loaded manifest whose row
        of it does read -- a recomputed row a flush put in a part, say
        -- so a damaged row costs one recompute, not one per reopen
        until a merge drops it.  With no such row the error stands.
        """
        manifest, row = self._claim(key)
        try:
            return self._result(manifest, row)
        except (KeyError, ValueError, TypeError, OSError):
            with self._lock:
                others = [
                    (other, other.key_index().get(key))
                    for other in self._manifests.values()
                    if other is not manifest
                ]
            for other, other_row in others:
                if other_row is None:
                    continue
                try:
                    result = self._result(other, other_row)
                except (KeyError, ValueError, TypeError, OSError):
                    continue
                with self._lock:
                    self._index[key] = (other, other_row)
                return result
            raise

    def _result(self, manifest: Manifest, row: int):
        """The live object of ``manifest``'s ``row`` (see
        :meth:`get_result`)."""
        entry = manifest.entry(row)
        doc = self._document(manifest, entry)
        if entry.kind == KIND_EVENTSIM:
            from repro.hw.cxl.eventdevice import EventSimResult

            return EventSimResult.from_dict(doc)
        from repro.runtime.serialize import (
            platform_from_dict,
            run_result_from_dict,
            workload_from_dict,
        )

        return run_result_from_dict(
            doc,
            workload=self._blob(
                manifest, entry.workload_ref, workload_from_dict
            ),
            platform=self._blob(
                manifest, entry.platform_ref, platform_from_dict
            ),
        )

    def _blob(self, manifest: Manifest, ref: str, from_dict):
        with self._lock:
            obj = self._blob_objects.get(ref)
        if obj is None:
            data = manifest.blobs.get(ref)
            if data is None:
                raise KeyError(f"manifest references missing blob {ref}")
            obj = from_dict(data)
            with self._lock:
                self._blob_objects[ref] = obj
        return obj

    def _latencies(
        self, manifest: Manifest, entry: ManifestEntry
    ) -> np.ndarray:
        """Zero-copy latency array of one event-sim entry.

        Fast path: the packed-array span inside the vector, computed
        once per skeleton.  Short arrays (below the codec's packing
        threshold) fall back to document reassembly.
        """
        if entry.kind != KIND_EVENTSIM:
            raise KeyError(f"entry {entry.key} has no latency array")
        skeleton = manifest.skeletons[entry.skeleton]
        memo_key = (entry.skeleton, "latencies_ns")
        with self._lock:
            span = self._spans.get(memo_key, False)
        if span is False:
            try:
                span = array_span(skeleton, "latencies_ns")
            except KeyError:
                span = None
            with self._lock:
                self._spans[memo_key] = span
        if span is None:
            doc = self._document(manifest, entry)
            return np.asarray(doc["latencies_ns"], dtype=np.float64)
        offset, length = span
        vector = self._vector(entry)
        return vector[offset:offset + length]

    # -- scans -----------------------------------------------------------

    def scan(
        self,
        kind: Optional[str] = None,
        device: Optional[str] = None,
        workload: Optional[str] = None,
        target: Optional[str] = None,
        fault_plan: Optional[str] = None,
        min_gbps: Optional[float] = None,
        max_gbps: Optional[float] = None,
        fingerprint: Optional[str] = None,
    ) -> List[ScanHit]:
        """Vectorized predicate scan over every manifest's columns.

        String filters are exact matches (``fault_plan=""`` selects
        fault-free entries) except ``fingerprint``, which matches any
        campaign fingerprint it prefixes; ``min/max_gbps`` bound the
        offered load of event-sim entries (analytic entries carry NaN
        and never match a load bound).  Rows shadowed by another
        manifest's claim of the same key are skipped, so overlapping
        job manifests never double-report a cell.
        """
        self._load()
        hits: List[ScanHit] = []
        with self._lock:
            manifests = list(self._manifests.values())
            index = self._index
        for manifest in manifests:
            if fingerprint is not None \
                    and not manifest.fingerprint.startswith(fingerprint):
                continue
            count = len(manifest)
            if count == 0:
                continue
            mask = np.ones(count, dtype=bool)
            for column, value in (
                ("kind", kind),
                ("device", device),
                ("workload", workload),
                ("target", target),
                ("fault_plan", fault_plan),
            ):
                if value is not None:
                    mask &= manifest.match_mask(column, value)
                    if not mask.any():
                        break
            else:
                gbps = manifest.column("offered_gbps")
                if min_gbps is not None:
                    mask &= gbps >= min_gbps
                if max_gbps is not None:
                    mask &= gbps <= max_gbps
            if not mask.any():
                continue
            for row in np.nonzero(mask)[0]:
                row = int(row)
                key = manifest.key_at(row)
                claim = index.get(key)
                if claim is not None and (
                    claim[0] is not manifest or claim[1] != row
                ):
                    continue  # shadowed duplicate
                hits.append(
                    ScanHit(self, manifest, row, manifest.entry(row))
                )
        return hits

    # -- writes ----------------------------------------------------------

    def writer(self, fingerprint: str, job_id: str = "") -> StoreWriter:
        """A :class:`StoreWriter` appending under ``(fingerprint, job)``."""
        self._load()
        return StoreWriter(self, fingerprint, job_id)

    def query_rows(
        self,
        kind: Optional[str] = None,
        device: Optional[str] = None,
        workload: Optional[str] = None,
        target: Optional[str] = None,
        fault_plan: Optional[str] = None,
        min_gbps: Optional[float] = None,
        max_gbps: Optional[float] = None,
        fingerprint: Optional[str] = None,
        percentiles: Tuple[float, ...] = (),
        limit: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """Scan, shape, and sort: the query surface's row documents.

        One row dict per matching entry, deterministically ordered
        (kind, device, workload, target, offered load, key) so the CLI
        table, the JSON export, and the serve route all paginate
        identically.  ``mean_ns``/``p<P>_ns`` fields are added only for
        event-sim rows with a stored latency array -- those are the only
        rows whose segments get touched.  NaN column values (e.g.
        ``offered_gbps`` of analytic rows) stay NaN; JSON renderers map
        them to null.
        """
        rows = []
        for hit in self.scan(
            kind=kind, device=device, workload=workload, target=target,
            fault_plan=fault_plan, min_gbps=min_gbps, max_gbps=max_gbps,
            fingerprint=fingerprint,
        ):
            entry = hit.entry
            row: Dict[str, Any] = {
                "key": entry.key,
                "kind": entry.kind,
                "device": entry.device,
                "workload": entry.workload,
                "target": entry.target,
                "fault_plan": entry.fault_plan,
                "offered_gbps": entry.offered_gbps,
                "read_fraction": entry.read_fraction,
                "n": entry.n,
            }
            if entry.kind == KIND_EVENTSIM and entry.n > 0:
                row["mean_ns"] = float(hit.latencies().mean())
                for p in percentiles:
                    row[f"p{p:g}_ns"] = hit.percentile(p)
            rows.append(row)
        rows.sort(key=lambda r: (
            r["kind"], r["device"], r["workload"], r["target"],
            -1.0 if math.isnan(r["offered_gbps"]) else r["offered_gbps"],
            r["key"],
        ))
        if limit is not None:
            rows = rows[:limit]
        return rows

    def stats(self) -> Dict[str, Any]:
        """JSON-safe store summary (manifests, entries, segment bytes)."""
        self._load()
        with self._lock:
            manifests = list(self._manifests.values())
            entries = len(self._index)
            corrupt = self.corrupt_manifests
        segment_files = 0
        segment_bytes = 0
        if self.segment_dir.is_dir():
            for path in self.segment_dir.iterdir():
                if path.suffix == ".f64":
                    segment_files += 1
                    try:
                        segment_bytes += path.stat().st_size
                    except OSError:
                        pass
        return {
            "root": str(self.root),
            "manifests": len(manifests),
            "fingerprints": len(
                {m.fingerprint for m in manifests}
            ),
            "entries": entries,
            "rows": sum(len(m) for m in manifests),
            "corrupt_manifests": corrupt,
            "segment_files": segment_files,
            "segment_bytes": segment_bytes,
        }

