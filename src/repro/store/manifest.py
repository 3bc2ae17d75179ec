"""Columnar manifests: one compact JSON document per (fingerprint, job).

A manifest maps every cell key of one campaign (or one job's slice of it) to
its segment span, plus the queryable columns -- kind, device, workload,
fault-plan key, operating point, latency count.  The encoding is
columnar and dictionary-compressed so a 10k-cell manifest is a few
hundred KB, not a 10k-file directory:

* all 64-hex cell keys concatenate into **one** string (sliced back on
  demand -- far faster to parse than 10k separate JSON strings);
* low-cardinality string columns (device, workload, fault plan,
  skeleton ref, segment name) store a vocabulary plus integer codes;
* numeric columns are plain JSON arrays, materialized as ``numpy``
  arrays once per process for vectorized predicate scans;
* document *skeletons* (see :mod:`repro.store.codec`) are stored once
  per distinct shape, content-addressed;
* workload/platform blobs referenced by analytic entries are embedded,
  so a store directory is self-contained -- it can be copied between
  hosts on its own.

Manifests are immutable once written and written atomically (temp file,
then ``os.replace``).  One (fingerprint, job) owns one manifest,
``<fingerprint>.json`` or ``<fingerprint>.<job_id>.json``, plus the
*parts* its writers flushed since their last merge,
``<stem>@<token>.json`` (``@`` never occurs in a fingerprint or job id):
a part holds only the rows of one flush, and
:meth:`~repro.store.store.StoreWriter.commit` folds the parts into the
one manifest (see :meth:`Manifest.absorb`).
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

MANIFEST_VERSION = 1
"""Bump on any layout change; :meth:`Manifest.from_dict` refuses a
mismatched manifest, so readers count it as corrupt and skip it, and
the next writer of its (fingerprint, job) replaces it."""

KEY_HEX = 64
"""Cell keys are sha256 hex digests; the fixed width is what lets the
key column concatenate into one sliceable string."""

PART_MARK = "@"
"""Separates a part manifest's stem from its token: job ids and
fingerprints never contain it, so ``<stem>@*.json`` globs exactly one
(fingerprint, job)'s parts."""

KIND_EVENTSIM = "eventsim"
KIND_ANALYTIC = "analytic"

_VOCAB_COLUMNS = (
    "kind",
    "device",
    "workload",
    "target",
    "fault_plan",
    "skeleton",
    "segment",
    "workload_ref",
    "platform_ref",
)
_FLOAT_COLUMNS = ("offered_gbps", "read_fraction")
_INT_COLUMNS = ("offset", "length", "n")

_TMP_SEQ = itertools.count()


@dataclass(frozen=True)
class ManifestEntry:
    """One cell's row: identity, queryable columns, and segment span."""

    key: str
    kind: str
    device: str
    workload: str
    target: str
    fault_plan: str
    offered_gbps: float
    read_fraction: float
    skeleton: str
    segment: str
    offset: int
    length: int
    n: int
    workload_ref: str = ""
    platform_ref: str = ""


class Manifest:
    """The columnar cell index of one (campaign fingerprint, job id).

    Rows append through :meth:`add`; columns materialize as ``numpy``
    arrays through :meth:`column`/:meth:`codes` (cached until the next
    append).  ``skeletons`` and ``blobs`` are content-addressed side
    tables shared by all rows.
    """

    def __init__(self, fingerprint: str, job_id: str = "") -> None:
        self.fingerprint = fingerprint
        self.job_id = job_id
        self.skeletons: Dict[str, Any] = {}
        self.blobs: Dict[str, Any] = {}
        self._keys: List[str] = []
        self._vocab: Dict[str, List[str]] = {
            name: [] for name in _VOCAB_COLUMNS
        }
        self._vocab_index: Dict[str, Dict[str, int]] = {
            name: {} for name in _VOCAB_COLUMNS
        }
        self._codes: Dict[str, List[int]] = {
            name: [] for name in _VOCAB_COLUMNS
        }
        self._floats: Dict[str, List[float]] = {
            name: [] for name in _FLOAT_COLUMNS
        }
        self._ints: Dict[str, List[int]] = {
            name: [] for name in _INT_COLUMNS
        }
        self._arrays: Dict[str, np.ndarray] = {}
        self._key_index: Optional[Dict[str, int]] = None
        # row -> ManifestEntry.  Rows are append-only and never mutate,
        # so cached entries stay valid across later ``add`` calls.
        self._entry_cache: Dict[int, ManifestEntry] = {}

    def __len__(self) -> int:
        return len(self._keys)

    # -- build side ------------------------------------------------------

    def _code(self, column: str, value: str) -> int:
        index = self._vocab_index[column]
        code = index.get(value)
        if code is None:
            code = len(self._vocab[column])
            self._vocab[column].append(value)
            index[value] = code
        return code

    def add(self, entry: ManifestEntry) -> None:
        """Append one row (key validated, vocab codes interned)."""
        if len(entry.key) != KEY_HEX:
            raise ValueError(
                f"cell key must be {KEY_HEX} hex chars, got {entry.key!r}"
            )
        self._keys.append(entry.key)
        for name in _VOCAB_COLUMNS:
            self._codes[name].append(
                self._code(name, getattr(entry, name))
            )
        for name in _FLOAT_COLUMNS:
            self._floats[name].append(float(getattr(entry, name)))
        for name in _INT_COLUMNS:
            self._ints[name].append(int(getattr(entry, name)))
        self._arrays.clear()
        self._key_index = None

    # -- read side -------------------------------------------------------

    def key_at(self, row: int) -> str:
        """Cell key of one row."""
        return self._keys[row]

    def keys(self) -> List[str]:
        """All cell keys, in row order."""
        return list(self._keys)

    def key_index(self) -> Dict[str, int]:
        """key -> row (first occurrence wins), built lazily."""
        if self._key_index is None:
            index: Dict[str, int] = {}
            for row, key in enumerate(self._keys):
                index.setdefault(key, row)
            self._key_index = index
        return self._key_index

    def vocab(self, column: str) -> List[str]:
        """Dictionary of one vocab column (code -> string)."""
        return self._vocab[column]

    def value_at(self, column: str, row: int) -> str:
        """Decoded string value of one vocab cell."""
        return self._vocab[column][self._codes[column][row]]

    def codes(self, column: str) -> np.ndarray:
        """Integer codes of one vocab column as an ``int64`` array."""
        cached = self._arrays.get(column)
        if cached is None:
            cached = np.asarray(self._codes[column], dtype=np.int64)
            self._arrays[column] = cached
        return cached

    def column(self, name: str) -> np.ndarray:
        """One numeric column as a ``float64``/``int64`` array."""
        cached = self._arrays.get(name)
        if cached is None:
            if name in _FLOAT_COLUMNS:
                cached = np.asarray(self._floats[name], dtype=np.float64)
            elif name in _INT_COLUMNS:
                cached = np.asarray(self._ints[name], dtype=np.int64)
            else:
                raise KeyError(f"no numeric column {name!r}")
            self._arrays[name] = cached
        return cached

    def match_mask(self, column: str, value: str) -> np.ndarray:
        """Boolean row mask for ``column == value`` (vectorized).

        A value absent from the vocabulary short-circuits to all-False
        without touching the code array.
        """
        code = self._vocab_index[column].get(value)
        if code is None:
            return np.zeros(len(self._keys), dtype=bool)
        return self.codes(column) == code

    def entry(self, row: int) -> ManifestEntry:
        """One row as a :class:`ManifestEntry` (cached per row)."""
        cached = self._entry_cache.get(row)
        if cached is not None:
            return cached
        values = {
            name: self.value_at(name, row) for name in _VOCAB_COLUMNS
        }
        values.update(
            {name: self._floats[name][row] for name in _FLOAT_COLUMNS}
        )
        values.update(
            {name: self._ints[name][row] for name in _INT_COLUMNS}
        )
        entry = ManifestEntry(key=self._keys[row], **values)
        self._entry_cache[row] = entry
        return entry

    def entries(self):
        """Iterate every row as a :class:`ManifestEntry`."""
        for row in range(len(self._keys)):
            yield self.entry(row)

    # -- parts and merges ------------------------------------------------

    def absorb(self, other: "Manifest", start: int = 0) -> int:
        """Append ``other``'s rows from ``start`` on whose keys this
        manifest lacks, with the skeletons and blobs they reference.

        A flush's part is an empty manifest absorbing the rows since the
        last flush (O(those rows), whatever came before them), and the
        merge of :meth:`~repro.store.store.StoreWriter.commit` absorbs
        whole manifests: claims of one key are bit-identical by
        construction, so the first one kept wins.  Returns how many rows
        were taken.
        """
        have = self.key_index()
        rows = []
        for row in range(start, len(other._keys)):
            key = other._keys[row]
            if key not in have:
                have[key] = len(self._keys) + len(rows)
                rows.append(row)
        if not rows:
            return 0
        self._keys.extend(other._keys[row] for row in rows)
        for name in _VOCAB_COLUMNS:
            vocab = other._vocab[name]
            codes = other._codes[name]
            remap = {}
            out = self._codes[name]
            for row in rows:
                code = codes[row]
                mine = remap.get(code)
                if mine is None:
                    mine = remap[code] = self._code(name, vocab[code])
                out.append(mine)
        for name in _FLOAT_COLUMNS:
            values = other._floats[name]
            self._floats[name].extend(values[row] for row in rows)
        for name in _INT_COLUMNS:
            values = other._ints[name]
            self._ints[name].extend(values[row] for row in rows)
        for ref in {other.value_at("skeleton", row) for row in rows}:
            self.skeletons.setdefault(ref, other.skeletons[ref])
        for column in ("workload_ref", "platform_ref"):
            for ref in {other.value_at(column, row) for row in rows}:
                if ref in other.blobs:
                    self.blobs.setdefault(ref, other.blobs[ref])
        self._arrays.clear()
        return len(rows)

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict (inverse of :meth:`from_dict`)."""
        return {
            "version": MANIFEST_VERSION,
            "fingerprint": self.fingerprint,
            "job_id": self.job_id,
            "count": len(self._keys),
            "keys": "".join(self._keys),
            "vocab": {
                name: self._vocab[name] for name in _VOCAB_COLUMNS
            },
            "codes": {
                name: self._codes[name] for name in _VOCAB_COLUMNS
            },
            "floats": {
                name: self._floats[name] for name in _FLOAT_COLUMNS
            },
            "ints": {name: self._ints[name] for name in _INT_COLUMNS},
            "skeletons": self.skeletons,
            "blobs": self.blobs,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Manifest":
        if data.get("version") != MANIFEST_VERSION:
            raise ValueError(
                f"unsupported manifest version {data.get('version')!r}"
            )
        manifest = cls(data["fingerprint"], data.get("job_id", ""))
        count = int(data["count"])
        keys = data["keys"]
        if len(keys) != count * KEY_HEX:
            raise ValueError(
                f"key column holds {len(keys)} chars, expected "
                f"{count * KEY_HEX}"
            )
        manifest._keys = [
            keys[i * KEY_HEX:(i + 1) * KEY_HEX] for i in range(count)
        ]
        for name in _VOCAB_COLUMNS:
            vocab = list(data["vocab"][name])
            codes = [int(c) for c in data["codes"][name]]
            if len(codes) != count:
                raise ValueError(f"column {name!r} length mismatch")
            if codes and not all(0 <= c < len(vocab) for c in codes):
                raise ValueError(f"column {name!r} code out of range")
            manifest._vocab[name] = vocab
            manifest._vocab_index[name] = {
                value: code for code, value in enumerate(vocab)
            }
            manifest._codes[name] = codes
        for name in _FLOAT_COLUMNS:
            values = [float(v) for v in data["floats"][name]]
            if len(values) != count:
                raise ValueError(f"column {name!r} length mismatch")
            manifest._floats[name] = values
        for name in _INT_COLUMNS:
            values = [int(v) for v in data["ints"][name]]
            if len(values) != count:
                raise ValueError(f"column {name!r} length mismatch")
            manifest._ints[name] = values
        manifest.skeletons = dict(data["skeletons"])
        manifest.blobs = dict(data["blobs"])
        return manifest

    # -- disk ------------------------------------------------------------

    def stem(self) -> str:
        """``<fp>``, or ``<fp>.<job_id>`` for a job slice."""
        if self.job_id:
            return f"{self.fingerprint}.{self.job_id}"
        return self.fingerprint

    def filename(self) -> str:
        """``<stem>.json``: the one merged manifest of its (fp, job)."""
        return f"{self.stem()}.json"

    def part_filename(self, token: str) -> str:
        """``<stem>@<token>.json``: one flushed part of its (fp, job)."""
        return f"{self.stem()}{PART_MARK}{token}.json"

    def write(self, directory: Path, filename: Optional[str] = None) -> Path:
        """Atomically write this manifest into ``directory``, under
        ``filename`` (default :meth:`filename`)."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / (filename or self.filename())
        tmp = Path(
            f"{path}.tmp.{os.getpid()}."
            f"{threading.get_ident()}.{next(_TMP_SEQ)}"
        )
        try:
            with open(tmp, "w") as handle:
                handle.write(json.dumps(self.to_dict()))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    @classmethod
    def load(cls, path: Path) -> "Manifest":
        with open(path, "r") as handle:
            return cls.from_dict(json.load(handle))
