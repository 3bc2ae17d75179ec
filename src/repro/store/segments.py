"""Append-only packed float64 segment files.

A segment is nothing but raw little-endian ``float64`` values appended
end to end -- no header, no framing.  All structure lives in the
manifest, which records ``(segment name, offset, length)`` spans.  That
makes the read path a single ``np.memmap`` slice: zero parse, zero copy,
and the OS page cache is the only cache we need.

Writers never share a segment file: each :class:`SegmentWriter` derives
its file names from a caller-supplied ``writer_id`` (campaign
fingerprint + job id) and creates every file exclusively, stepping to
the next sequence number when the name is taken -- so concurrent
writers, even two of one ``writer_id``, append into one ``segments/``
directory without coordination.
Files roll at :data:`SEGMENT_ROLL_BYTES` so a million-cell campaign does
not produce one unwieldy multi-gigabyte file.
"""

from __future__ import annotations

import re
import threading
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

FLOAT_BYTES = 8
SEGMENT_DTYPE = "<f8"
SEGMENT_SUFFIX = ".f64"
SEGMENT_ROLL_BYTES = 64 * 1024 * 1024

_WRITER_ID_RE = re.compile(r"^[A-Za-z0-9._-]{1,96}$")


class SegmentWriter:
    """Appends float64 vectors to ``<dir>/<writer_id>-<seq>.f64`` files.

    ``append`` returns the ``(segment_name, offset, length)`` span the
    manifest must record; offsets are in float64 elements, not bytes.
    The writer keeps one file handle open and rolls to a fresh sequence
    number when the current file would exceed ``roll_bytes``; it only
    ever appends to files it created.  Not thread-safe by
    itself -- the owning :class:`~repro.store.store.StoreWriter`
    serializes access.
    """

    def __init__(
        self,
        directory: Path,
        writer_id: str,
        roll_bytes: int = SEGMENT_ROLL_BYTES,
    ) -> None:
        if not _WRITER_ID_RE.match(writer_id):
            raise ValueError(f"invalid segment writer id {writer_id!r}")
        self.directory = Path(directory)
        self.writer_id = writer_id
        self.roll_bytes = int(roll_bytes)
        self._seq = 0
        self._handle = None
        self._offset = 0  # elements already in the current file

    @property
    def current_segment(self) -> str:
        return f"{self.writer_id}-{self._seq}{SEGMENT_SUFFIX}"

    def append(self, vector: np.ndarray) -> Tuple[str, int, int]:
        """Append ``vector`` and return its ``(segment, offset, length)``."""
        data = np.ascontiguousarray(vector, dtype=SEGMENT_DTYPE)
        if data.ndim != 1:
            raise ValueError("segment vectors must be one-dimensional")
        if self._handle is None:
            self._open()
        elif (
            self._offset > 0
            and (self._offset + data.size) * FLOAT_BYTES > self.roll_bytes
        ):
            self._roll()
        span = (self.current_segment, self._offset, int(data.size))
        self._handle.write(data.tobytes())
        self._offset += int(data.size)
        return span

    def flush(self) -> None:
        """Flush buffered bytes to the current segment file."""
        if self._handle is not None:
            self._handle.flush()

    def close(self) -> None:
        """Close the current segment file (a later append starts a new one)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def _open(self) -> None:
        """Create the next unused segment file of this writer.

        Exclusive creation is what keeps spans honest: a file left by an
        earlier writer, or being filled by a concurrent one of the same
        ``writer_id``, is never appended to, so every span an existing
        manifest names keeps pointing at the bytes it named.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        while True:
            try:
                self._handle = open(
                    self.directory / self.current_segment, "xb"
                )
                break
            except FileExistsError:
                self._seq += 1
        self._offset = 0

    def _roll(self) -> None:
        self.close()
        self._seq += 1
        self._open()

    def __enter__(self) -> "SegmentWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


_MMAP_LOCK = threading.Lock()
_MMAP_CACHE: Dict[Tuple[str, int], Optional[np.ndarray]] = {}


def open_segment(path: Path) -> np.ndarray:
    """Read-only float64 view of a whole segment file, memoized.

    Memoized per ``(path, size)`` so a segment a concurrent writer is
    still appending to is remapped when it grows, while repeated reads
    of a settled segment share one mapping.  Empty files map to an empty
    array (``np.memmap`` refuses zero-length maps).
    """
    path = Path(path)
    size = path.stat().st_size
    key = (str(path), size)
    with _MMAP_LOCK:
        view = _MMAP_CACHE.get(key)
        if view is None:
            if size == 0:
                view = np.empty(0, dtype=SEGMENT_DTYPE)
            else:
                # Re-expose the mapping as a base-class ndarray (the
                # memmap stays alive as ``.base``): slicing ndarray is
                # several times cheaper than slicing np.memmap, and the
                # read path slices on every document.
                view = np.memmap(
                    path, dtype=SEGMENT_DTYPE, mode="r"
                ).view(np.ndarray)
            _MMAP_CACHE[key] = view
    return view


def read_span(path: Path, offset: int, length: int) -> np.ndarray:
    """Zero-copy slice of one span out of a segment file."""
    view = open_segment(path)
    end = offset + length
    if end > view.size:
        raise ValueError(
            f"span [{offset}:{end}] exceeds segment {path.name} "
            f"({view.size} values)"
        )
    return view[offset:end]
