"""Lossless split of a result document into (skeleton, number vector).

The columnar tier stores every number of a result document -- scalars and
arrays alike -- as packed binary ``float64``, and everything else (keys,
strings, booleans, nulls, structure) as a *skeleton*: the same document
with each numeric leaf replaced by a positional marker.  Reassembly walks
the skeleton and consumes the vector in order.  Because thousands of
cells of one campaign share a few document shapes, their skeletons are
byte-identical and the manifest stores each distinct skeleton exactly
once (content-addressed by :func:`skeleton_ref`); the per-cell storage
cost collapses to the raw numbers.  Per-cell *strings* would break that
sharing, so :class:`~repro.store.store.StoreWriter` keeps the ones its
manifest row already records out of analytic skeletons: a non-empty
string ``target_name``, ``workload_ref`` or ``platform_ref`` lives only
in the row's column and is written back after the join (an absent or
empty field stays in the skeleton; manifests written before this rule
still carry the fields and read unchanged).  This module itself splits
and joins whatever document it is given.

Bit-exactness argument:

* floats travel as IEEE-754 ``float64`` end to end -- no text round trip
  at all, so equality is trivial;
* ints are stored as ``float64`` only when exactly representable
  (``|v| <= 2**53``); larger ints stay literal in the skeleton;
* bools and ``None`` are structural, never numeric (``bool`` is an
  ``int`` subclass in Python -- the checks below test it first);
* dicts are walked in sorted-key order on both sides, so marker
  positions are canonical regardless of insertion order;
* a long list of floats (an event-sim latency array) collapses to one
  span marker and is reassembled as a zero-copy ``ndarray`` view of the
  mmapped segment -- ``tolist()`` of that view reproduces the original
  floats bit-for-bit.

Markers are strings starting with ``"\\x00"`` (a byte that never occurs
in real document strings -- and genuine strings that *do* start with it
are escaped, so the encoding is total, not best-effort).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Tuple

import numpy as np

_MARK = "\x00"
_EXACT_INT = 2 ** 53
_MIN_PACKED_LIST = 8
"""Float lists shorter than this stay element-wise in the skeleton;
collapsing a 3-float list to a span marker saves nothing and costs a
distinct skeleton per length."""


def split_document(doc: Any) -> Tuple[Any, np.ndarray]:
    """Split ``doc`` into (skeleton, float64 vector).

    ``doc`` must be JSON-representable (dicts with string keys, lists,
    strings, numbers, bools, ``None``); anything else raises
    ``TypeError``.  The inverse is :func:`compile_skeleton`.
    """
    numbers: List[float] = []
    skeleton = _strip(doc, numbers)
    return skeleton, np.asarray(numbers, dtype=np.float64)


def _strip(node: Any, out: List[float]) -> Any:
    if node is None or isinstance(node, bool):
        return node
    if isinstance(node, int):
        if -_EXACT_INT <= node <= _EXACT_INT:
            out.append(float(node))
            return _MARK + "i"
        return node  # not exactly representable: keep the literal
    if isinstance(node, float):
        out.append(node)
        return _MARK + "f"
    if isinstance(node, str):
        return _MARK + "s" + node if node.startswith(_MARK) else node
    if isinstance(node, dict):
        return {key: _strip(node[key], out) for key in sorted(node)}
    if isinstance(node, (list, tuple)):
        if len(node) >= _MIN_PACKED_LIST and all(
            type(v) is float for v in node
        ):
            out.extend(node)
            return f"{_MARK}F{len(node)}"
        return [_strip(v, out) for v in node]
    raise TypeError(
        f"document node of type {type(node).__name__} is not storable"
    )


def compile_skeleton(skeleton: Any):
    """Compile a skeleton into a ``vector -> document`` join: the
    inverse of :func:`split_document`, and the store's only one.

    In a campaign store thousands of cells share one skeleton (analytic
    ones too, their row-recorded strings being kept out of it), so the
    walk is done once, recording each marker's vector position, and the
    returned closure reassembles a document without inspecting the
    skeleton again.  All scalar slots are gathered with a single
    fancy-index + ``tolist()`` (one C call instead of one mmap
    ``__getitem__`` per scalar), so scalar markers become native Python
    ``float``/``int`` (the result re-serializes through ``json`` exactly
    like the original); span markers become zero-copy ``ndarray`` views
    of ``vector``.  An unknown marker raises ``ValueError`` at compile
    time, and the join raises ``ValueError`` when the vector's length is
    not exactly what the skeleton consumes (a corrupt entry must read as
    damage, not as plausible data).
    """
    scalar_slots: List[int] = []
    position = 0

    def compile_node(node: Any):
        nonlocal position
        if isinstance(node, str) and node.startswith(_MARK):
            tag = node[1]
            if tag == "f":
                slot = len(scalar_slots)
                scalar_slots.append(position)
                position += 1
                return lambda vector, scalars, slot=slot: scalars[slot]
            if tag == "i":
                slot = len(scalar_slots)
                scalar_slots.append(position)
                position += 1
                return lambda vector, scalars, slot=slot: int(
                    scalars[slot]
                )
            if tag == "s":
                text = node[2:]
                return lambda vector, scalars, text=text: text
            if tag == "F":
                count = int(node[2:])
                start = position
                position += count
                end = start + count
                return lambda vector, scalars, s=start, e=end: vector[s:e]
            raise ValueError(f"unknown skeleton marker {node[:2]!r}")
        if isinstance(node, dict):
            parts = [
                (key, compile_node(value)) for key, value in node.items()
            ]
            return lambda vector, scalars, parts=parts: {
                key: fn(vector, scalars) for key, fn in parts
            }
        if isinstance(node, list):
            parts = [compile_node(value) for value in node]
            return lambda vector, scalars, parts=parts: [
                fn(vector, scalars) for fn in parts
            ]
        return lambda vector, scalars, node=node: node

    root = compile_node(skeleton)
    expected = position
    index = np.asarray(scalar_slots, dtype=np.intp)

    def join(vector: np.ndarray) -> Any:
        if len(vector) != expected:
            raise ValueError(
                f"number vector has {len(vector)} values, skeleton "
                f"consumed {expected}"
            )
        scalars = (
            np.asarray(vector[index]).tolist() if len(index) else ()
        )
        return root(vector, scalars)

    return join


def skeleton_ref(skeleton: Any) -> str:
    """Content address of one skeleton (sha256 of canonical JSON)."""
    text = json.dumps(skeleton, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


def array_span(skeleton: Any, field: str) -> Tuple[int, int]:
    """(offset, length) of ``field``'s packed array inside the vector.

    Walks the skeleton in the order :func:`compile_skeleton` does, counting
    consumed slots until the top-level key ``field`` carrying a span
    marker is reached.  Lets scans read one array (a latency vector)
    straight out of the segment without reassembling the document.
    Raises ``KeyError`` when the field is not a packed array.
    """
    position = 0

    def plain(node: Any, target: bool):
        nonlocal position
        if isinstance(node, str) and node.startswith(_MARK):
            tag = node[1]
            if tag in ("f", "i"):
                position += 1
            elif tag == "F":
                count = int(node[2:])
                if target:
                    return (position, count)
                position += count
            return None
        if isinstance(node, dict):
            for key, value in node.items():
                found = plain(value, key == field)
                if found is not None:
                    return found
            return None
        if isinstance(node, list):
            for value in node:
                found = plain(value, False)
                if found is not None:
                    return found
            return None
        return None

    found = plain(skeleton, False)
    if found is None:
        raise KeyError(f"no packed array field {field!r} in skeleton")
    return found


def canonical_document(doc: Any) -> str:
    """Canonical JSON text of a document for identity comparison.

    ``ndarray`` leaves (zero-copy reads) are rendered through
    ``tolist()`` so a store read and a JSON-tier read of the same result
    canonicalize to byte-identical text.
    """
    def native(node: Any) -> Any:
        if isinstance(node, np.ndarray):
            return node.tolist()
        if isinstance(node, np.floating):
            return float(node)
        if isinstance(node, np.integer):
            return int(node)
        if isinstance(node, dict):
            return {key: native(value) for key, value in node.items()}
        if isinstance(node, (list, tuple)):
            return [native(value) for value in node]
        return node

    return json.dumps(native(doc), sort_keys=True)
