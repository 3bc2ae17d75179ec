"""Span recording, self-time attribution and the reporting rules.

The traced run records one span per call into a library layer: name,
layer, start, end, parent span, thread and operation id.  Spans stay in
memory and are written once, as a Chrome trace that opens in Perfetto.

Self time is a span's duration minus the part covered by its children.
Threads make that ambiguous, so :func:`attribute` fixes one rule: at any
instant, the wall time is shared equally by the innermost *working*
span of every thread; a span marked ``wait`` (a thread blocked on a
socket or on another thread) only receives time while no thread is
working; time no span covers is unattributed.  On one thread this is
exactly "duration minus children", and on any number of threads the
shares plus the unattributed time add up to the window, by construction.
"""

from __future__ import annotations

import itertools
import json
import math
import re
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
"""Metric names: the ``[A-Za-z0-9_.-]+`` pattern, at most 64 characters,
starting with a letter or digit."""

STANDARD_PERCENTILES = (50.0, 90.0, 99.0, 99.9)
MIN_BEYOND = 10
"""A percentile is reported only with this many samples beyond it."""


def highest_percentile(
    n: int, candidates: Sequence[float] = STANDARD_PERCENTILES
) -> Optional[float]:
    """The highest candidate percentile with ten or more samples beyond it.

    ``None`` when even the lowest candidate lacks them.
    """
    best = None
    for p in sorted(candidates):
        if n * (1.0 - p / 100.0) >= MIN_BEYOND - 1e-9:
            best = p
    return best


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile (NumPy's default definition)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def median(values: Sequence[float]) -> float:
    """The 50th percentile."""
    return percentile(values, 50.0)


@dataclass(frozen=True)
class Span:
    """One finished call into a layer."""

    span_id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int
    thread: str
    op: str
    wait: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Thread-safe in-memory span and counter store."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.active = False
        """Wrappers record only while set (inside timed phases)."""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def op(self) -> str:
        """The calling thread's current operation id."""
        return getattr(self._local, "op", "")

    @op.setter
    def op(self, value: str) -> None:
        self._local.op = value

    def begin(self) -> Tuple[int, int, float]:
        """Open a span on this thread: (span id, parent id, start)."""
        stack = self._stack()
        parent = stack[-1] if stack else 0
        span_id = next(self._ids)
        stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def end(
        self, token: Tuple[int, int, float], name: str, layer: str,
        wait: bool = False,
    ) -> Span:
        """Close the span ``token`` opened; returns the finished span."""
        end = time.perf_counter()
        span_id, parent, start = token
        self._stack().pop()
        span = Span(span_id, name, layer, start, end, parent,
                    threading.current_thread().name, self.op, wait)
        self.spans.append(span)
        return span

    def add(
        self, name: str, layer: str, start: float, end: float,
        thread: str, op: str = "", wait: bool = False,
    ) -> Span:
        """Record a span measured elsewhere (e.g. one client request)."""
        span = Span(next(self._ids), name, layer, start, end, 0, thread,
                    op, wait)
        self.spans.append(span)
        return span

    def count(self, name: str, amount: float = 1) -> None:
        """Add to a counter kept at a layer boundary."""
        with self._lock:
            self.counts[name] += amount

    def sample(self, name: str, value: float) -> None:
        """Keep one sample of a per-operation quantity."""
        with self._lock:
            self.samples[name].append(value)


def attribute(
    spans: Iterable[Span], windows: Sequence[Tuple[float, float]]
) -> Tuple[Dict[int, float], float]:
    """Self time per span id, and the unattributed time, over ``windows``.

    See the module docstring for the rule.  Windows must not overlap.
    """
    events = []
    for span in spans:
        events.append((span.start, 1, span))
        events.append((span.end, 0, span))
    # Ends before starts at equal times; inner spans (larger ids) start
    # after and end before their parents.
    events.sort(key=lambda e: (e[0], e[1], e[2].span_id if e[1] else
                               -e[2].span_id))
    self_time: Dict[int, float] = defaultdict(float)
    unattributed = 0.0
    open_by_thread: Dict[str, List[Span]] = defaultdict(list)

    def share(lo: float, hi: float) -> float:
        """Attribute the instant range [lo, hi) clipped to the windows."""
        covered = 0.0
        for w_lo, w_hi in windows:
            covered += max(0.0, min(hi, w_hi) - max(lo, w_lo))
        if covered <= 0.0:
            return 0.0
        tops = [stack[-1] for stack in open_by_thread.values() if stack]
        working = [span for span in tops if not span.wait]
        owners = working or tops
        if not owners:
            return covered
        for span in owners:
            self_time[span.span_id] += covered / len(owners)
        return 0.0

    cursor = min((w[0] for w in windows), default=0.0)
    for when, is_start, span in events:
        if when > cursor:
            unattributed += share(cursor, when)
            cursor = when
        stack = open_by_thread[span.thread]
        if is_start:
            stack.append(span)
        else:
            stack.remove(span)
    end = max((w[1] for w in windows), default=cursor)
    if end > cursor:
        unattributed += share(cursor, end)
    return dict(self_time), unattributed


def write_chrome_trace(
    path: str, spans: Sequence[Span], self_time: Dict[int, float]
) -> None:
    """One Chrome trace-event JSON file (opens in Perfetto)."""
    zero = min((span.start for span in spans), default=0.0)
    tids: Dict[str, int] = {}
    events = []
    for span in spans:
        tid = tids.setdefault(span.thread, len(tids) + 1)
        events.append({
            "name": span.name,
            "cat": span.layer,
            "ph": "X",
            "ts": (span.start - zero) * 1e6,
            "dur": span.duration * 1e6,
            "pid": 1,
            "tid": tid,
            "args": {
                "span_id": span.span_id,
                "parent": span.parent,
                "op": span.op,
                "wait": span.wait,
                "self_us": self_time.get(span.span_id, 0.0) * 1e6,
            },
        })
    for thread, tid in tids.items():
        events.append({"name": "thread_name", "ph": "M", "pid": 1,
                       "tid": tid, "args": {"name": thread}})
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
