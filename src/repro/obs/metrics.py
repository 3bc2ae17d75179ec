"""The process-wide metrics registry: counters, gauges, histograms.

Observability of a measurement system must never distort the measurement.
The registry therefore has a **zero-overhead no-op default**: until a
caller opts in via :func:`enable_metrics` (the CLI's ``--metrics`` flag
does this), :func:`metrics` returns a shared :class:`NullRegistry` whose
instrument lookups return module-level null singletons -- no allocation,
no dict writes, no arithmetic on the hot path.  Instrumented code is
written once and is free when nobody is watching::

    metrics().counter("sim.requests", device=name).inc(n)

When a real :class:`MetricsRegistry` is installed, instruments are
memoized by ``(kind, name, labels)`` and the whole registry exports as a
JSON document (``to_json``, consumed by ``repro stats``) or as Prometheus
text exposition format (``to_prometheus``).

Thread safety: the registry is process-wide and -- since ``repro serve``
-- mutated from server worker threads while the event loop exports it.
One shared :func:`threading.RLock` guards every instrument update,
instrument creation, and export, so ``+=`` on shared floats can never
tear or lose increments and an export always sees a consistent snapshot
(a histogram's ``counts`` always sum to its ``count``).  The lock is
re-initialized in forked children (``os.register_at_fork``) so an isolated
cell subprocess forked while another thread holds it cannot deadlock.

Determinism guarantee: instruments only *read* the quantities they are
handed -- none of them touches an RNG or feeds back into a model -- so
enabling metrics can never perturb simulated results (enforced by the
``obs`` layer of :mod:`repro.diag`).
"""

from __future__ import annotations

import json
import os
import re
import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError

LabelItems = Tuple[Tuple[str, str], ...]

_LOCK = threading.RLock()
"""One lock for all instrument updates, creation, and exports.

A single shared lock (rather than one per instrument) keeps exports
trivially consistent -- nothing can move while a snapshot renders -- and
instrument updates are far too coarse (per batch, per simulated run) for
the contention to matter.
"""


def _reset_lock_after_fork() -> None:
    """Replace the lock in forked children.

    ``fork`` clones only the calling thread; a lock held by any *other*
    thread at fork time would stay locked forever in the child.  Isolated
    resilient cell attempts fork, and under ``repro serve`` (with a
    per-cell timeout) other threads are live when they do.
    """
    global _LOCK
    _LOCK = threading.RLock()


os.register_at_fork(after_in_child=_reset_lock_after_fork)

DEFAULT_TIME_BUCKETS_S = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
    60.0, 120.0, 300.0,
)
"""Wall-clock histogram buckets (seconds): sub-ms batches to 5-min campaigns."""

DEFAULT_LATENCY_BUCKETS_NS = (
    100.0, 150.0, 200.0, 250.0, 300.0, 400.0, 500.0, 750.0, 1000.0,
    1500.0, 2000.0, 3000.0, 5000.0, 10000.0,
)
"""Simulated-latency histogram buckets (ns): idle DRAM to deep CXL tails."""

DEFAULT_QUEUE_WAIT_BUCKETS_S = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0,
)
"""Server admission queue-wait buckets (seconds): immediate grants to
requests parked behind a saturated worker pool (``repro serve``)."""


def _label_items(labels: Dict[str, str]) -> LabelItems:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_name(name: str, labels: LabelItems) -> str:
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count (requests served, cells run)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ConfigurationError(f"counter increment must be >= 0: {amount}")
        with _LOCK:
            self.value += amount


class Gauge:
    """A point-in-time value (cache hit rate, worker utilization)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        with _LOCK:
            self.value = float(value)


class Histogram:
    """A fixed-bucket histogram (batch wall times, request latencies).

    ``bounds`` are inclusive upper bucket bounds; one implicit ``+Inf``
    bucket catches everything above the last bound, so ``counts`` has
    ``len(bounds) + 1`` entries and always sums to ``count``.
    """

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: Sequence[float]) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ConfigurationError("histogram needs at least one bucket bound")
        if any(b >= a for b, a in zip(bounds, bounds[1:])):
            raise ConfigurationError(
                f"histogram bounds must be strictly increasing: {bounds}"
            )
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        else:
            index = len(self.counts) - 1
        with _LOCK:
            self.counts[index] += 1
            self.sum += value
            self.count += 1

    def observe_many(self, values) -> None:
        """Record a vector of observations (one vectorized pass)."""
        import numpy as np

        arr = np.asarray(values, dtype=float).ravel()
        if arr.size == 0:
            return
        idx = np.searchsorted(np.asarray(self.bounds), arr, side="left")
        with _LOCK:
            for i, n in zip(*np.unique(idx, return_counts=True)):
                self.counts[int(i)] += int(n)
            self.sum += float(arr.sum())
            self.count += int(arr.size)

    @property
    def mean(self) -> float:
        """Mean of all observations (0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe representation (a consistent snapshot)."""
        with _LOCK:
            return {
                "bounds": list(self.bounds),
                "counts": list(self.counts),
                "sum": self.sum,
                "count": self.count,
            }


class _NullCounter:
    """Shared no-op counter handed out by the disabled registry."""

    __slots__ = ()
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Discard the increment."""


class _NullGauge:
    """Shared no-op gauge handed out by the disabled registry."""

    __slots__ = ()
    value = 0.0

    def set(self, value: float) -> None:
        """Discard the value."""


class _NullHistogram:
    """Shared no-op histogram handed out by the disabled registry."""

    __slots__ = ()
    bounds: Tuple[float, ...] = ()
    counts: Tuple[int, ...] = ()
    sum = 0.0
    count = 0
    mean = 0.0

    def observe(self, value: float) -> None:
        """Discard the observation."""

    def observe_many(self, values) -> None:
        """Discard the observations."""


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()

Instrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """A live registry memoizing instruments by ``(kind, name, labels)``."""

    enabled = True
    """Lets hot paths skip label-dict construction when metrics are off."""

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[str, str, LabelItems], Instrument] = {}

    def __len__(self) -> int:
        return len(self._instruments)

    def _get(self, kind: str, name: str, labels: Dict[str, str], build):
        key = (kind, name, _label_items(labels))
        # First lookup outside the lock: dict reads are atomic, and the
        # common case (instrument already exists) must stay cheap.
        instrument = self._instruments.get(key)
        if instrument is None:
            with _LOCK:
                instrument = self._instruments.get(key)
                if instrument is None:
                    for other_kind, other_name, _ in self._instruments:
                        if other_name == name and other_kind != kind:
                            raise ConfigurationError(
                                f"metric {name!r} already registered "
                                f"as a {other_kind}"
                            )
                    instrument = build()
                    self._instruments[key] = instrument
        return instrument

    def counter(self, name: str, **labels: str) -> Counter:
        """The counter ``name`` with these labels (created on first use)."""
        return self._get("counter", name, labels, Counter)

    def gauge(self, name: str, **labels: str) -> Gauge:
        """The gauge ``name`` with these labels (created on first use)."""
        return self._get("gauge", name, labels, Gauge)

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        **labels: str,
    ) -> Histogram:
        """The histogram ``name`` with these labels (created on first use)."""
        bounds = buckets if buckets is not None else DEFAULT_TIME_BUCKETS_S
        return self._get("histogram", name, labels, lambda: Histogram(bounds))

    # -- export ----------------------------------------------------------

    def _by_kind(self, kind: str) -> List[Tuple[str, LabelItems, Instrument]]:
        with _LOCK:
            return sorted(
                (name, labels, inst)
                for (k, name, labels), inst in self._instruments.items()
                if k == kind
            )

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe snapshot: the schema ``repro stats`` consumes."""
        with _LOCK:
            return {
                "counters": {
                    _render_name(n, l): inst.value
                    for n, l, inst in self._by_kind("counter")
                },
                "gauges": {
                    _render_name(n, l): inst.value
                    for n, l, inst in self._by_kind("gauge")
                },
                "histograms": {
                    _render_name(n, l): inst.to_dict()
                    for n, l, inst in self._by_kind("histogram")
                },
            }

    def to_json(self, indent: int = 2) -> str:
        """Serialize the snapshot (sorted keys, so diffs are stable)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (metric names get ``repro_``).

        ``# TYPE`` is declared once per metric family, before its first
        sample, as the exposition format requires.  The whole render runs
        under the shared lock, so a scrape that races concurrent updates
        still sees every histogram's buckets sum to its count.
        """
        with _LOCK:
            return self._render_prometheus()

    def _render_prometheus(self) -> str:
        lines: List[str] = []
        typed = set()

        def declare(prom: str, kind: str) -> None:
            if prom not in typed:
                typed.add(prom)
                lines.append(f"# TYPE {prom} {kind}")

        for name, labels, inst in self._by_kind("counter"):
            prom = _prom_name(name)
            declare(prom, "counter")
            lines.append(f"{_prom_sample(prom, labels)} {_prom_num(inst.value)}")
        for name, labels, inst in self._by_kind("gauge"):
            prom = _prom_name(name)
            declare(prom, "gauge")
            lines.append(f"{_prom_sample(prom, labels)} {_prom_num(inst.value)}")
        for name, labels, inst in self._by_kind("histogram"):
            prom = _prom_name(name)
            declare(prom, "histogram")
            cumulative = 0
            for bound, count in zip(inst.bounds, inst.counts):
                cumulative += count
                lines.append(
                    f"{_prom_sample(prom + '_bucket', labels, le=_prom_num(bound))}"
                    f" {cumulative}"
                )
            lines.append(
                f"{_prom_sample(prom + '_bucket', labels, le='+Inf')}"
                f" {inst.count}"
            )
            lines.append(f"{_prom_sample(prom + '_sum', labels)} {_prom_num(inst.sum)}")
            lines.append(f"{_prom_sample(prom + '_count', labels)} {inst.count}")
        return "\n".join(lines) + "\n"


class NullRegistry:
    """The zero-overhead disabled registry: every instrument is a no-op."""

    enabled = False
    """Lets hot paths skip label-dict construction when metrics are off."""

    def __len__(self) -> int:
        return 0

    def counter(self, name: str, **labels: str) -> _NullCounter:
        """The shared no-op counter."""
        return _NULL_COUNTER

    def gauge(self, name: str, **labels: str) -> _NullGauge:
        """The shared no-op gauge."""
        return _NULL_GAUGE

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        **labels: str,
    ) -> _NullHistogram:
        """The shared no-op histogram."""
        return _NULL_HISTOGRAM

    def to_dict(self) -> Dict[str, object]:
        """An empty snapshot (keeps the export schema stable)."""
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def to_json(self, indent: int = 2) -> str:
        """Serialize the (empty) snapshot."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_prometheus(self) -> str:
        """An empty exposition document."""
        return "\n"


_NULL_REGISTRY = NullRegistry()
_active: Union[MetricsRegistry, NullRegistry] = _NULL_REGISTRY


def metrics() -> Union[MetricsRegistry, NullRegistry]:
    """The active registry (the no-op one unless somebody enabled metrics)."""
    return _active


def enable_metrics(
    registry: Optional[MetricsRegistry] = None,
) -> MetricsRegistry:
    """Install a live registry (a fresh one by default) and return it."""
    global _active
    _active = registry if registry is not None else MetricsRegistry()
    return _active


def disable_metrics() -> None:
    """Restore the zero-overhead no-op registry."""
    global _active
    _active = _NULL_REGISTRY


@contextmanager
def use_registry(
    registry: Union[MetricsRegistry, NullRegistry],
) -> Iterator[Union[MetricsRegistry, NullRegistry]]:
    """Temporarily install ``registry`` (tests and the diag suite)."""
    global _active
    previous = _active
    _active = registry
    try:
        yield registry
    finally:
        _active = previous


# -- Prometheus rendering helpers ----------------------------------------

_PROM_BAD = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    sanitized = _PROM_BAD.sub("_", name)
    return sanitized if sanitized.startswith("repro_") else f"repro_{sanitized}"


def _prom_sample(name: str, labels: LabelItems, **extra: str) -> str:
    pairs = list(labels) + sorted(extra.items())
    if not pairs:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in pairs)
    return f"{name}{{{inner}}}"


def _prom_num(value: float) -> str:
    as_int = int(value)
    return str(as_int) if value == as_int else repr(float(value))
