"""The traced run: wrap each layer's public entry points in spans.

:class:`LayerTracer` patches library functions and methods for the
duration of one ``with`` block and restores the originals on exit; it
never edits library files.  Every wrapped call becomes a span of its
layer in a :class:`~spans.SpanRecorder`, and the counters a layer metric
needs are taken at the same boundary.  :func:`layer_metrics` turns the
recording into the per-layer metrics.

Layers and the entry points wrapped (module names under ``repro``):

* ``cli``        -- ``cli.main`` (the ``repro`` command itself)
* ``melody``     -- ``core.melody.Melody.run``
* ``executor``   -- ``runtime.executor.CampaignEngine.run_cells``
* ``pipeline``   -- ``cpu.pipeline.run_workload`` (as the executor calls it)
* ``eventsim``   -- ``hw.cxl.eventdevice``: ``EventDrivenDevice.simulate``,
  ``simulate_batch``
* ``cache``      -- ``runtime.cache.RunCache``: ``get``, ``put``,
  ``put_memory``, ``promote_store``
* ``checkpoint`` -- ``runtime.checkpoint.Checkpointer.write``
* ``store``      -- ``store``: ``ResultStore.get``/``get_result``/
  ``query_rows``, ``StoreWriter.add``/``commit``, ``Manifest.load``
* ``dataset``    -- ``core.dataset.export_csv``/``export_json``
* ``dist``       -- ``dist.harness.run_dist_campaign`` (a wait),
  ``dist.worker.Worker.run``, ``dist.frames.FrameTransport.send`` and
  ``recv`` (a wait), ``dist.lease.LeaseTable.acquire``/``commit``
* ``serve``      -- ``serve.app.execute_query`` on the server's worker
  threads; the load generator adds one wait span per client request.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from spans import Span, SpanRecorder, attribute, median

LAYERS = (
    "cli", "melody", "executor", "pipeline", "eventsim", "cache",
    "checkpoint", "store", "dataset", "serve", "dist",
)

_ENGINE_COUNTS = {
    "cells_run": "executor.cells_run",
    "cells_cached": "executor.cells_cached",
    "cells_batched": "executor.cells_batched",
    "planner_serial": "executor.plan.serial",
    "planner_batch": "executor.plan.batch",
    "planner_pool": "executor.plan.pool",
}
_CACHE_COUNTS = ("memory_hits", "disk_hits", "store_hits", "misses")


class LayerTracer:
    """Context manager installing the span wrappers of every layer."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._undo: List[Tuple[object, str, object]] = []
        self._grants: Dict[str, float] = {}
        self._local = threading.local()

    # -- patching --------------------------------------------------------

    def _patch(
        self,
        owner,
        attr: str,
        layer: str,
        wait: bool = False,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> None:
        raw = vars(owner)[attr]
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) \
            else None
        fn = raw.__func__ if kind is not None else raw
        recorder = self.recorder
        name = f"{layer}.{fn.__name__}"

        def wrapper(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            state = before(args, kwargs) if before is not None else None
            token = recorder.begin()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = recorder.end(token, name, layer, wait)
            if after is not None:
                after(state, args, kwargs, result, span)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)
        self._undo.append((owner, attr, raw))

    def __enter__(self) -> "LayerTracer":
        import repro.cli
        from repro.core import dataset
        from repro.core.melody import Melody
        from repro.dist import harness
        from repro.dist.frames import FrameTransport
        from repro.dist.lease import LeaseTable
        from repro.dist.worker import Worker
        from repro.hw.cxl import eventdevice
        from repro.runtime import executor
        from repro.runtime.cache import RunCache
        from repro.runtime.checkpoint import Checkpointer
        from repro.serve import app
        from repro.store.manifest import Manifest
        from repro.store.store import ResultStore, StoreWriter

        count = self.recorder.count
        p = self._patch
        p(repro.cli, "main", "cli")
        p(Melody, "run", "melody")
        p(executor.CampaignEngine, "run_cells", "executor",
          before=_engine_before, after=self._engine_after)
        p(executor, "run_workload", "pipeline",
          after=lambda *_: count("pipeline.calls"))
        p(eventdevice.EventDrivenDevice, "simulate", "eventsim",
          after=lambda s, a, k, r, sp: count("eventsim.requests", a[1]))
        p(eventdevice, "simulate_batch", "eventsim",
          after=lambda s, a, k, r, sp: count(
              "eventsim.requests", sum(point[1] for point in a[0])))
        p(RunCache, "get", "cache", before=_cache_before,
          after=self._cache_after)
        for attr in ("put", "put_memory"):
            p(RunCache, attr, "cache",
              after=lambda *_: count("cache.puts"))
        p(RunCache, "promote_store", "cache")
        p(Checkpointer, "write", "checkpoint",
          after=lambda *_: count("checkpoint.saves"))
        for attr in ("get", "get_result", "query_rows"):
            p(ResultStore, attr, "store")
        for attr in ("add", "commit"):
            p(StoreWriter, attr, "store")
        p(Manifest, "load", "store")
        for attr in ("export_csv", "export_json"):
            p(dataset, attr, "dataset", after=_export_after(count))
        p(harness, "run_dist_campaign", "dist", wait=True)
        p(Worker, "run", "dist", before=self._worker_before,
          after=self._worker_after)
        p(FrameTransport, "send", "dist", after=self._send_after)
        p(FrameTransport, "recv", "dist", wait=True)
        p(LeaseTable, "acquire", "dist", after=self._acquire_after)
        p(LeaseTable, "commit", "dist", after=self._commit_after)
        p(app, "execute_query", "serve")
        return self

    def __exit__(self, *exc_info) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # -- boundary counters -------------------------------------------------

    def _engine_after(self, before, args, kwargs, result, span) -> None:
        stats = args[0].stats
        for field, metric in _ENGINE_COUNTS.items():
            self.recorder.count(metric, getattr(stats, field) - before[field])

    def _cache_after(self, before, args, kwargs, result, span) -> None:
        cache = args[0]
        self.recorder.count("cache.gets")
        for field in _CACHE_COUNTS:
            delta = getattr(cache, field) - before[field]
            if delta > 0:
                self.recorder.count(f"cache.{field}", delta)

    def _worker_before(self, args, kwargs):
        self._local.worker_start = time.perf_counter()
        self._local.connected = False
        return None

    def _worker_after(self, state, args, kwargs, result, span) -> None:
        self.recorder.count("dist.worker_wall_s", span.duration)

    def _send_after(self, state, args, kwargs, seq, span) -> None:
        from repro.dist.frames import encode_frame

        message = args[1]
        self.recorder.count("dist.frames")
        self.recorder.count(
            "dist.frame_bytes", len(encode_frame(dict(message, seq=seq)))
        )
        kind = message.get("type")
        start = getattr(self._local, "worker_start", None)
        if kind == "fetch" and start is not None \
                and not getattr(self._local, "connected", True):
            self._local.connected = True
            self.recorder.count("dist.connect_s", span.start - start)
        elif kind == "result" and message.get("status") == "ok":
            self.recorder.count(
                "dist.worker_exec_s", float(message.get("elapsed_s", 0.0))
            )

    def _acquire_after(self, state, args, kwargs, lease, span) -> None:
        if lease is not None:
            self._grants[lease.lease_id] = span.end

    def _commit_after(self, state, args, kwargs, verdict, span) -> None:
        granted = self._grants.pop(args[2], None)
        if granted is not None:
            self.recorder.sample("dist.unit_rtt_ms",
                                 (span.end - granted) * 1e3)


def _engine_before(args, kwargs) -> Dict[str, int]:
    stats = args[0].stats
    return {field: getattr(stats, field) for field in _ENGINE_COUNTS}


def _cache_before(args, kwargs) -> Dict[str, int]:
    cache = args[0]
    return {field: getattr(cache, field) for field in _CACHE_COUNTS}


def _export_after(count):
    def after(state, args, kwargs, result, span) -> None:
        count("dataset.export_bytes", os.path.getsize(args[1]))

    return after


def _inclusive(spans: Sequence[Span], names: Sequence[str]) -> float:
    """Summed duration of the spans named ``names`` that no other span of
    those names encloses (so nested calls are not counted twice)."""
    wanted = set(names)
    by_id = {span.span_id: span for span in spans}
    total = 0.0
    for span in spans:
        if span.name not in wanted:
            continue
        parent = by_id.get(span.parent)
        nested = False
        while parent is not None:
            if parent.name in wanted:
                nested = True
                break
            parent = by_id.get(parent.parent)
        if not nested:
            total += span.duration
    return total


def layer_metrics(
    recorder: SpanRecorder, windows: Sequence[Tuple[float, float]]
) -> Tuple[Dict[str, float], Dict[int, float]]:
    """Per-layer metrics of one traced iteration, and the self times.

    ``windows`` are the timed phases of the traced iteration; their
    summed length is the traced wall time (host seconds) that the layer
    self times plus ``trace.unattributed_s`` add up to.
    """
    spans = list(recorder.spans)
    self_time, unattributed = attribute(spans, windows)
    wall = sum(hi - lo for lo, hi in windows)
    counts = recorder.counts
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            self_time.get(span.span_id, 0.0)
            for span in spans if span.layer == layer
        )

    def incl(*names: str) -> float:
        return _inclusive(spans, names)

    out["pipeline.calls"] = counts["pipeline.calls"]
    out["pipeline.s"] = incl("pipeline.run_workload")
    out["executor.run_cells_s"] = incl("executor.run_cells")
    for metric in _ENGINE_COUNTS.values():
        out[metric] = counts[metric]
    out["eventsim.simulate_s"] = incl("eventsim.simulate")
    out["eventsim.simulate_batch_s"] = incl("eventsim.simulate_batch")
    requests = counts["eventsim.requests"]
    out["eventsim.requests"] = requests
    eventsim_s = incl("eventsim.simulate", "eventsim.simulate_batch")
    out["eventsim.host_ns_per_req"] = (
        eventsim_s / requests * 1e9 if requests else 0.0
    )
    out["cache.get_s"] = incl("cache.get")
    out["cache.put_s"] = incl("cache.put", "cache.put_memory")
    out["cache.gets"] = counts["cache.gets"]
    out["cache.puts"] = counts["cache.puts"]
    hits = 0
    for field in ("memory_hits", "disk_hits", "store_hits"):
        out[f"cache.{field}"] = counts[f"cache.{field}"]
        hits += counts[f"cache.{field}"]
    out["cache.hit_base"] = counts["cache.gets"]
    out["cache.hit_ratio"] = (
        hits / counts["cache.gets"] if counts["cache.gets"] else 0.0
    )
    out["cache.promote_s"] = incl("cache.promote_store")
    out["checkpoint.saves"] = counts["checkpoint.saves"]
    out["checkpoint.save_s"] = incl("checkpoint.write")
    out["store.open_s"] = incl("store.load")
    out["store.get_s"] = incl("store.get", "store.get_result")
    out["store.query_rows_s"] = incl("store.query_rows")
    out["store.write_s"] = incl("store.add", "store.commit")
    out["dataset.export_s"] = incl("dataset.export_csv",
                                   "dataset.export_json")
    out["dataset.export_bytes"] = counts["dataset.export_bytes"]
    rtts = recorder.samples.get("dist.unit_rtt_ms", [])
    out["dist.connect_s"] = counts["dist.connect_s"]
    out["dist.unit_rtt_ms"] = median(rtts) if rtts else 0.0
    out["dist.frames"] = counts["dist.frames"]
    out["dist.frame_bytes"] = counts["dist.frame_bytes"]
    out["dist.worker_exec_s"] = counts["dist.worker_exec_s"]
    worker_wall = counts["dist.worker_wall_s"]
    out["dist.idle_frac"] = (
        1.0 - counts["dist.worker_exec_s"] / worker_wall
        if worker_wall else 0.0
    )
    out["trace.wall_s"] = wall
    out["trace.unattributed_s"] = unattributed
    out["trace.unattributed_frac"] = unattributed / wall if wall else 0.0
    out["trace.spans"] = len(spans)
    return out, self_time
