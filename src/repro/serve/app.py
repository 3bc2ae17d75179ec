"""The ``repro serve`` application: event loop, worker pool, lifecycle.

Architecture (one paragraph): a single asyncio event loop owns every
piece of shared mutable state -- the coalescer's in-flight map, the
admission counters, the per-job event fan-out -- so none of it needs
locks.  Actual characterization work happens in a small
:class:`~concurrent.futures.ThreadPoolExecutor`: each leader job builds
a throwaway :class:`~repro.runtime.executor.CampaignEngine` (inline
resilient mode) over the server's one shared
:class:`~repro.runtime.cache.RunCache`, installs the query's fault plan
and chaos policy into its own context (ContextVars, so neighbours are
untouched), and runs the sweep point by point, posting progress back to
the loop with ``call_soon_threadsafe``.  The thread-safe pieces the
worker threads *do* share -- the run cache and the metrics registry --
are exactly the ones the concurrency sweep hardened (see DESIGN.md).

Lifecycle: ``SIGTERM``/``SIGINT`` stop the accept loop, in-flight jobs
get ``drain_s`` seconds to finish, open connections are then closed,
and the process exits 0.  A poisoned query (chaos, doomed cells)
degrades its own response document; it cannot take the server down.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Union

from repro.errors import ConfigurationError
from repro.obs.events import (
    LEVELS,
    EventLogger,
    NullEventLogger,
    build_event,
)
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import (
    MetricsRegistry,
    disable_metrics,
    enable_metrics,
    metrics,
)
from repro.obs.slo import SloTracker
from repro.obs.trace import TraceBuffer, TraceContext, thread_tracing
from repro.runtime.cache import RunCache
from repro.serve.admission import AdmissionController
from repro.serve.coalescer import Coalescer, Job
from repro.serve.handlers import (
    error_body,
    handle_request,
    respond_draining,
)
from repro.serve.protocol import ProtocolError, Request, read_request, \
    write_response
from repro.serve.query import Query, build_engine, execute_query, \
    render_document
from repro.serve.telemetry import (
    RequestTelemetry,
    level_for_status,
    merge_job_buffer,
    span_record,
)


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of one server instance (the CLI flags, as data)."""

    host: str = "127.0.0.1"
    port: int = 8080
    workers: int = 4
    max_inflight: int = 0
    """Leader jobs executing at once; 0 means "same as workers"."""
    max_queue: int = 32
    per_tenant: int = 16
    cell_retries: int = 2
    cell_timeout: Optional[float] = None
    cache_dir: Optional[str] = None
    allow_chaos: bool = False
    drain_s: float = 5.0
    log_level: str = "info"
    """Wide-event log threshold (``off`` disables the ndjson log; the
    flight recorder and SLO tracker keep working regardless)."""
    event_log: Optional[str] = None
    """Append the ndjson event log here instead of stdout."""
    event_sample: int = 1
    """Keep every Nth request wide event (lifecycle events always kept)."""
    trace_path: Optional[str] = None
    """Write a merged Perfetto trace (serve + runtime + simulator spans)
    here on shutdown; also enables per-job simulator tracing."""
    trace_sample: int = 1
    """Per-job simulator trace sampling (every Nth simulated request)."""
    flight_capacity: int = 256
    """How many recent requests ``/debug/requests`` remembers."""
    slo_window_s: float = 300.0
    """Rolling window of the latency/error-budget SLO tracker."""

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ConfigurationError(
                "port must be 0-65535 (0 picks an ephemeral port)"
            )
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if self.max_inflight < 0:
            raise ConfigurationError("max_inflight must be >= 0")
        if self.max_queue < 1 or self.per_tenant < 1:
            raise ConfigurationError("admission limits must be >= 1")
        if self.cell_retries < 1:
            raise ConfigurationError("cell_retries must be >= 1")
        if self.drain_s < 0:
            raise ConfigurationError("drain_s must be >= 0")
        if self.log_level != "off" and self.log_level not in LEVELS:
            raise ConfigurationError(
                f"log_level must be one of {sorted(LEVELS)} or 'off', "
                f"got {self.log_level!r}"
            )
        if self.event_sample < 1 or self.trace_sample < 1:
            raise ConfigurationError("sampling rates must be >= 1")
        if self.flight_capacity < 1:
            raise ConfigurationError("flight_capacity must be >= 1")
        if self.slo_window_s <= 0:
            raise ConfigurationError("slo_window_s must be > 0")

    @property
    def effective_inflight(self) -> int:
        return self.max_inflight or self.workers


class ServeApp:
    """One characterization-as-a-service instance."""

    def __init__(self, config: ServeConfig = ServeConfig()):
        self.config = config
        self.cache = RunCache(config.cache_dir)
        self.coalescer = Coalescer()
        self.admission = AdmissionController(
            max_inflight=config.effective_inflight,
            max_queue=config.max_queue,
            per_tenant=config.per_tenant,
        )
        self.registry = MetricsRegistry()
        self.events: Union[EventLogger, NullEventLogger] = NullEventLogger()
        self.flight = FlightRecorder(config.flight_capacity)
        self.slo = SloTracker(window_s=config.slo_window_s)
        self.trace: Optional[TraceBuffer] = (
            TraceBuffer() if config.trace_path is not None else None
        )
        self.requests = 0
        self.port: Optional[int] = None
        self._started_at = time.monotonic()
        self._epoch = time.perf_counter()
        self._previous_registry = None
        self._event_file = None
        self._next_wall_track = 1
        self._next_sim_track = 0
        self._executor: Optional[ThreadPoolExecutor] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[asyncio.StreamWriter] = set()
        self._conn_tasks: Set[asyncio.Task] = set()
        self._stop = asyncio.Event()

    # -- request observability ---------------------------------------------

    def telemetry_for(self, request: Request) -> RequestTelemetry:
        """One request's telemetry: trace context + span collector.

        A valid ``traceparent`` header continues the caller's trace
        (their span becomes our parent); anything else starts a fresh
        one.  Ids come from ``os.urandom`` -- observational only.
        """
        ctx = TraceContext.from_traceparent(request.header("traceparent"))
        if ctx is None:
            ctx = TraceContext.generate()
        return RequestTelemetry(
            ctx=ctx,
            zero=self._epoch,
            peer=request.peer,
            parse_s=request.parse_s,
        )

    def wall_track_for(self, telemetry: RequestTelemetry) -> int:
        """The request's row in the merged wall-clock trace timeline."""
        if telemetry.wall_track is None:
            telemetry.wall_track = self._next_wall_track
            self._next_wall_track += 1
        return telemetry.wall_track

    def observe_request(
        self, request: Request, telemetry: RequestTelemetry
    ) -> None:
        """Seal one finished request: wide event, flight, SLO, metrics.

        This is the single exit point of every request, whatever route
        or error path it took.  Everything here reads timings and
        statuses -- the response bytes are already on the wire.
        """
        total_s = time.perf_counter() - telemetry.started
        telemetry.close(total_s)
        record = build_event(
            "request",
            level=level_for_status(telemetry.status),
            **telemetry.wide_fields(request.method, request.path, total_s),
        )
        self.events.write(record, sampled=True)
        self.flight.record(record, telemetry.spans)
        error = telemetry.status >= 500 or telemetry.status == 0
        endpoint = f"{request.method} {request.path}"
        self.slo.observe(endpoint, total_s, error=error)
        self.slo.observe(
            f"tenant:{telemetry.tenant}", total_s, error=error
        )
        registry = metrics()
        if registry.enabled:
            registry.histogram(
                "serve.request_seconds",
                path=request.path, status=str(telemetry.status),
            ).observe(total_s)
            if telemetry.exec_s > 0:
                registry.histogram(
                    "serve.exec_seconds", path=request.path
                ).observe(telemetry.exec_s)
        if self.trace is not None:
            telemetry.merge_into(self.trace, self.wall_track_for(telemetry))

    # -- job execution -----------------------------------------------------

    def _run_query(
        self, query: Query, on_point, buffer, parent_span_id: str,
        cell_spans: List[Dict[str, object]],
    ) -> tuple:
        """Worker-thread body: execute one query, render its bytes.

        A fresh engine per job keeps failure state (quarantine ledger,
        retry policy) job-local while the shared cache still makes every
        job's results visible to the next one.  ``buffer`` (when the
        server traces) becomes this thread's private
        :class:`TraceBuffer` -- concurrent jobs never interleave spans --
        and each finished point leaves one ``cell[i]`` span record.
        """
        engine = build_engine(
            cache=self.cache,
            retries=self.config.cell_retries,
            timeout_s=self.config.cell_timeout,
        )
        mark = [time.perf_counter()]

        def timed_on_point(index: int, doc: dict) -> None:
            now = time.perf_counter()
            cell_spans.append(span_record(
                f"cell[{index}]", "serve.cell", mark[0], now, self._epoch,
                parent_id=parent_span_id,
                offered_gbps=doc["offered_gbps"],
                ok="error" not in doc,
            ))
            mark[0] = now
            on_point(index, doc)

        with contextlib.ExitStack() as stack:
            if buffer is not None:
                stack.enter_context(thread_tracing(buffer))
            document = execute_query(query, engine, timed_on_point)
        stats = engine.stats
        meta = {
            "cells_run": stats.cells_run,
            "cells_cached": stats.cells_cached,
            "cells_from_store": stats.cells_from_store,
            "cells_retried": stats.cells_retried,
            "cells_quarantined": stats.cells_quarantined,
            "errors": document["errors"],
        }
        return render_document(document), meta

    async def execute_job(
        self, query: Query, job: Job, telemetry: RequestTelemetry
    ) -> bytes:
        """Leader coroutine: slot, worker thread, progress, telemetry."""
        job.leader_request_id = telemetry.request_id
        job.leader_trace_id = telemetry.ctx.trace_id
        queued = time.perf_counter()
        await self.admission.acquire_slot()
        queue_wait = time.perf_counter() - queued
        telemetry.add_span("queue.wait", "serve", queued, queued + queue_wait)
        loop = asyncio.get_running_loop()
        total = len(query.points)
        exec_ctx = telemetry.ctx.child()

        def on_point(index: int, doc: dict) -> None:
            # Called from the worker thread after each finished point.
            loop.call_soon_threadsafe(job.post, {
                "event": "point",
                "index": index,
                "of": total,
                "offered_gbps": doc["offered_gbps"],
                "ok": "error" not in doc,
            })
            if self.events.enabled:
                self.events.emit(
                    "cell", level="debug", sampled=True,
                    request_id=telemetry.request_id,
                    trace_id=telemetry.ctx.trace_id,
                    query_key=job.key,
                    device=query.device,
                    index=index, of=total,
                    offered_gbps=doc["offered_gbps"],
                    ok="error" not in doc,
                )

        buffer = (
            TraceBuffer(sample_every=self.config.trace_sample)
            if self.trace is not None else None
        )
        cell_spans: List[Dict[str, object]] = []
        meta: Dict[str, object] = {}
        start = time.perf_counter()
        try:
            body, meta = await loop.run_in_executor(
                self._executor, self._run_query, query, on_point,
                buffer, exec_ctx.span_id, cell_spans,
            )
            return body
        finally:
            self.admission.release_slot()
            exec_s = time.perf_counter() - start
            telemetry.queue_wait_s = queue_wait
            telemetry.exec_s = exec_s
            telemetry.extra.update(meta)
            telemetry.add_span(
                "execute", "serve", start, start + exec_s,
                span_id=exec_ctx.span_id, query_key=job.key,
            )
            telemetry.spans.extend(cell_spans)
            job.meta = {
                "queue_wait_s": round(queue_wait, 6),
                "exec_s": round(exec_s, 6),
                **meta,
            }
            if buffer is not None and self.trace is not None:
                self._next_sim_track += merge_job_buffer(
                    self.trace, buffer,
                    trace_id=telemetry.ctx.trace_id,
                    request_id=telemetry.request_id,
                    wall_track=self.wall_track_for(telemetry),
                    sim_track_base=self._next_sim_track,
                )
            registry = metrics()
            if registry.enabled:
                registry.histogram("serve.job_seconds").observe(exec_s)

    # -- operational snapshot ----------------------------------------------

    def stats_document(self) -> dict:
        """The ``GET /stats`` payload."""
        return {
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "requests": self.requests,
            "jobs": {
                "inflight": len(self.coalescer),
                "started": self.coalescer.leads,
                "coalesced": self.coalescer.coalesced,
            },
            "admission": {
                "active": self.admission.active,
                "queued": self.admission.queued,
                "rejected": self.admission.rejected,
                "max_inflight": self.admission.max_inflight,
                "max_queue": self.admission.max_queue,
                "per_tenant": self.admission.per_tenant,
            },
            "cache": {
                "entries": len(self.cache),
                "memory_hits": self.cache.memory_hits,
                "disk_hits": self.cache.disk_hits,
                "store_hits": self.cache.store_hits,
                "misses": self.cache.misses,
                "stores": self.cache.stores,
                "store": (
                    self.cache.store.stats()
                    if self.cache.store is not None else None
                ),
            },
            "slo": self.slo.snapshot(),
            "flight": self.flight.stats(),
            "events": self.events.stats(),
        }

    # -- connection handling -----------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peername = writer.get_extra_info("peername")
        peer = f"{peername[0]}:{peername[1]}" if peername else "?"
        self._connections.add(writer)
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while True:
                try:
                    request = await read_request(reader, peer=peer)
                except ProtocolError as exc:
                    self.events.emit(
                        "protocol.error", level="warn",
                        peer=peer, status=exc.status, message=str(exc),
                    )
                    write_response(
                        writer, exc.status,
                        error_body(exc.status, str(exc)),
                        keep_alive=False,
                    )
                    await writer.drain()
                    return
                if request is None:
                    return
                if self._stop.is_set():
                    # Shutdown began while this request was in flight on
                    # the wire: answer 503 + Retry-After instead of
                    # resetting the connection under the client.
                    await respond_draining(self, request, writer)
                    await writer.drain()
                    return
                keep = await handle_request(self, request, writer)
                await writer.drain()
                if not keep or not request.keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError) as exc:
            # Client went away mid-exchange; nothing to answer, but the
            # disappearance itself is a debug-level fact worth keeping.
            self.events.emit(
                "conn.error", level="debug",
                peer=peer, reason=type(exc).__name__,
            )
        except asyncio.CancelledError:
            # Shutdown cancelled this handler; exiting quietly here (not
            # re-raising) keeps asyncio's stream-protocol callback from
            # logging a spurious traceback per idle connection.
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            self._connections.discard(writer)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket, install the registry, spin up the workers."""
        self._previous_registry = metrics()
        enable_metrics(self.registry)
        if self.config.log_level != "off":
            sink = sys.stdout
            if self.config.event_log is not None:
                self._event_file = open(
                    self.config.event_log, "a", encoding="utf-8"
                )
                sink = self._event_file
            self.events = EventLogger(
                sink=sink,
                level=self.config.log_level,
                sample_every=self.config.event_sample,
            )
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="repro-serve",
        )
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Drain jobs, close connections, restore the registry."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.drain_s
        if self._server is not None:
            self._server.close()
            with contextlib.suppress(Exception):
                await self._server.wait_closed()
        leftovers = await self.coalescer.drain(self.config.drain_s)
        if self._executor is not None:
            self._executor.shutdown(
                wait=leftovers == 0, cancel_futures=True
            )
        # Grace window: a keep-alive client whose next request is
        # already on the wire gets the 503-draining answer instead of a
        # reset.  Handlers exit on their own after responding (or when
        # their client closes); only stragglers are cancelled below.
        remaining = deadline - loop.time()
        if self._conn_tasks and remaining > 0:
            await asyncio.wait(list(self._conn_tasks), timeout=remaining)
        for writer in list(self._connections):
            writer.close()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.wait(list(self._conn_tasks), timeout=1.0)
        if self.trace is not None and self.config.trace_path is not None:
            self.trace.write(self.config.trace_path)
        if isinstance(self._previous_registry, MetricsRegistry):
            enable_metrics(self._previous_registry)
        else:
            disable_metrics()

    def _close_event_log(self) -> None:
        """Release the event-log file (after the last lifecycle event)."""
        if self._event_file is not None:
            with contextlib.suppress(Exception):
                self._event_file.close()
            self._event_file = None

    def request_shutdown(self) -> None:
        """Ask the serve loop to exit (signal handlers land here)."""
        self._stop.set()

    async def serve(self) -> None:
        """Run until SIGTERM/SIGINT (or :meth:`request_shutdown`)."""
        await self.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, ValueError):
                loop.add_signal_handler(signum, self.request_shutdown)
        self.events.emit(
            "server.start",
            host=self.config.host,
            port=self.port,
            url=f"http://{self.config.host}:{self.port}",
            workers=self.config.workers,
            slots=self.admission.max_inflight,
            queue=self.admission.max_queue,
        )
        try:
            await self._stop.wait()
        finally:
            await self.stop()
            stats = self.stats_document()
            self.events.emit(
                "server.stop",
                requests=stats["requests"],
                jobs=stats["jobs"]["started"],
                coalesced=stats["jobs"]["coalesced"],
            )
            self._close_event_log()

    def run(self) -> int:
        """Blocking entry point (the CLI's ``repro serve``)."""
        asyncio.run(self.serve())
        return 0


def render_oneshot_banner(body: bytes) -> str:  # pragma: no cover - trivial
    """Human summary of a ``--oneshot`` result (stderr side channel)."""
    import json as _json

    doc = _json.loads(body)
    return (
        f"query {doc.get('query_key', '?')[:12]}: "
        f"{len(doc.get('points', []))} point(s), "
        f"{doc.get('errors', 0)} error(s)"
    )
