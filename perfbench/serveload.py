"""The ``serve`` workload: an open-loop generator against ``repro serve``.

Each iteration starts a :class:`repro.serve.ServeApp` with an empty cache
dir on a thread of this process (one worker thread, see ``WORKERS``) and
replays one seeded arrival schedule over at most ``nproc`` (and at most
two) keep-alive connections.  Arrivals are Poisson; each is one of

* a distinct cold ``/v1/characterize`` query (the server computes it),
* a burst of identical new queries due at the same instant (one leader
  computes, the others coalesce onto it), or
* a repeat of a query first sent at least ``REPEAT_GAP_S`` earlier (a
  warm cache hit).

The loop is open: a request is timed from its due time, so a stall
delays every later request, and time spent waiting for a free connection
counts as lateness (``serve.gen_lag_ms``).  Response bodies are checked
byte for byte against ``run_oneshot`` of the same query after the timed
region.  Server-side figures come from ``/stats`` and
``/debug/requests``.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from spans import highest_percentile, median, percentile
from speed import SpeedProbe
from workloads import Iteration, Tally, new_dir, tier_bytes

DURATION_S = 5.0
RATE_PER_S = 12.0
P_COLD = 0.3
P_BURST = 0.1
BURST = 2
REPEAT_GAP_S = 0.5
POINTS = 1
SIM_REQUESTS = 2000
WORKERS = 1
"""Server worker threads.  The event-simulation kernels share one
module-level scratch arena, so two cold queries computing at once on two
worker threads can corrupt each other's results; one worker keeps every
body equal to ``run_oneshot``."""
LEAD_S = 0.05
DRIVE_TIMEOUT_S = 60.0
HOST = "127.0.0.1"
PATH = "/v1/characterize"


@dataclass(frozen=True)
class Planned:
    """One scheduled request."""

    offset_s: float
    kind: str  # "cold" | "burst" | "repeat"
    query: int


def build_schedule(seed: int) -> Tuple[List[Planned], List[bytes]]:
    """The seeded arrival schedule and the distinct query bodies."""
    from repro.hw.cxl import CXL_DEVICES

    rng = random.Random(seed)
    devices = sorted(CXL_DEVICES)
    bodies: List[bytes] = []
    first_due: List[float] = []
    plan: List[Planned] = []

    def new_query(now: float) -> int:
        body = {
            "device": rng.choice(devices),
            "points": [
                {"offered_gbps": round(rng.uniform(2.0, 20.0), 3)}
                for _ in range(POINTS)
            ],
            "n_requests": SIM_REQUESTS,
            "read_fraction": rng.choice((1.0, 0.7)),
            "seed": rng.randrange(1, 2 ** 31),
        }
        bodies.append(json.dumps(body, sort_keys=True).encode("utf-8"))
        first_due.append(now)
        return len(bodies) - 1

    now = 0.0
    while True:
        now += rng.expovariate(RATE_PER_S)
        if now >= DURATION_S:
            break
        draw = rng.random()
        old = [q for q, due in enumerate(first_due)
               if due <= now - REPEAT_GAP_S]
        if draw < P_COLD or not old:
            plan.append(Planned(now, "cold", new_query(now)))
        elif draw < P_COLD + P_BURST:
            query = new_query(now)
            plan.extend(Planned(now, "burst", query) for _ in range(BURST))
        else:
            plan.append(Planned(now, "repeat", rng.choice(old)))
    return plan, bodies


class Connection:
    """One keep-alive HTTP/1.1 connection (fixed-length bodies only)."""

    def __init__(self, reader, writer, index: int):
        self.reader = reader
        self.writer = writer
        self.index = index

    @classmethod
    async def open(cls, port: int, index: int) -> Tuple["Connection", float]:
        """Connect; returns the connection and its set-up time."""
        start = time.perf_counter()
        reader, writer = await asyncio.open_connection(HOST, port)
        return cls(reader, writer, index), time.perf_counter() - start

    async def request(
        self, method: str, path: str, body: bytes = b""
    ) -> Tuple[int, bytes, float]:
        """One exchange: (status, body, time to first byte)."""
        head = (f"{method} {path} HTTP/1.1\r\nHost: {HOST}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n")
        sent = time.perf_counter()
        self.writer.write(head.encode("latin-1") + body)
        await self.writer.drain()
        status_line = await self.reader.readline()
        ttfb = time.perf_counter() - sent
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        payload = await self.reader.readexactly(length)
        return status, payload, ttfb

    async def close(self) -> None:
        """Close the socket and wait for it."""
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


@dataclass
class Outcome:
    """One finished request."""

    planned: Planned
    status: int
    body: bytes
    due: float
    sent: float
    done: float
    ttfb_s: float
    conn: int


class ServerThread:
    """A ``ServeApp`` running its own event loop on a thread.

    ``ServeApp.serve`` installs signal handlers, which only the main
    thread may do, so this drives the app's ``start``/``stop`` itself.
    """

    def __init__(self, cache_dir: str):
        from repro.serve import ServeApp, ServeConfig

        self.app = ServeApp(ServeConfig(
            host=HOST, port=0, workers=WORKERS, cache_dir=cache_dir,
            log_level="off", drain_s=1.0, flight_capacity=4096,
        ))
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self._done: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self.thread = threading.Thread(
            target=asyncio.run, args=(self._serve(),),
            name="perfbench-server", daemon=True,
        )

    async def _serve(self) -> None:
        self.loop = asyncio.get_running_loop()
        self._done = asyncio.Event()
        try:
            await self.app.start()
            self._ready.set()
            await self._done.wait()
        finally:
            await self.app.stop()

    def _shutdown(self) -> None:
        self.app.request_shutdown()
        self._done.set()

    def start(self, timeout_s: float = 10.0) -> int:
        """Start and wait for the listening port."""
        self.thread.start()
        if not self._ready.wait(timeout_s):
            self.stop()
            raise RuntimeError("server did not start")
        return self.app.port

    def stop(self, timeout_s: float = 15.0) -> None:
        """Request shutdown and wait for the thread to end."""
        if self.loop is not None and self.loop.is_running():
            self.loop.call_soon_threadsafe(self._shutdown)
        self.thread.join(timeout_s)
        if self.thread.is_alive():
            raise RuntimeError("server thread did not stop")


class ServeWorkload:
    """Open-loop characterization traffic against a fresh server."""

    name = "serve"

    def __init__(self, seed: int, workdir: Path, root: Path):
        self.seed = seed
        self.workdir = workdir
        self.tally = Tally()
        self.disk: Dict[str, int] = {}
        self.recorder = None
        self.probe: Optional[SpeedProbe] = None
        """Normalizes each request's latency over its own span; phases
        stay in host seconds, as ``wall_s`` is the schedule's length."""
        self.connections = min(2, os.cpu_count() or 1)
        self._oneshot: Dict[int, bytes] = {}

    def probe_setup(self) -> None:
        """Build the schedule, then start and stop a server."""
        self.schedule, self.bodies = build_schedule(self.seed)
        server = ServerThread(new_dir(self.workdir, "probe"))
        server.start()
        server.stop()

    def prepare(self) -> None:
        """Build the schedule; warm the query path once, outside timing."""
        from repro.serve import run_oneshot

        self.schedule, self.bodies = build_schedule(self.seed)
        run_oneshot(self.bodies[0])

    def iteration(self) -> Iteration:
        """One fresh server, one schedule, then the server's figures."""
        it = Iteration(self.recorder)
        cache_dir = new_dir(self.workdir, "serve")
        server = ServerThread(cache_dir)
        port = server.start()
        try:
            outcomes, connects, figures = asyncio.run(asyncio.wait_for(
                self._drive(port, it), DRIVE_TIMEOUT_S
            ))
        finally:
            server.stop()
        self.disk = tier_bytes(cache_dir)
        self._check(outcomes)
        self._collect(it, outcomes, connects, figures)
        return it

    async def _drive(self, port: int, it: Iteration):
        connections = []
        connects = []
        for index in range(self.connections):
            conn, took = await Connection.open(port, index)
            connections.append(conn)
            connects.append(took)
        try:
            free: asyncio.Queue = asyncio.Queue()
            for conn in connections:
                free.put_nowait(conn)
            start = 0.0

            async def one(planned: Planned) -> Outcome:
                due = start + planned.offset_s
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                conn = await free.get()
                sent = time.perf_counter()
                try:
                    status, body, ttfb = await conn.request(
                        "POST", PATH, self.bodies[planned.query]
                    )
                finally:
                    free.put_nowait(conn)
                return Outcome(planned, status, body, due, sent,
                               time.perf_counter(), ttfb, conn.index)

            with it.phase("schedule"):
                start = time.perf_counter() + LEAD_S
                outcomes = await asyncio.gather(
                    *(one(planned) for planned in self.schedule)
                )
            figures = await self._server_figures_of(connections[0])
        finally:
            for conn in connections:
                await conn.close()
        if self.recorder is not None:
            for outcome in outcomes:
                self.recorder.add(
                    "serve.request", "serve", outcome.sent, outcome.done,
                    thread=f"client-{outcome.conn}",
                    op=outcome.planned.kind, wait=True,
                )
        return outcomes, connects, figures

    async def _server_figures_of(self, conn: Connection) -> Dict:
        """``/stats`` and the flight recorder, after the timed region."""
        _, stats, _ = await conn.request("GET", "/stats")
        _, recent, _ = await conn.request("GET", "/debug/requests?limit=4096")
        events = [
            event for event in json.loads(recent)["requests"]
            if event.get("path") == PATH
        ]
        coalesce_ms = []
        for event in events:
            if event.get("role") != "follower":
                continue
            _, found, _ = await conn.request(
                "GET", f"/debug/requests/{event['request_id']}"
            )
            coalesce_ms.extend(
                span["dur_s"] * 1e3
                for span in _walk(json.loads(found)["spans"])
                if span.get("name") == "coalesce.wait"
            )
        return {"stats": json.loads(stats), "events": events,
                "coalesce_ms": coalesce_ms}

    def _check(self, outcomes: List[Outcome]) -> None:
        """Every body equals ``run_oneshot`` of its query (untimed)."""
        from repro.serve import run_oneshot

        for outcome in outcomes:
            query = outcome.planned.query
            if query not in self._oneshot:
                self._oneshot[query] = run_oneshot(self.bodies[query])
            self.tally.check(
                outcome.status == 200
                and outcome.body == self._oneshot[query],
                f"{outcome.planned.kind} request {query} answered "
                f"{outcome.status} or a body unlike run_oneshot",
            )

    def _collect(self, it: Iteration, outcomes, connects, figures) -> None:
        latency = {kind: [] for kind in ("cold", "burst", "repeat")}
        for outcome in outcomes:
            factor = 1.0 if self.probe is None \
                else self.probe.factor(outcome.due, outcome.done)
            latency[outcome.planned.kind].append(
                (outcome.done - outcome.due) * factor)
        good = sum(1 for o in outcomes if o.status == 200)
        it.add("cold_latency_s", *latency["cold"])
        it.add("warm_latency_s", *latency["repeat"])
        it.add("req_ms", *((o.done - o.due) * 1e3 for o in outcomes))
        it.add("ttfb_ms", *(o.ttfb_s * 1e3 for o in outcomes))
        it.add("lag_ms", *((o.sent - o.due) * 1e3 for o in outcomes))
        it.add("goodput_qps", good / it.wall_s)
        it.add("connect_ms", *(took * 1e3 for took in connects))
        stats = figures["stats"]
        events = figures["events"]
        leaders = [e for e in events if e.get("role") == "leader"]
        cache = stats["cache"]
        it.add("http_parse_ms", *(e["parse_s"] * 1e3 for e in events))
        it.add("queue_wait_ms", *(e["queue_wait_s"] * 1e3 for e in leaders))
        it.add("execute_ms", *(e["exec_s"] * 1e3 for e in leaders))
        it.add("coalesce_wait_ms", *figures["coalesce_ms"])
        it.add("coalesced", stats["jobs"]["coalesced"])
        it.add("cache_hits", cache["memory_hits"] + cache["disk_hits"]
               + cache["store_hits"])
        it.add("rejected", stats["admission"]["rejected"])

    def summarize(self, pooled: Dict[str, List[float]]) -> Dict[str, float]:
        """End-to-end and server figures from the pooled samples."""
        req = pooled["req_ms"]
        if (highest_percentile(len(req)) or 0.0) < 90.0:
            self.tally.check(False, f"only {len(req)} requests for p90")
        cold_s = median(pooled["cold_latency_s"])

        def med(name: str) -> float:
            values = pooled.get(name) or [0.0]
            return median(values)

        return {
            "cold_s": cold_s,
            "warm_s": median(pooled["warm_latency_s"]),
            "cells_per_s": POINTS / cold_s,
            "req_p50_ms": median(req),
            "req_p90_ms": percentile(req, 90.0),
            "req_samples": len(req),
            "goodput_qps": median(pooled["goodput_qps"]),
            "serve.connect_ms": med("connect_ms"),
            "serve.ttfb_ms": med("ttfb_ms"),
            "serve.http_parse_ms": med("http_parse_ms"),
            "serve.queue_wait_ms": med("queue_wait_ms"),
            "serve.coalesce_wait_ms": med("coalesce_wait_ms"),
            "serve.execute_ms": med("execute_ms"),
            "serve.coalesced": med("coalesced"),
            "serve.cache_hits": med("cache_hits"),
            "serve.rejected": med("rejected"),
            "serve.gen_lag_ms": max(pooled["lag_ms"]),
        }


def _walk(nodes):
    """Every span of a ``/debug/requests/<id>`` span tree."""
    for node in nodes:
        yield node
        yield from _walk(node.get("children", ()))
