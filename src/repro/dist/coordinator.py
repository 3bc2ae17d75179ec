"""The fault-tolerant campaign coordinator (the ``repro coordinate`` brain).

One coordinator owns one campaign.  It splits the campaign into
:class:`~repro.dist.lease.WorkUnit` cells, commits at once every unit
whose result the shared run cache already holds (a solo run never
re-runs a cache hit either), listens on a TCP port, and hands the rest
to whatever workers connect under time-bounded leases.  Everything a
flaky fleet can do is survivable by construction:

* a worker that stops heartbeating gets its socket closed, which
  releases its leases (attempt charged) for reassignment to live peers;
* a worker that hangs mid-cell loses the lease at its deadline;
* a worker that errors reports the failure, and the unit retries behind
  the seeded :class:`~repro.runtime.executor.RetryPolicy` backoff until
  its budget quarantines it into a PR 5 ``FailedCell`` record -- the
  campaign always completes, degraded at worst, never wedged;
* duplicate and late deliveries fold into the at-most-once commit of
  :class:`~repro.dist.lease.LeaseTable` (digest-checked), so network
  chaos can waste work but never change what lands in the cache.

Results commit into the shared :class:`~repro.runtime.cache.RunCache`
via the bit-faithful JSON codec, the final checkpoint (the quarantine
ledger) is written through :mod:`repro.runtime.checkpoint`, and
committed runs promote into the columnar store -- after which a plain
``repro campaign --resume`` pass over the same cache dir assembles
exports byte-identical to a solo run.  That equivalence is the contract
the ``dist`` diag layer enforces.

Threading model: an accept thread spawns one thread per worker
connection; a monitor thread drives lease expiry and liveness; the
:class:`~repro.dist.lease.LeaseTable` and connection registry are
guarded by one lock.  The table's clock is injectable for tests.
"""

from __future__ import annotations

import hashlib
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.dist.frames import (
    FrameError,
    FrameTransport,
    InOrderChannel,
    encode_payload,
)
from repro.dist.lease import Lease, LeaseTable, WorkUnit
from repro.dist.spec import CampaignSpec
from repro.errors import MelodyError
from repro.obs.events import events
from repro.obs.metrics import metrics
from repro.runtime.executor import FailedCell, RetryPolicy

PROTOCOL_VERSION = 2
"""Bump on any incompatible frame/message change (2: batched grants)."""

MAX_GRANT = 32
"""Most leases one ``grant`` frame carries."""

DEFAULT_LEASE_S = 30.0
DEFAULT_HEARTBEAT_S = 2.0
LIVENESS_MULTIPLE = 3.0
"""Missed-heartbeat budget: silence beyond this many intervals is death."""

_TICK_S = 0.05
"""Monitor cadence; also bounds how stale expiry checks can be."""


def grid_token(fingerprint: str, workload: str, target: str) -> str:
    """Unit id of one (workload, target) grid cell."""
    return f"{fingerprint}\x1f{workload}\x1f{target}"


def baseline_token(fingerprint: str, workload: str) -> str:
    """Unit id of one workload's baseline cell."""
    return f"{fingerprint}\x1f{workload}\x1fbaseline\x00"


def campaign_units(campaign, fingerprint: str) -> List[WorkUnit]:
    """Flatten one campaign into leasable units, baselines first.

    Exactly the cells :func:`repro.core.melody.campaign_cells` plans for
    a solo run (capacity skips never become units).  Unit ids fold the
    campaign fingerprint with the cell's names, so the coordinator and
    every worker -- in any process, on any host -- compute the same ids,
    and two campaigns never share one.
    """
    from repro.core.melody import campaign_cells
    from repro.runtime.cache import run_key

    base_workloads, grid, _ = campaign_cells(campaign)
    baseline_target = campaign.baseline or campaign.platform.local_target()
    units: List[WorkUnit] = []
    for workload in base_workloads:
        units.append(WorkUnit(
            unit_id=baseline_token(fingerprint, workload.name),
            kind="baseline",
            workload=workload.name,
            target=baseline_target.name,
            key=run_key(workload, campaign.platform, baseline_target,
                        campaign.config),
            platform=campaign.platform.name,
        ))
    for workload, target in grid:
        units.append(WorkUnit(
            unit_id=grid_token(fingerprint, workload.name, target.name),
            kind="grid",
            workload=workload.name,
            target=target.name,
            key=run_key(workload, campaign.platform, target,
                        campaign.config),
            platform=campaign.platform.name,
        ))
    return units


def grant_size(pending: int, workers: int) -> int:
    """Leases to put in the next grant: a fair share, capped.

    At most half of an even split of the pending units across the
    connected workers (so a late joiner still finds work), at most
    :data:`MAX_GRANT`, at least one.  Grants shrink as the campaign
    drains, which keeps the tail balanced across workers.
    """
    share = -(-pending // (2 * max(workers, 1)))
    return max(1, min(MAX_GRANT, share))


def result_digest(doc: dict) -> str:
    """Digest of one result document's canonical bytes.

    Both sides of a duplicate delivery re-encode the *decoded* document,
    so framing differences can never fake a conflict.
    """
    return hashlib.sha256(encode_payload(doc)).hexdigest()


@dataclass
class DistSummary:
    """What one coordinated campaign run amounted to."""

    fingerprint: str
    units: int
    committed: int
    quarantined: List[FailedCell]
    duplicates: int
    late_commits: int
    conflicts: List[Dict[str, str]]
    expired: int
    released: int
    workers_seen: int
    complete: bool
    counters: Dict[str, int] = field(default_factory=dict)

    def render(self) -> str:
        """Human summary for the ``repro coordinate`` epilogue."""
        lines = [
            f"campaign {self.fingerprint[:12]}: "
            f"{self.committed}/{self.units} units committed, "
            f"{len(self.quarantined)} quarantined "
            f"({self.workers_seen} worker connection(s))",
            f"  leases: {self.counters.get('granted', 0)} granted, "
            f"{self.expired} expired, {self.released} released on "
            f"disconnect",
            f"  commits: {self.duplicates} duplicate(s), "
            f"{self.late_commits} late, {len(self.conflicts)} "
            f"conflict(s)",
        ]
        if not self.complete:
            lines.append("  INCOMPLETE: stopped before every unit "
                         "settled")
        return "\n".join(lines)


class _Connection:
    """Per-worker-connection state the coordinator tracks."""

    __slots__ = ("transport", "name", "peer", "last_seen", "goodbye")

    def __init__(self, transport: FrameTransport, peer: str,
                 now: float):
        self.transport = transport
        self.name = ""
        self.peer = peer
        self.last_seen = now
        self.goodbye = False

    @property
    def worker_id(self) -> str:
        return self.name or self.peer


class Coordinator:
    """Serve one campaign's units to networked workers until done."""

    def __init__(
        self,
        spec: CampaignSpec,
        cache_dir: str,
        host: str = "127.0.0.1",
        port: int = 0,
        lease_s: float = DEFAULT_LEASE_S,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
        policy: Optional[RetryPolicy] = None,
        clock: Callable[[], float] = time.monotonic,
        max_grant: int = MAX_GRANT,
    ):
        if not cache_dir:
            raise MelodyError(
                "the coordinator needs a cache dir: results commit into "
                "the shared run cache"
            )
        if heartbeat_s <= 0:
            raise MelodyError("heartbeat_s must be positive")
        self.spec = spec
        self.cache_dir = cache_dir
        self.host = host
        self._requested_port = port
        self.port: Optional[int] = None
        self.heartbeat_s = heartbeat_s
        self.clock = clock
        # 1 makes the lease a per-cell bound: each unit is due lease_s
        # after its own grant, and a worker's death charges only it.
        self.max_grant = max_grant
        self._plan = spec.load_fault_plan()
        with self._plan_installed():
            campaign = spec.build_campaign()
            from repro.runtime.checkpoint import campaign_fingerprint

            self.campaign = campaign
            self.fingerprint = campaign_fingerprint(campaign)
            units = campaign_units(campaign, self.fingerprint)
        self.table = LeaseTable(
            units,
            policy=policy,
            lease_s=lease_s,
            clock=clock,
        )
        # Eager: connection threads share this one instance, so every
        # put lands in the memory tier promote_store later reads (a
        # lazily-raced second instance would silently lose runs).
        from repro.runtime.cache import RunCache

        self._cache_instance = RunCache(cache_dir)
        # A cached unit is done before any worker connects: it counts as
        # committed (summary, checkpoint, store promotion) but is never
        # leased, so resuming a finished campaign grants nothing.
        for unit in units:
            if self._cache_instance.get(unit.key) is not None:
                self.table.commit_cached(unit.unit_id)
        self._lock = threading.Lock()
        self._connections: Dict[int, _Connection] = {}
        self._conn_counter = 0
        self._workers_seen = 0
        self._threads: List[threading.Thread] = []
        self._listener: Optional[socket.socket] = None
        self._stopping = threading.Event()
        self._done = threading.Event()
        if self.table.done:  # nothing to lease: all cached, or no units
            self._done.set()

    # -- lifecycle ---------------------------------------------------------

    def _plan_installed(self):
        """Context manager scoping the spec's fault plan installation."""
        from contextlib import contextmanager

        from repro.faults import fault_injection

        @contextmanager
        def nothing():
            yield None

        return fault_injection(self._plan) if self._plan is not None \
            else nothing()

    def start(self) -> int:
        """Bind, listen, spin up accept + monitor threads; returns port."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self._requested_port))
        listener.listen(64)
        listener.settimeout(0.2)
        self._listener = listener
        self.port = listener.getsockname()[1]
        for target, name in (
            (self._accept_loop, "dist-accept"),
            (self._monitor_loop, "dist-monitor"),
        ):
            thread = threading.Thread(
                target=target, name=name, daemon=True
            )
            thread.start()
            self._threads.append(thread)
        events().emit(
            "dist.coordinator.start",
            fingerprint=self.fingerprint, units=len(self.table),
            host=self.host, port=self.port,
        )
        return self.port

    def run(
        self,
        timeout: Optional[float] = None,
        linger_s: float = 5.0,
    ) -> DistSummary:
        """Block until every unit settles (or ``timeout``, or a
        :meth:`stop` from another thread); finalize.

        After completion the coordinator lingers up to ``linger_s`` so
        connected workers can fetch once more, hear ``done``, and exit
        cleanly instead of seeing a reset -- a hung worker still bounds
        the wait.
        """
        if self.port is None:
            self.start()
        self._done.wait(timeout)
        with self._lock:
            complete = self.table.done
        if complete:
            deadline = self.clock() + linger_s
            while self.clock() < deadline:
                with self._lock:
                    drained = not self._connections
                if drained:
                    break
                self._stopping.wait(_TICK_S)
        self.stop()
        return self._finalize(complete)

    def stop(self) -> None:
        """Close the listener and every connection; join the threads.

        Also wakes a :meth:`run` blocked in another thread, which then
        finalizes an incomplete campaign unless every unit had settled.
        """
        self._stopping.set()
        self._done.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._lock:
            connections = list(self._connections.values())
            threads = list(self._threads)
        for conn in connections:
            conn.transport.close()
        for thread in threads:
            thread.join(timeout=2.0)

    # -- the accept / connection / monitor threads -------------------------

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                sock, addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            sock.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
            peer = f"{addr[0]}:{addr[1]}"
            conn = _Connection(FrameTransport(sock), peer, self.clock())
            with self._lock:
                # stop() snapshots _connections/_threads under this
                # lock after setting _stopping: re-check here so a
                # connection racing shutdown is turned away instead of
                # registered where stop() can no longer see it.
                if self._stopping.is_set():
                    conn.transport.close()
                    continue
                self._conn_counter += 1
                conn_id = self._conn_counter
                self._connections[conn_id] = conn
                self._workers_seen += 1
                thread = threading.Thread(
                    target=self._serve_connection,
                    args=(conn_id, conn),
                    name=f"dist-conn-{conn_id}",
                    daemon=True,
                )
                self._threads.append(thread)
                thread.start()

    def _serve_connection(self, conn_id: int, conn: _Connection) -> None:
        channel = InOrderChannel()
        registry = metrics()
        try:
            while not self._stopping.is_set():
                try:
                    frame = conn.transport.recv(timeout=0.25)
                except socket.timeout:
                    continue
                except (FrameError, OSError) as exc:
                    events().emit(
                        "dist.conn.error", level="warn",
                        worker=conn.worker_id, reason=str(exc),
                    )
                    registry.counter("dist.frame_errors").inc()
                    return
                if frame is None:
                    return
                conn.last_seen = self.clock()
                try:
                    ready = channel.feed(frame)
                except FrameError as exc:
                    events().emit(
                        "dist.conn.error", level="warn",
                        worker=conn.worker_id, reason=str(exc),
                    )
                    registry.counter("dist.frame_errors").inc()
                    return
                for message in ready:
                    try:
                        keep = self._handle(conn, message)
                    except Exception as exc:
                        # Fail loudly, not silently: closing the
                        # connection (the finally below) releases the
                        # worker's leases so its units retry elsewhere.
                        events().emit(
                            "dist.conn.error", level="error",
                            worker=conn.worker_id,
                            reason=f"handler failure: {exc}",
                        )
                        registry.counter("dist.handler_errors").inc()
                        return
                    if not keep:
                        return
        finally:
            conn.transport.close()
            with self._lock:
                self._connections.pop(conn_id, None)
            self._release(conn)
            registry.counter("dist.duplicate_frames").inc(
                channel.duplicates
            )

    def _monitor_loop(self) -> None:
        """Reap expired leases; close connections that stopped talking."""
        registry = metrics()
        silence_budget = self.heartbeat_s * LIVENESS_MULTIPLE
        while not self._stopping.is_set():
            now = self.clock()
            with self._lock:
                reaped = self.table.expire()
                silent = [
                    conn for conn in self._connections.values()
                    if now - conn.last_seen > silence_budget
                ]
                done = self.table.done
            for lease in reaped:
                registry.counter("dist.leases_expired").inc()
                registry.counter("dist.leases_reassignable").inc()
                events().emit(
                    "dist.lease.expired", level="warn",
                    unit=lease.unit_id[-40:], worker=lease.worker,
                    attempt=lease.attempt,
                )
            for conn in silent:
                events().emit(
                    "dist.worker.lost", level="warn",
                    worker=conn.worker_id,
                    silent_s=round(now - conn.last_seen, 3),
                )
                registry.counter("dist.workers_lost").inc()
                conn.transport.close()  # recv in its thread sees EOF
            if done:
                self._done.set()
                return
            self._stopping.wait(_TICK_S)

    # -- message handling --------------------------------------------------

    def _handle(self, conn: _Connection, message: dict) -> bool:
        """Dispatch one in-order message; False closes the connection."""
        kind = message.get("type")
        seq = message.get("seq")
        if kind == "hello":
            return self._handle_hello(conn, message, seq)
        if kind == "heartbeat":
            metrics().counter("dist.heartbeats").inc()
            return True
        if kind == "fetch":
            return self._handle_fetch(conn, seq)
        if kind == "results":
            return self._handle_results(conn, message)
        if kind == "goodbye":
            conn.goodbye = True
            return False
        events().emit(
            "dist.protocol.error", level="warn",
            worker=conn.worker_id, kind=str(kind),
        )
        return False

    def _handle_hello(
        self, conn: _Connection, message: dict, seq
    ) -> bool:
        proto = message.get("proto")
        if proto != PROTOCOL_VERSION:
            conn.transport.send({
                "type": "reject", "re": seq,
                "reason": f"protocol {proto!r} unsupported "
                          f"(coordinator speaks {PROTOCOL_VERSION})",
            })
            return False
        conn.name = str(message.get("name", "")) or conn.peer
        metrics().counter("dist.workers_joined").inc()
        events().emit(
            "dist.worker.join", worker=conn.worker_id, peer=conn.peer,
        )
        conn.transport.send({
            "type": "welcome",
            "re": seq,
            "proto": PROTOCOL_VERSION,
            "fingerprint": self.fingerprint,
            "spec": self.spec.to_dict(),
            "lease_s": self.table.lease_s,
            "heartbeat_s": self.heartbeat_s,
        })
        return True

    def _handle_fetch(self, conn: _Connection, seq) -> bool:
        with self._lock:
            table = self.table
            if table.done:
                reply: dict = {"type": "done", "re": seq}
            else:
                leases = table.acquire_many(
                    conn.worker_id,
                    min(self.max_grant, grant_size(
                        table.pending, len(self._connections)
                    )),
                )
                if not leases:
                    wait = table.next_ready_s()
                    if wait is None:
                        # Everything is leased out; poll for reassignment.
                        wait = min(1.0, table.lease_s / 4.0)
                    reply = {
                        "type": "wait", "re": seq,
                        "for_s": round(max(wait, _TICK_S), 4),
                    }
                else:
                    reply = {
                        "type": "grant",
                        "re": seq,
                        "lease_s": table.lease_s,
                        "leases": [
                            {
                                "lease_id": lease.lease_id,
                                "attempt": lease.attempt,
                                "unit": table.unit(
                                    lease.unit_id
                                ).descriptor(),
                            }
                            for lease in leases
                        ],
                    }
        if reply["type"] == "grant":
            granted = reply["leases"]
            metrics().counter("dist.leases_granted").inc(len(granted))
            events().emit(
                "dist.lease.grant",
                worker=conn.worker_id, leases=len(granted),
                first=granted[0]["lease_id"],
                attempt=granted[0]["attempt"],
            )
        conn.transport.send(reply)
        return True

    def _handle_results(self, conn: _Connection, message: dict) -> bool:
        """Settle one grant's results frame, entry by entry, in order."""
        entries = message.get("results")
        if not isinstance(entries, list) \
                or not all(isinstance(entry, dict) for entry in entries):
            events().emit(
                "dist.protocol.error", level="warn",
                worker=conn.worker_id, kind="results-not-a-list",
            )
            return False
        for entry in entries:
            if not self._handle_result(conn, entry):
                return False
        return True

    def _handle_result(self, conn: _Connection, message: dict) -> bool:
        """Settle one entry of a results frame; False closes the link."""
        unit_id = str(message.get("unit_id", ""))
        lease_id = str(message.get("lease_id", ""))
        status = message.get("status")
        registry = metrics()
        if status != "ok":
            reason = str(message.get("reason", "error"))
            message_text = str(message.get("message", ""))
            with self._lock:
                charged = self.table.fail(
                    unit_id, lease_id, conn.worker_id,
                    reason if reason in ("error", "crash", "timeout")
                    else "error",
                    message_text,
                )
            if charged:
                registry.counter("dist.unit_failures").inc()
                events().emit(
                    "dist.unit.failed", level="warn",
                    worker=conn.worker_id, unit=unit_id[-40:],
                    reason=reason, message=message_text[:200],
                )
            return True
        doc = message.get("doc")
        if not isinstance(doc, dict):
            events().emit(
                "dist.protocol.error", level="warn",
                worker=conn.worker_id, kind="result-without-doc",
            )
            return False
        # Deserialize BEFORE committing: commit is terminal in the lease
        # table, so accepting a doc the codec then rejects would leave a
        # unit "completed" with no result in the cache.  A doc that does
        # not deserialize is a broken worker delivery -- charge it like
        # any other worker error report so the unit retries elsewhere.
        from repro.runtime.serialize import run_result_from_dict

        try:
            result = run_result_from_dict(doc)
        except Exception as exc:
            with self._lock:
                charged = self.table.fail(
                    unit_id, lease_id, conn.worker_id, "error",
                    f"undeserializable result document: {exc}",
                )
            registry.counter("dist.result_decode_errors").inc()
            events().emit(
                "dist.protocol.error", level="warn",
                worker=conn.worker_id, kind="result-doc-invalid",
                unit=unit_id[-40:], charged=charged,
            )
            return True
        digest = result_digest(doc)
        elapsed = message.get("elapsed_s")
        with self._lock:
            verdict = self.table.commit(
                unit_id, lease_id, conn.worker_id, digest
            )
            done = self.table.done
        if verdict in ("committed", "late", "resurrected"):
            self._cache().put(self.table.unit(unit_id).key, result)
            registry.counter("dist.units_committed").inc()
            if isinstance(elapsed, (int, float)):
                registry.histogram("dist.unit_seconds").observe(
                    float(elapsed)
                )
            if verdict != "committed":
                registry.counter("dist.late_commits").inc()
        elif verdict == "duplicate":
            registry.counter("dist.duplicate_commits").inc()
        elif verdict == "conflict":
            registry.counter("dist.commit_conflicts").inc()
            events().emit(
                "dist.commit.conflict", level="error",
                worker=conn.worker_id, unit=unit_id[-40:],
            )
        events().emit(
            "dist.commit", worker=conn.worker_id,
            unit=unit_id[-40:], verdict=verdict,
        )
        if done:
            self._done.set()
        return True

    def _cache(self):
        return self._cache_instance

    def release_worker(self, name: str) -> List[Lease]:
        """Settle every lease worker ``name`` holds (as crashes).

        A closing connection settles its worker's leases here; a local
        fleet supervisor calls it too, as soon as a worker process
        exits, so the supervisor never has to wait for the socket to
        notice the death.  Whichever call comes second finds nothing.
        """
        with self._lock:
            released = self.table.release_worker(name)
            done = self.table.done
        registry = metrics()
        for lease in released:
            registry.counter("dist.leases_released").inc()
            events().emit(
                "dist.lease.released", level="warn",
                worker=name, unit=lease.unit_id[-40:],
                attempt=lease.attempt,
            )
        if done:
            self._done.set()
        return released

    def _release(self, conn: _Connection) -> None:
        """Settle a departed connection's leases (crash unless goodbye)."""
        released = self.release_worker(conn.worker_id)
        if not conn.goodbye and conn.name:
            events().emit(
                "dist.worker.disconnect", worker=conn.worker_id,
                leases_released=len(released),
            )

    # -- finalization ------------------------------------------------------

    def _finalize(self, complete: bool) -> DistSummary:
        """Checkpoint, promote, and summarize the finished campaign."""
        table = self.table
        with self._plan_installed():
            quarantined = table.quarantined()
            if complete:
                from repro.runtime.checkpoint import Checkpointer

                Checkpointer(
                    cache_dir=self.cache_dir,
                    fingerprint=self.fingerprint,
                    name=self.campaign.name,
                ).finalize(quarantined)
                promoted = self._cache().promote_store(
                    self.fingerprint, keys=table.committed_keys()
                )
                metrics().counter("dist.store_promoted").inc(promoted)
        summary = DistSummary(
            fingerprint=self.fingerprint,
            units=len(table),
            committed=len(table.committed_keys()),
            quarantined=quarantined,
            duplicates=table.counters["duplicates"],
            late_commits=table.counters["late_commits"],
            conflicts=list(table.conflicts),
            expired=table.counters["expired"],
            released=table.counters["released"],
            workers_seen=self._workers_seen,
            complete=complete,
            counters=dict(table.counters),
        )
        events().emit(
            "dist.coordinator.stop",
            fingerprint=self.fingerprint,
            committed=summary.committed,
            quarantined=len(summary.quarantined),
            conflicts=len(summary.conflicts),
            complete=complete,
        )
        return summary
