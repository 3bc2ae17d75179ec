"""The fault-tolerant campaign coordinator (the ``repro coordinate`` brain).

One coordinator owns one campaign.  It splits the campaign into
:class:`~repro.dist.lease.WorkUnit` cells, commits at once every unit
whose result the shared run cache already holds (a solo run never
re-runs a cache hit either), listens on a TCP port, and hands the rest
to whatever workers connect under time-bounded leases.  Everything a
flaky fleet can do is survivable by construction:

* a worker whose process dies closes its socket, and the EOF releases
  its leases (attempt charged) for reassignment to live peers;
* a worker that hangs mid-cell, freezes, or is cut off by a partition
  with its socket still open loses each lease at its deadline: the
  lease is the only liveness signal, and no connection is ever reaped
  for silence;
* a worker that errors reports the failure, and the unit retries behind
  the seeded :class:`~repro.runtime.executor.RetryPolicy` backoff until
  its budget quarantines it into a ``FailedCell`` record -- the
  campaign always completes, degraded at worst, never wedged;
* redeliveries after a reconnect and late commits fold into the
  at-most-once commit of :class:`~repro.dist.lease.LeaseTable`
  (digest-checked), so network chaos can waste work but never change
  what lands in the cache.

A ``results`` entry is one analytic store row (protocol 3, see
:mod:`repro.dist.frames`): a skeleton ref, the row's ``target_name``,
``workload_ref`` and ``platform_ref``, and a packed ``<f8`` vector in the
frame's binary tail.  The coordinator keeps a skeleton body for a
connection only if it hashes to its ref, and validates every row before
committing it, from its own objects: the skeleton must be one its
connection carried, the vector must fill it exactly, the strings must
be the unit's own target and blob refs, and the joined document must
rebuild a ``RunResult`` around the campaign's own workload and platform.
A row that fails charges the attempt like a worker error.  The commit
digest is sha256 over the row as received, with no re-encode.

A committed row is appended, as received, to one coordinator
:class:`~repro.store.store.StoreWriter` -- the store row is the only
on-disk form of a result -- and the rows of each ``results`` frame are
flushed (made durable as one part manifest) before the connection's
next frame is read, so a killed coordinator loses at most the frame in
flight.  The writer's parts merge into the campaign's manifest when the
campaign settles.  The final checkpoint (the quarantine ledger) is
written through
:mod:`repro.runtime.checkpoint` -- after which a plain ``repro campaign
--resume`` pass over the same cache dir assembles exports
byte-identical to a solo run.  That equivalence is the contract the
``dist`` diag layer enforces.

Threading model: an accept thread spawns one thread per worker
connection; a monitor thread drives lease expiry; the
:class:`~repro.dist.lease.LeaseTable` and connection registry are
guarded by one lock, the store writer by another.  The table's clock is
injectable for tests.
"""

from __future__ import annotations

import hashlib
import socket
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.dist.frames import FrameError, FrameTransport
from repro.dist.lease import Lease, LeaseTable, WorkUnit
from repro.dist.spec import CampaignSpec
from repro.errors import MelodyError
from repro.obs.events import events
from repro.obs.metrics import metrics
from repro.runtime.cache import RunCache, blob_ref
from repro.runtime.executor import Cell, FailedCell, RetryPolicy
from repro.runtime.serialize import (
    platform_to_dict,
    run_result_from_dict,
    workload_to_dict,
)
from repro.store.codec import compile_skeleton, skeleton_ref
from repro.store.store import ROW_FIELDS

PROTOCOL_VERSION = 5
"""Bump on any incompatible frame/message change (2: batched grants;
3: results travel as store rows with a binary vector tail; 4: frames
carry no sequence numbers, replies no request echo; 5: workers send
no keep-alive frames, and the welcome names no keep-alive interval)."""

MAX_GRANT = 32
"""Most leases one ``grant`` frame carries."""

DEFAULT_LEASE_S = 30.0

_TICK_S = 0.05
"""Monitor cadence; also bounds how stale expiry checks can be."""


def grid_token(fingerprint: str, workload: str, target: str) -> str:
    """Unit id of one (workload, target) grid cell."""
    return f"{fingerprint}\x1f{workload}\x1f{target}"


def baseline_token(fingerprint: str, workload: str) -> str:
    """Unit id of one workload's baseline cell."""
    return f"{fingerprint}\x1f{workload}\x1fbaseline\x00"


def unit_cells(campaign, fingerprint: str) -> List[Tuple[WorkUnit, Cell]]:
    """Flatten one campaign into leasable units, baselines first.

    Exactly the cells :func:`repro.core.melody.campaign_cells` plans for
    a solo run (capacity skips never become units), each paired with
    the :class:`~repro.runtime.executor.Cell` that computes it.  Grid
    units come target-major -- each target's workloads in campaign
    order -- so a grant of consecutive units mostly holds one target,
    which a worker's batched run solves as one group.  Unit ids
    fold the campaign fingerprint with the cell's names, so the
    coordinator and every worker -- in any process, on any host --
    compute the same ids, and two campaigns never share one.
    """
    from repro.core.melody import campaign_cells
    from repro.runtime.cache import run_key

    base_workloads, grid, _ = campaign_cells(campaign)
    rank = {id(target): i for i, target in enumerate(campaign.targets)}
    grid = sorted(grid, key=lambda pair: rank[id(pair[1])])
    baseline_target = campaign.baseline or campaign.platform.local_target()
    cells = [
        ("baseline", baseline_token(fingerprint, workload.name),
         workload, baseline_target)
        for workload in base_workloads
    ] + [
        ("grid", grid_token(fingerprint, workload.name, target.name),
         workload, target)
        for workload, target in grid
    ]
    return [
        (
            WorkUnit(
                unit_id=unit_id,
                kind=kind,
                workload=workload.name,
                target=target.name,
                key=run_key(workload, campaign.platform, target,
                            campaign.config),
                platform=campaign.platform.name,
            ),
            Cell(workload, campaign.platform, target, campaign.config),
        )
        for kind, unit_id, workload, target in cells
    ]


def campaign_units(campaign, fingerprint: str) -> List[WorkUnit]:
    """The leasable units of :func:`unit_cells`, without their cells."""
    return [unit for unit, _ in unit_cells(campaign, fingerprint)]


def grant_size(pending: int, workers: int) -> int:
    """Leases to put in the next grant: a fair share, capped.

    At most half of an even split of the pending units across the
    connected workers (so a late joiner still finds work), at most
    :data:`MAX_GRANT`, at least one.  Grants shrink as the campaign
    drains, which keeps the tail balanced across workers.
    """
    share = -(-pending // (2 * max(workers, 1)))
    return max(1, min(MAX_GRANT, share))


def row_digest(row: Dict[str, str], vector: bytes) -> str:
    """Commit digest of one delivered row: sha256 over its skeleton ref,
    its :data:`~repro.store.store.ROW_FIELDS` strings and its packed
    vector bytes, exactly as received."""
    head = "\x1f".join(
        [row["skeleton"]] + [row[field] for field in ROW_FIELDS]
    )
    digest = hashlib.sha256(head.encode("utf-8"))
    digest.update(b"\x1f")
    digest.update(vector)
    return digest.hexdigest()


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

    __slots__ = ("transport", "name", "peer", "goodbye", "skeletons")

    def __init__(self, transport: FrameTransport, peer: str):
        self.transport = transport
        self.name = ""
        self.peer = peer
        self.goodbye = False
        # Skeleton ref -> (body, compiled join), as this connection
        # carried them; a row may only name a skeleton kept here.
        self.skeletons: Dict[str, Tuple[object, Callable]] = {}

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
        policy: Optional[RetryPolicy] = None,
        clock: Callable[[], float] = time.monotonic,
        max_grant: int = MAX_GRANT,
    ):
        if not cache_dir:
            raise MelodyError(
                "the coordinator needs a cache dir: results commit into "
                "the shared run cache"
            )
        self.spec = spec
        self.cache_dir = cache_dir
        self.host = host
        self._requested_port = port
        self.port: Optional[int] = None
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
            pairs = unit_cells(campaign, self.fingerprint)
        units = [unit for unit, _ in pairs]
        self._cells: Dict[str, Cell] = {
            unit.unit_id: cell for unit, cell in pairs
        }
        self.table = LeaseTable(
            units,
            policy=policy,
            lease_s=lease_s,
            clock=clock,
        )
        # Eager: connection threads share this one instance (a
        # lazily-raced second instance would split the memory tier).
        self._cache = RunCache(cache_dir)
        # A cached unit is done before any worker connects: it counts as
        # committed (summary, checkpoint) but is never leased, so
        # resuming a finished campaign grants nothing.
        for unit in units:
            if self._cache.get(unit.key) is not None:
                self.table.commit_cached(unit.unit_id)
        self._fault_plan_key = (
            self._plan.key()
            if self._plan is not None and self._plan.enabled else ""
        )
        # The store writer appending committed rows, opened by the
        # first commit and committed by _finalize; blob documents are
        # built once per ref.  Both are guarded by _store_lock.
        self._store_lock = threading.Lock()
        self._writer = None
        self._blob_docs: Dict[str, dict] = {}
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
        from repro.faults import fault_injection

        return fault_injection(self._plan) if self._plan is not None \
            else nullcontext()

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
        cleanly instead of seeing a reset.  A hung worker or a
        half-open connection holds it the full ``linger_s``, no longer.
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
            conn = _Connection(FrameTransport(sock), peer)
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
                try:
                    keep = self._handle(conn, frame)
                except Exception as exc:
                    # Fail loudly, not silently: closing the connection
                    # (the finally below) releases the worker's leases
                    # so its units retry elsewhere.
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

    def _monitor_loop(self) -> None:
        """Reap expired leases every tick; set done once all settled."""
        registry = metrics()
        while not self._stopping.is_set():
            with self._lock:
                reaped = self.table.expire()
                done = self.table.done
            for lease in reaped:
                registry.counter("dist.leases_expired").inc()
                registry.counter("dist.leases_reassignable").inc()
                events().emit(
                    "dist.lease.expired", level="warn",
                    unit=lease.unit_id[-40:], worker=lease.worker,
                    attempt=lease.attempt,
                )
            if done:
                self._done.set()
                return
            self._stopping.wait(_TICK_S)

    # -- message handling --------------------------------------------------

    def _handle(self, conn: _Connection, message: dict) -> bool:
        """Dispatch one message; False closes the connection."""
        kind = message.get("type")
        if kind == "hello":
            return self._handle_hello(conn, message)
        if kind == "fetch":
            return self._handle_fetch(conn)
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

    def _handle_hello(self, conn: _Connection, message: dict) -> bool:
        proto = message.get("proto")
        if proto != PROTOCOL_VERSION:
            conn.transport.send({
                "type": "reject",
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
            "proto": PROTOCOL_VERSION,
            "fingerprint": self.fingerprint,
            "spec": self.spec.to_dict(),
            "lease_s": self.table.lease_s,
        })
        return True

    def _handle_fetch(self, conn: _Connection) -> bool:
        with self._lock:
            table = self.table
            if table.done:
                reply: dict = {"type": "done"}
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
                        "type": "wait",
                        "for_s": round(max(wait, _TICK_S), 4),
                    }
                else:
                    reply = {
                        "type": "grant",
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
        skeletons = message.get("skeletons", {})
        tail = message.get("tail", [])
        if not isinstance(entries, list) \
                or not all(isinstance(entry, dict) for entry in entries) \
                or not isinstance(skeletons, dict) \
                or not isinstance(tail, list):
            events().emit(
                "dist.protocol.error", level="warn",
                worker=conn.worker_id, kind="results-malformed",
            )
            return False
        for ref, body in skeletons.items():
            self._adopt_skeleton(conn, ref, body)
        try:
            for entry in entries:
                if not self._handle_result(conn, entry, tail):
                    return False
            return True
        finally:
            # Durable before this connection's next frame is read: a
            # worker learns of a commit only through its next fetch.
            with self._store_lock:
                if self._writer is not None:
                    self._writer.flush()

    def _adopt_skeleton(self, conn: _Connection, ref: str, body) -> None:
        """Keep one skeleton body for ``conn`` if it hashes to ``ref``.

        A body that does not is dropped, so every row naming its ref
        fails validation as an unknown skeleton (and is charged).
        """
        try:
            if skeleton_ref(body) != ref:
                raise ValueError("body does not hash to its ref")
            join = compile_skeleton(body)
        except (ValueError, TypeError) as exc:
            events().emit(
                "dist.protocol.error", level="warn",
                worker=conn.worker_id, kind="skeleton-invalid",
                ref=str(ref)[:24], reason=str(exc)[:200],
            )
            return
        conn.skeletons[ref] = (body, join)

    def _decode_row(
        self, conn: _Connection, unit_id: str, message: dict, tail: list
    ):
        """Validate one ``ok`` entry; returns (row, vector bytes).

        Everything is checked against the coordinator's own objects:
        the connection's skeletons, the unit's cell and its blob refs,
        and the joined document must rebuild a ``RunResult`` (which is
        then dropped: the row as received is what gets stored).
        Raises on anything it cannot commit.
        """
        cell = self._cells.get(unit_id)
        if cell is None:
            raise ValueError(f"no unit {unit_id[-40:]!r} in this campaign")
        row = message.get("row")
        if not isinstance(row, dict) or not all(
            isinstance(row.get(field), str)
            for field in ("skeleton", *ROW_FIELDS)
        ):
            raise ValueError("entry carries no well-formed row")
        known = conn.skeletons.get(row["skeleton"])
        if known is None:
            raise ValueError(
                f"row names skeleton {row['skeleton'][:24]!r}, which "
                "this connection never carried"
            )
        index = message.get("vector")
        if type(index) is not int or not 0 <= index < len(tail):
            raise ValueError(f"row vector index {index!r} is not in the tail")
        expected = {
            "target_name": cell.target.name,
            "workload_ref": blob_ref(cell.workload, workload_to_dict),
            "platform_ref": blob_ref(cell.platform, platform_to_dict),
        }
        for field, value in expected.items():
            if row[field] != value:
                raise ValueError(
                    f"row {field} {row[field][:32]!r} is not the unit's "
                    f"{value[:32]!r}"
                )
        raw = tail[index]
        doc = known[1](np.frombuffer(raw, dtype="<f8"))
        doc.update(expected)  # the row fields the skeleton leaves out
        run_result_from_dict(
            doc, workload=cell.workload, platform=cell.platform
        )
        return row, raw

    def _handle_result(
        self, conn: _Connection, message: dict, tail: list
    ) -> bool:
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
        # Validate BEFORE committing: commit is terminal in the lease
        # table, so accepting a row that then fails to store would leave
        # a unit "completed" with no result in the cache.  A row that
        # does not validate is a broken worker delivery -- charge it
        # like any other worker error report so the unit retries.
        try:
            row, raw = self._decode_row(conn, unit_id, message, tail)
        except Exception as exc:
            with self._lock:
                charged = self.table.fail(
                    unit_id, lease_id, conn.worker_id, "error",
                    f"invalid result row: {exc}",
                )
            registry.counter("dist.result_decode_errors").inc()
            events().emit(
                "dist.protocol.error", level="warn",
                worker=conn.worker_id, kind="result-row-invalid",
                unit=unit_id[-40:], charged=charged,
                reason=str(exc)[:200],
            )
            return True
        digest = row_digest(row, raw)
        elapsed = message.get("elapsed_s")
        with self._lock:
            verdict = self.table.commit(
                unit_id, lease_id, conn.worker_id, digest
            )
            done = self.table.done
        if verdict in ("committed", "late", "resurrected"):
            self._append_row(
                self.table.unit(unit_id).key,
                conn.skeletons[row["skeleton"]][0], row, raw,
                self._cells[unit_id],
            )
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

    def _append_row(
        self, key: str, skeleton, row: dict, raw: bytes, cell: Cell
    ) -> None:
        """Append one committed row, as received, to the store writer."""
        with self._store_lock:
            if self._writer is None:
                self._writer = self._cache.store.writer(
                    self.fingerprint
                )
            blobs = self._blob_docs
            for ref, obj, to_dict in (
                (row["workload_ref"], cell.workload, workload_to_dict),
                (row["platform_ref"], cell.platform, platform_to_dict),
            ):
                if ref not in blobs:
                    blobs[ref] = to_dict(obj)
            self._writer.add_row(
                key, row["skeleton"], skeleton,
                np.frombuffer(raw, dtype="<f8"), row,
                workload_doc=blobs[row["workload_ref"]],
                platform_doc=blobs[row["platform_ref"]],
                fault_plan=self._fault_plan_key,
            )

    def release_worker(self, name: str) -> List[Lease]:
        """Settle every lease worker ``name`` holds (as crashes).

        A closing connection settles its worker's leases here; a
        :class:`~repro.dist.fleet.Fleet` calls it too, as soon as one of
        its workers exits, so it never has to wait for the socket to
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
        """Merge the store rows, checkpoint, and summarize."""
        table = self.table
        with self._store_lock:
            writer, self._writer = self._writer, None
        if writer is not None:
            writer.commit()
        with self._plan_installed():
            quarantined = table.quarantined()
            if complete:
                from repro.runtime.checkpoint import Checkpointer

                Checkpointer(
                    cache_dir=self.cache_dir,
                    fingerprint=self.fingerprint,
                    name=self.campaign.name,
                ).finalize(quarantined)
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
