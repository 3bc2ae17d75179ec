"""The dist worker: lease, execute, deliver, survive the network.

A :class:`Worker` dials one coordinator, rebuilds the campaign locally
from the :class:`~repro.dist.spec.CampaignSpec` in the welcome frame
(verifying the fingerprint before touching a single cell), and then
loops: fetch a grant of leases, run the grant's cells as one batch
through :func:`~repro.cpu.pipeline.run_workloads`, the fused path the
solo engine uses -- fault plan installed, the host chaos policy applied
to each lease before the batch, and a batch that raises rerun one cell
at a time so only a failing unit is charged -- and deliver every result
of the grant in one ``results`` frame.  A result travels as the analytic
store row :class:`~repro.store.store.StoreWriter` writes
(:func:`wire_row` over :func:`~repro.store.store.encode_row`, the
encoder the solo engine's store append uses): a JSON header entry naming
its skeleton ref,
``target_name``, ``workload_ref`` and ``platform_ref``, and the packed
``<f8`` vector in the frame's binary tail.  Each skeleton body rides
along the first time its connection needs it; the shipped campaign's
1325 rows share five.

Everything about the worker is built to be killed:

* the connect loop retries with bounded deterministic backoff, so a
  chaos-severed connection (or a coordinator that is not up yet) is a
  delay, not a failure; the budget counts *consecutive* connection
  attempts that never reached the coordinator's welcome, so a long
  campaign survives any number of severed sessions that reconnect;
* a session is one thread: the worker talks only to fetch a grant and
  deliver its results, so the lease is its whole liveness contract --
  a cell that outruns its lease loses the unit (a fleet supervisor
  then kills the worker), and a process that dies closes its socket,
  which releases its leases at once;
* rows are memoized per unit within the worker, so a reconnect that
  re-leases a unit this worker already finished re-delivers the row
  instead of re-running the cell -- with every skeleton the new
  connection has not carried yet (the coordinator folds a duplicate
  away);
* ``die_after=N`` arms a self-destruct on lease ``N+1`` for chaos
  harnesses -- usually mid-grant: the leases before it run, then the
  worker dies, so the grant's results are never delivered and every
  unit in it is released: ``hard_exit`` makes it a
  real ``os._exit`` (SIGKILL semantics, exercised by the CI smoke),
  otherwise the worker abandons the socket and returns, which an
  in-process harness can assert on; :meth:`Worker.kill` does the same
  from another thread.

All sends optionally pass through the :class:`~repro.dist.chaos
.ChaosTransport`, making the worker's outbound frames -- hello, fetches
and results alike -- the sabotage surface.
"""

from __future__ import annotations

import os
import socket
import time
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.cpu.pipeline import run_workloads
from repro.dist.chaos import ChaosTransport
from repro.dist.coordinator import PROTOCOL_VERSION, unit_cells
from repro.dist.frames import FrameError, FrameTransport
from repro.dist.spec import CampaignSpec
from repro.errors import MelodyError
from repro.faults.chaos import ChaosPolicy, NetChaosPolicy
from repro.obs.events import events
from repro.obs.metrics import metrics
from repro.runtime.executor import Cell, _execute_cell
from repro.store.store import encode_row

EXIT_OK = 0
EXIT_FINGERPRINT_MISMATCH = 2
"""Worker and coordinator built different campaigns: refuse to run."""
EXIT_DISCONNECTED = 3
"""Reconnect budget exhausted without the campaign finishing."""
EXIT_SELF_DESTRUCT = 9
"""The ``die_after`` self-destruct fired (chaos harness mode)."""

RECONNECT_BASE_S = 0.05
RECONNECT_MAX_S = 1.0
WAIT_SLICE_S = 0.5
"""Upper bound on one coordinator-requested wait (keeps polls fresh)."""
REPLY_TIMEOUT_S = 10.0
"""How long a worker waits for the coordinator's reply to one fetch."""


def wire_row(
    result, skeletons: Dict[str, Any]
) -> Tuple[Dict[str, str], bytes]:
    """One run as the store row a ``results`` entry carries.

    Encodes with :func:`~repro.store.store.encode_row` and returns
    ``(row, vector bytes)``: ``row`` holds the skeleton ref and the
    :data:`~repro.store.store.ROW_FIELDS` strings, the vector is packed
    little-endian float64.  ``skeletons`` maps the refs of the shapes
    seen so far to their bodies; a new shape is added to it.
    """
    row, ref, skeleton, vector = encode_row(result)
    skeletons.setdefault(ref, skeleton)
    row["skeleton"] = ref
    return row, vector.astype("<f8", copy=False).tobytes()


class _SelfDestruct(Exception):
    """Raised internally when the die_after budget is consumed."""


class Worker:
    """One dist worker process (or in-process harness thread)."""

    def __init__(
        self,
        host: str,
        port: int,
        name: str = "",
        net_chaos: Optional[NetChaosPolicy] = None,
        cell_chaos: Optional[ChaosPolicy] = None,
        die_after: Optional[int] = None,
        hard_exit: bool = False,
        reconnect_attempts: int = 8,
        connect_timeout_s: float = 5.0,
        sleep=time.sleep,
    ):
        if die_after is not None and die_after < 0:
            raise MelodyError("die_after must be >= 0")
        if reconnect_attempts < 1:
            raise MelodyError("reconnect_attempts must be >= 1")
        self.host = host
        self.port = port
        self.name = name or f"worker-{os.getpid()}"
        self.net_chaos = net_chaos
        self.cell_chaos = cell_chaos
        self.die_after = die_after
        self.hard_exit = hard_exit
        self.reconnect_attempts = reconnect_attempts
        self.connect_timeout_s = connect_timeout_s
        self.sleep = sleep
        # Per-unit row memo: a re-leased unit re-delivers, not re-runs.
        self._rows: Dict[str, Tuple[Dict[str, str], bytes]] = {}
        # Skeleton bodies by ref, and the refs this connection carried.
        self._skeletons: Dict[str, Any] = {}
        self._carried: Set[str] = set()
        self._leases_taken = 0
        self._welcomed = False
        self.killed = False
        self._transport: Optional[FrameTransport] = None
        self.units_executed = 0
        self.units_delivered = 0
        # Lazily built from the first welcome frame.
        self._spec: Optional[CampaignSpec] = None
        self._fingerprint = ""
        self._cells: Dict[str, object] = {}

    # -- top level ---------------------------------------------------------

    def run(self) -> int:
        """Serve the coordinator until done (or undone); returns exit code.

        ``reconnect_attempts`` bounds consecutive failed connection
        attempts; a session that adopted the welcome before it died was
        not a failed attempt, and resets the count.
        """
        failures = 0
        conn_index = 0
        while failures < self.reconnect_attempts and not self.killed:
            conn_index += 1
            self._welcomed = False
            try:
                return self._session(conn_index)
            except _SelfDestruct:
                if self.hard_exit:
                    os._exit(EXIT_SELF_DESTRUCT)
                return EXIT_SELF_DESTRUCT
            except (ConnectionError, FrameError, OSError,
                    socket.timeout) as exc:
                if self.killed:
                    break
                failures = 0 if self._welcomed else failures + 1
                backoff = min(
                    RECONNECT_BASE_S * (2 ** max(failures - 1, 0)),
                    RECONNECT_MAX_S,
                )
                events().emit(
                    "dist.worker.reconnect", level="warn",
                    worker=self.name, failures=failures,
                    reason=str(exc)[:200], backoff_s=backoff,
                )
                metrics().counter("dist.worker_reconnects").inc()
                self.sleep(backoff)
            except MelodyError as exc:
                # Fingerprint skew or a coordinator reject: retrying
                # cannot fix a campaign-identity disagreement.
                events().emit(
                    "dist.worker.refused", level="error",
                    worker=self.name, error=str(exc)[:300],
                )
                return EXIT_FINGERPRINT_MISMATCH
        return EXIT_DISCONNECTED

    def kill(self) -> None:
        """Abandon the live connection and never reconnect."""
        self.killed = True
        if self._transport is not None:
            self._transport.close()

    # -- one connection ----------------------------------------------------

    def _connect(self, conn_index: int) -> FrameTransport:
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.connect_timeout_s
        )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(None)
        if self.net_chaos is not None:
            return ChaosTransport(
                sock, self.net_chaos,
                stream=f"{self.name}/{conn_index}",
                sleep=self.sleep,
            )
        return FrameTransport(sock)

    def _session(self, conn_index: int) -> int:
        """One connection's lifetime; returns an exit code when final."""
        transport = self._transport = self._connect(conn_index)
        if self.killed:  # kill() raced this connect
            transport.close()
        self._carried = set()
        try:
            transport.send({
                "type": "hello",
                "name": self.name,
                "proto": PROTOCOL_VERSION,
            })
            welcome = transport.recv(timeout=self.connect_timeout_s)
            if welcome is None:
                raise ConnectionResetError("coordinator hung up on hello")
            if welcome.get("type") == "reject":
                raise MelodyError(
                    f"coordinator rejected worker: "
                    f"{welcome.get('reason', 'unknown')}"
                )
            if welcome.get("type") != "welcome":
                raise FrameError(
                    f"expected welcome, got {welcome.get('type')!r}"
                )
            self.adopt_welcome(welcome)
            self._welcomed = True
            return self._lease_loop(transport)
        finally:
            transport.close()

    def adopt_welcome(self, welcome: dict) -> None:
        """Rebuild the campaign from the spec; refuse on fingerprint skew."""
        fingerprint = str(welcome.get("fingerprint", ""))
        if self._spec is not None:
            # A reconnect: the campaign must not have changed under us.
            if fingerprint != self._fingerprint:
                raise MelodyError(
                    "coordinator changed campaigns mid-run "
                    f"({self._fingerprint[:12]} -> {fingerprint[:12]})"
                )
            return
        spec = CampaignSpec.from_dict(welcome.get("spec") or {})
        plan = spec.load_fault_plan()
        if plan is not None:
            from repro.faults import install_fault_plan

            install_fault_plan(plan)
        from repro.runtime.checkpoint import campaign_fingerprint

        campaign = spec.build_campaign()
        local = campaign_fingerprint(campaign)
        if local != fingerprint:
            raise _FingerprintMismatch(
                f"campaign fingerprint mismatch: coordinator says "
                f"{fingerprint[:12]}, this worker computes {local[:12]} "
                "(version skew or divergent workload population)"
            )
        self._spec = spec
        self._fingerprint = fingerprint
        for unit, cell in unit_cells(campaign, fingerprint):
            self._cells[unit.unit_id] = cell
        events().emit(
            "dist.worker.adopted", worker=self.name,
            fingerprint=fingerprint[:12], units=len(self._cells),
        )

    # -- the fetch/execute loop --------------------------------------------

    def _lease_loop(self, transport: FrameTransport) -> int:
        while True:
            transport.send({"type": "fetch"})
            reply = self._recv_reply(transport)
            kind = reply.get("type")
            if kind == "done":
                transport.send({"type": "goodbye"})
                return EXIT_OK
            if kind == "wait":
                self.sleep(min(
                    float(reply.get("for_s", WAIT_SLICE_S)), WAIT_SLICE_S
                ))
                continue
            if kind != "grant":
                raise FrameError(f"expected grant/wait/done, got {kind!r}")
            leases = reply.get("leases")
            if not isinstance(leases, list):
                raise FrameError("grant frame carries no lease list")
            entries, tail, skeletons = [], [], {}
            for entry, vector in self.run_grant(leases):
                if vector is not None:
                    ref = entry["row"]["skeleton"]
                    if ref not in self._carried:
                        skeletons[ref] = self._skeletons[ref]
                    entry["vector"] = len(tail)
                    tail.append(vector)
                entries.append(entry)
            transport.send({
                "type": "results", "results": entries,
                "skeletons": skeletons, "tail": tail,
            })
            self._carried.update(skeletons)
            self.units_delivered += len(tail)

    def _recv_reply(self, transport: FrameTransport) -> dict:
        """The next coordinator reply (replies travel clean and in order)."""
        reply = transport.recv(timeout=REPLY_TIMEOUT_S)
        if reply is None:
            raise ConnectionResetError("coordinator hung up")
        return reply

    def run_grant(
        self, leases: List[dict]
    ) -> List[Tuple[Dict[str, Any], Optional[bytes]]]:
        """Execute one grant's units (or recall their memoized rows).

        Returns each lease's results-frame entry in lease order, with the
        row's packed vector for an ``ok`` entry (``None`` for an error
        entry); the caller places the vectors in the frame's tail.  Each
        lease is counted against ``die_after``, and each unit this worker
        has not finished yet meets ``cell_chaos`` first (an injected
        error becomes that unit's error entry).  The units left then run
        through one :meth:`_execute` batch.  When ``die_after`` runs out
        mid-grant, the leases before the fatal one run and the worker
        dies without delivering any of them.
        """
        dying = (self.die_after is not None
                 and self._leases_taken + len(leases) > self.die_after)
        if dying:
            leases = leases[:self.die_after - self._leases_taken]
        self._leases_taken += len(leases)
        chaos = self.cell_chaos
        entries: List[Dict[str, Any]] = []
        fresh: List[Tuple[Dict[str, Any], Cell, int]] = []
        for lease in leases:
            unit_id = str((lease.get("unit") or {}).get("unit_id", ""))
            attempt = int(lease.get("attempt", 1))
            entry = {
                "unit_id": unit_id,
                "lease_id": str(lease.get("lease_id", "")),
            }
            entries.append(entry)
            cell = self._cells.get(unit_id)
            if cell is None:
                entry.update(
                    status="error", reason="error",
                    message=f"worker has no cell for unit {unit_id!r}",
                )
            elif unit_id not in self._rows:
                try:
                    if chaos is not None:
                        chaos.apply(cell.key(), attempt)
                except Exception as exc:
                    self._cell_error(entry, attempt, exc)
                else:
                    fresh.append((entry, cell, attempt))
        if fresh:
            self._execute(fresh)
        if dying:
            # Abrupt death mid-grant: no goodbye, no results, the socket
            # just goes dark (close happens in _session's finally for
            # the in-process flavor; hard_exit skips even that).
            if self.hard_exit:
                os._exit(EXIT_SELF_DESTRUCT)
            raise _SelfDestruct()
        out = []
        for entry in entries:
            if "status" in entry:  # an error entry
                out.append((entry, None))
                continue
            row, vector = self._rows[entry["unit_id"]]
            out.append((dict(
                entry, status="ok", row=row,
                elapsed_s=entry.get("elapsed_s", 0.0),
            ), vector))
        return out

    def _execute(self, fresh: List[Tuple[Dict[str, Any], Cell, int]]) -> None:
        """Run ``(entry, cell, attempt)`` units and memoize their rows.

        One :func:`~repro.cpu.pipeline.run_workloads` call runs them all
        (its rows equal the solo engine's bit for bit), and each
        finished entry gets an equal share of its wall time as
        ``elapsed_s``.  If the batch raises, the units rerun one by one,
        so only a unit whose own run raises becomes an error entry.
        """
        start = time.perf_counter()
        try:
            rows = [
                wire_row(result, self._skeletons)
                for result in run_workloads([
                    (cell.workload, cell.platform, cell.target, cell.config)
                    for _, cell, _ in fresh
                ])
            ]
        except Exception:
            rows = []
            for entry, cell, attempt in fresh:
                try:
                    rows.append(
                        wire_row(_execute_cell(cell), self._skeletons)
                    )
                except Exception as exc:
                    self._cell_error(entry, attempt, exc)
                    rows.append(None)
        share = round((time.perf_counter() - start) / len(fresh), 6)
        for (entry, _, _), row in zip(fresh, rows):
            if row is not None:
                self._rows[entry["unit_id"]] = row
                entry["elapsed_s"] = share
                self.units_executed += 1

    def _cell_error(
        self, entry: Dict[str, Any], attempt: int, exc: Exception
    ) -> None:
        """Turn ``entry`` into the error entry of a failed cell attempt."""
        metrics().counter("dist.worker_cell_errors").inc()
        events().emit(
            "dist.worker.cell_error", level="warn",
            worker=self.name, unit=entry["unit_id"][-40:],
            attempt=attempt, error=str(exc)[:200],
        )
        entry.update(
            status="error", reason="error",
            message=f"{type(exc).__name__}: {exc}",
        )


class _FingerprintMismatch(MelodyError):
    """Worker and coordinator disagree about the campaign's identity."""
