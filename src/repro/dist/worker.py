"""The dist worker: lease, execute, deliver, survive the network.

A :class:`Worker` dials one coordinator, rebuilds the campaign locally
from the :class:`~repro.dist.spec.CampaignSpec` in the welcome frame
(verifying the fingerprint before touching a single cell), and then
loops: fetch a grant of leases, execute its cells in order through the
very same ``_execute_cell_attempt`` path the solo engine uses -- fault
plan installed, host chaos policy honored -- and deliver every result
document of the grant in one ``results`` frame.

Everything about the worker is built to be killed:

* the connect loop retries with bounded deterministic backoff, so a
  chaos-severed connection (or a coordinator that is not up yet) is a
  delay, not a failure;
* a heartbeat daemon thread shares the transport, so a worker stuck in
  a long cell still proves liveness -- only a worker that *hangs past
  its lease* loses the unit, and only a worker whose process dies goes
  silent;
* results are memoized per unit within the worker, so a reconnect that
  re-leases a unit this worker already finished re-delivers the cached
  document instead of re-running the cell (the coordinator folds the
  duplicate away);
* ``die_after=N`` arms a self-destruct on lease ``N+1`` for chaos
  harnesses -- usually mid-grant, so the grant's results are never
  delivered and every unit in it is released: ``hard_exit`` makes it a
  real ``os._exit`` (SIGKILL semantics, exercised by the CI smoke),
  otherwise the worker abandons the socket and returns, which an
  in-process harness can assert on.

All sends optionally pass through the :class:`~repro.dist.chaos
.ChaosTransport`, making the worker's outbound frames -- results and
heartbeats alike -- the sabotage surface.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from typing import Dict, Optional

from repro.dist.chaos import ChaosTransport
from repro.dist.coordinator import PROTOCOL_VERSION, campaign_units
from repro.dist.frames import FrameError, FrameTransport
from repro.dist.spec import CampaignSpec
from repro.errors import MelodyError
from repro.faults.chaos import ChaosPolicy, chaos_injection
from repro.faults.netchaos import NetChaosPolicy
from repro.obs.events import events
from repro.obs.metrics import metrics

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


def _nothing():
    from contextlib import contextmanager

    @contextmanager
    def scope():
        yield None

    return scope()


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
        # Per-unit result memo: a re-leased unit re-delivers, not re-runs.
        self._results: Dict[str, dict] = {}
        self._leases_taken = 0
        self.units_executed = 0
        self.units_delivered = 0
        # Lazily built from the first welcome frame.
        self._spec: Optional[CampaignSpec] = None
        self._fingerprint = ""
        self._cells: Dict[str, object] = {}
        self._heartbeat_s = 2.0

    # -- top level ---------------------------------------------------------

    def run(self) -> int:
        """Serve the coordinator until done (or undone); returns exit code."""
        failures = 0
        conn_index = 0
        while failures < self.reconnect_attempts:
            conn_index += 1
            try:
                return self._session(conn_index)
            except _SelfDestruct:
                if self.hard_exit:
                    os._exit(EXIT_SELF_DESTRUCT)
                return EXIT_SELF_DESTRUCT
            except (ConnectionError, FrameError, OSError,
                    socket.timeout) as exc:
                failures += 1
                backoff = min(
                    RECONNECT_BASE_S * (2 ** (failures - 1)),
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
        transport = self._connect(conn_index)
        stop_heartbeat = threading.Event()
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
            self._adopt_welcome(welcome)
            heartbeat = threading.Thread(
                target=self._heartbeat_loop,
                args=(transport, stop_heartbeat),
                name=f"{self.name}-heartbeat",
                daemon=True,
            )
            heartbeat.start()
            with (chaos_injection(self.cell_chaos)
                  if self.cell_chaos is not None else _nothing()):
                return self._lease_loop(transport)
        finally:
            stop_heartbeat.set()
            transport.close()

    def _adopt_welcome(self, welcome: dict) -> None:
        """Rebuild the campaign from the spec; refuse on fingerprint skew."""
        self._heartbeat_s = float(welcome.get("heartbeat_s", 2.0))
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
        from repro.runtime.executor import Cell

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
        baseline_target = (
            campaign.baseline or campaign.platform.local_target()
        )
        targets = {t.name: t for t in campaign.targets}
        targets[baseline_target.name] = baseline_target
        workloads = {w.name: w for w in campaign.workloads}
        for unit in campaign_units(campaign, fingerprint):
            self._cells[unit.unit_id] = Cell(
                workloads[unit.workload],
                campaign.platform,
                targets[unit.target],
                campaign.config,
            )
        events().emit(
            "dist.worker.adopted", worker=self.name,
            fingerprint=fingerprint[:12], units=len(self._cells),
        )

    def _heartbeat_loop(
        self, transport: FrameTransport, stop: threading.Event
    ) -> None:
        while not stop.wait(self._heartbeat_s):
            try:
                transport.send({"type": "heartbeat"})
            except (OSError, FrameError, ConnectionError):
                return

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
            results = []
            for lease in leases:
                self._leases_taken += 1
                if self.die_after is not None \
                        and self._leases_taken > self.die_after:
                    # Abrupt death mid-grant: no goodbye, no results,
                    # the socket just goes dark (close happens in
                    # _session's finally for the in-process flavor;
                    # hard_exit skips even that).
                    if self.hard_exit:
                        os._exit(EXIT_SELF_DESTRUCT)
                    raise _SelfDestruct()
                results.append(self._run_lease(lease))
            transport.send({"type": "results", "results": results})
            self.units_delivered += sum(
                1 for entry in results if entry["status"] == "ok"
            )

    def _recv_reply(self, transport: FrameTransport) -> dict:
        """The next coordinator reply (replies travel clean and in order)."""
        reply = transport.recv(timeout=max(
            10.0, self._heartbeat_s * 5.0
        ))
        if reply is None:
            raise ConnectionResetError("coordinator hung up")
        return reply

    def _run_lease(self, lease: dict) -> dict:
        """Execute one granted unit; returns its results-frame entry."""
        unit = lease.get("unit") or {}
        unit_id = str(unit.get("unit_id", ""))
        lease_id = str(lease.get("lease_id", ""))
        attempt = int(lease.get("attempt", 1))
        entry = {"unit_id": unit_id, "lease_id": lease_id}
        cell = self._cells.get(unit_id)
        if cell is None:
            return dict(
                entry, status="error", reason="error",
                message=f"worker has no cell for unit {unit_id!r}",
            )
        doc = self._results.get(unit_id)
        elapsed = 0.0
        if doc is None:
            start = time.perf_counter()
            try:
                doc = self._execute(cell, attempt)
            except Exception as exc:
                metrics().counter("dist.worker_cell_errors").inc()
                events().emit(
                    "dist.worker.cell_error", level="warn",
                    worker=self.name, unit=unit_id[-40:],
                    attempt=attempt, error=str(exc)[:200],
                )
                return dict(
                    entry, status="error", reason="error",
                    message=f"{type(exc).__name__}: {exc}",
                )
            elapsed = time.perf_counter() - start
            self.units_executed += 1
            self._results[unit_id] = doc
        return dict(
            entry, status="ok", doc=doc,
            elapsed_s=round(float(elapsed), 6),
        )

    def _execute(self, cell, attempt: int) -> dict:
        from repro.runtime.executor import _execute_cell_attempt
        from repro.runtime.serialize import run_result_to_dict

        result = _execute_cell_attempt(cell, attempt)
        return run_result_to_dict(result)


class _FingerprintMismatch(MelodyError):
    """Worker and coordinator disagree about the campaign's identity."""
