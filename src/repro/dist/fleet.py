"""One supervised worker fleet beside a running coordinator.

A :class:`Fleet` starts workers through ``spawn(index) -> handle``, a
:class:`subprocess.Popen` (:func:`subprocess_spawner`, the CLI's
``repro worker`` processes) or a :class:`WorkerThread`
(:func:`thread_spawner`, :mod:`repro.dist.harness`'s workers, whose kill
abandons the socket: all a coordinator sees of a SIGKILLed process).

Every :data:`POLL_S`, :meth:`Fleet.step` kills a worker still running
after one of its leases expired, settles an exited worker's leases by
name, and replaces it under a fresh name if it lost an attempt -- so the
attempt budget bounds replacements, and a late settlement of the dead
name never touches the replacement.  With no worker left and units
unsettled, the coordinator stops.  Leaving the ``with`` block (SIGTERM
becomes ``KeyboardInterrupt``) terminates running workers, gives them
one shared :data:`GRACE_S`, then kills the rest.
"""

from __future__ import annotations

import os
import signal
import subprocess
import threading
import time
from pathlib import Path
from typing import Callable, List, Optional

POLL_S = 0.1
"""How often the supervisor polls its workers."""
GRACE_S = 5.0
"""The one grace period terminated workers share before they are killed."""


class Fleet:
    """Workers from ``spawn(index)``, supervised beside ``coordinator``:
    :meth:`launch` the first ones, then :meth:`run` (or :meth:`supervise`
    and the coordinator's own ``run``)."""

    def __init__(self, coordinator, spawn: Callable[[int], object]):
        self.coordinator = coordinator
        self.spawn = spawn
        self.handles: List[object] = []
        self._alive: set = set()
        self._finished = threading.Event()
        self._supervisor: Optional[threading.Thread] = None
        self._previous = None

    def launch(self):
        """Start worker number ``len(handles)``; returns its handle."""
        handle = self.spawn(len(self.handles))
        self._alive.add(len(self.handles))
        self.handles.append(handle)
        return handle

    def step(self) -> bool:
        """One supervisor poll; ``False`` once no worker is left."""
        table = self.coordinator.table
        for index in sorted(self._alive):
            handle = self.handles[index]
            if handle.poll() is None:
                if not table.overruns.get(handle.name, 0):
                    continue
                handle.kill()
                handle.wait()
            self._alive.discard(index)
            self.coordinator.release_worker(handle.name)
            if table.lost.get(handle.name, 0) and not table.done:
                self.launch()
        if not self._alive and not table.done:
            self.coordinator.stop()
        return bool(self._alive)

    def supervise(self) -> None:
        """Poll :meth:`step` on a daemon thread until the fleet exits."""
        def loop() -> None:
            while not self._finished.wait(POLL_S) and self.step():
                pass

        self._supervisor = threading.Thread(
            target=loop, name="dist-fleet-supervisor", daemon=True
        )
        self._supervisor.start()

    def run(self, timeout: Optional[float] = None):
        """Supervise until the coordinator settles; returns its summary."""
        self.supervise()
        try:
            return self.coordinator.run(timeout=timeout)
        finally:
            self._halt()

    def _halt(self) -> None:
        self._finished.set()
        if self._supervisor is not None:
            self._supervisor.join()

    def __enter__(self) -> "Fleet":
        if threading.current_thread() is threading.main_thread():
            def _terminate(signum, frame):
                raise KeyboardInterrupt()

            self._previous = signal.signal(signal.SIGTERM, _terminate)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._previous is not None:
            signal.signal(signal.SIGTERM, self._previous)
        self._halt()
        leftovers = [h for h in self.handles if h.poll() is None]
        for handle in leftovers:
            handle.terminate()
        deadline = time.monotonic() + GRACE_S
        for handle in leftovers:
            try:
                handle.wait(timeout=max(deadline - time.monotonic(), 0.0))
            except subprocess.TimeoutExpired:
                handle.kill()
                handle.wait()
        return False


def subprocess_spawner(argv: Callable[[int], list]):
    """Spawn worker ``dw<index>`` as a process running ``argv(index)``,
    with this ``src`` tree first on its ``PYTHONPATH``."""
    src = str(Path(__file__).resolve().parents[2])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)

    def spawn(index: int) -> subprocess.Popen:
        proc = subprocess.Popen(argv(index), env=env)
        proc.name = f"dw{index}"
        return proc

    return spawn


class WorkerThread(threading.Thread):
    """A worker on a daemon thread behind Popen's handle protocol.

    ``terminate`` abandons the worker's socket and lets the thread
    return; ``kill`` also stops waiting for it, so :meth:`poll` reports
    ``-SIGKILL`` at once, even while the thread is parked in a cell.  A
    thread that dies of an exception reports 1, as a process would.
    """

    def __init__(self, worker):
        super().__init__(name=worker.name, daemon=True)
        self.worker = worker
        self._code = 1
        self._killed = False
        self.start()

    def run(self) -> None:
        """The thread's body: the worker's own ``run``."""
        self._code = self.worker.run()

    def poll(self) -> Optional[int]:
        """The exit code, or ``None`` while the worker runs."""
        if self._killed:
            return -signal.SIGKILL
        return None if self.is_alive() else self._code

    def wait(self, timeout: Optional[float] = None) -> int:
        """The exit code once there is one (else ``TimeoutExpired``)."""
        if not self._killed:
            self.join(timeout)
        code = self.poll()
        if code is None:
            raise subprocess.TimeoutExpired(self.name, timeout)
        return code

    def terminate(self) -> None:
        """Abandon the socket; the worker returns, not reconnects."""
        self.worker.kill()

    def kill(self) -> None:
        """Abandon the socket and report ``-SIGKILL`` from now on."""
        self.worker.kill()
        self._killed = True


def thread_spawner(make_worker: Callable[[int], object]):
    """Spawn ``make_worker(index)`` as a :class:`WorkerThread`."""
    return lambda index: WorkerThread(make_worker(index))
