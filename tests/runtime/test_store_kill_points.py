"""Kill the store at every write point: no torn row is ever read.

A smoke-sized campaign runs once solo (the CLI) and once through the
coordinator with one worker thread.  Each pass is repeated once per
store write -- segment append, segment flush, manifest write (a part's
or the merged manifest's ``os.replace``), and the merge's removal of the
parts it folded -- with that write failing as a kill would: a torn half
of the bytes reaches the file, and nothing the process would write after
it happens (every later write point fails too).  Afterwards a fresh
:class:`RunCache` must read no torn row: ``store_errors == 0``, and
every row it serves equals the uninterrupted run's.  A resumed pass into
the same directory must then export bytes identical to an uninterrupted
run.
"""

import threading

import numpy as np
import pytest

import repro.store.store as store_module
from repro.cli import main
from repro.dist.coordinator import Coordinator, unit_cells
from repro.dist.spec import CampaignSpec
from repro.dist.worker import Worker
from repro.runtime import reset_runtime
from repro.runtime.cache import RunCache
from repro.runtime.serialize import run_result_to_dict
from repro.store import Manifest, SegmentWriter

ARGV = ["campaign", "--suite", "GAPBS", "--targets", "cxl-a",
        "--sample", "6"]
SPEC = CampaignSpec(platform="EMR2S", targets=("cxl-a",), suite="GAPBS",
                    sample=6, name="cli")


class _Killed(Exception):
    """The process died at a store write point."""


class _KillSwitch:
    """Fails the ``at``-th store write and every one after it."""

    def __init__(self, at: int):
        self.at = at
        self.calls = 0
        self.dead = threading.Event()
        self.lock = threading.Lock()

    def hit(self, point: str) -> bool:
        """Count one write; True when the process is dead by now."""
        with self.lock:
            self.calls += 1
            if self.calls == self.at:
                self.dead.set()
            return self.dead.is_set()


class _OsWithUnlink:
    """``os`` as the store module sees it, with ``unlink`` switched."""

    def __init__(self, os_module, unlink):
        self._os = os_module
        self.unlink = unlink

    def __getattr__(self, name):
        return getattr(self._os, name)


@pytest.fixture
def arm(monkeypatch):
    """Install a kill switch on every store write point."""
    real_append = SegmentWriter.append
    real_flush = SegmentWriter.flush
    real_write = Manifest.write
    real_os = store_module.os
    switch = {"now": _KillSwitch(0)}

    def append(self, vector):
        if switch["now"].hit("segment append"):
            if self._handle is not None:  # torn: half the bytes land
                data = np.ascontiguousarray(vector, "<f8").tobytes()
                self._handle.write(data[:len(data) // 2])
                self._handle.flush()
            raise _Killed("segment append")
        return real_append(self, vector)

    def flush(self):
        if switch["now"].hit("segment flush"):
            raise _Killed("segment flush")
        return real_flush(self)

    def write(self, directory, filename=None):
        if switch["now"].hit("manifest replace"):
            # Torn: the temp file holds half the document, never renamed.
            import json

            text = json.dumps(self.to_dict())
            directory.mkdir(parents=True, exist_ok=True)
            tmp = directory / f"{filename or self.filename()}.tmp.killed"
            tmp.write_text(text[:len(text) // 2])
            raise _Killed("manifest replace")
        return real_write(self, directory, filename)

    def unlink(path):
        if switch["now"].hit("merge unlink"):
            raise _Killed("merge unlink")
        return real_os.unlink(path)

    monkeypatch.setattr(SegmentWriter, "append", append)
    monkeypatch.setattr(SegmentWriter, "flush", flush)
    monkeypatch.setattr(Manifest, "write", write)
    monkeypatch.setattr(store_module, "os", _OsWithUnlink(real_os, unlink))

    def install(at: int) -> _KillSwitch:
        switch["now"] = _KillSwitch(at)
        return switch["now"]

    yield install
    reset_runtime()


def _solo(cache_dir, out=None, resume=False, extra=()):
    argv = ARGV + ["--cache-dir", str(cache_dir), *extra]
    if resume:
        argv.append("--resume")
    if out is not None:
        argv += ["--csv", str(out / "x.csv"), "--json", str(out / "x.json")]
    assert main(argv) == 0


def _exports(out):
    return (out / "x.csv").read_bytes(), (out / "x.json").read_bytes()


def _coordinated(cache_dir):
    """The campaign through a coordinator and one worker thread; returns
    once it completes, or once the store is dead and everything is
    stopped (as a killed coordinator process would be)."""
    coordinator = Coordinator(SPEC, cache_dir=str(cache_dir))
    port = coordinator.start()
    worker = Worker("127.0.0.1", port, name="w0", reconnect_attempts=1)
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    return coordinator, worker, thread


def _drive(coordinator, worker, thread, switch):
    """Run the coordinator to the end; a dead store stops it at once.

    Returns the summary, or ``None`` when the kill reached ``run``
    itself (the final merge, or the merge of an interrupted campaign).
    """
    finished = threading.Event()

    def stop_when_dead():
        while not finished.is_set():
            if switch.dead.wait(0.01):
                coordinator.stop()
                return

    stopper = threading.Thread(target=stop_when_dead, daemon=True)
    stopper.start()
    try:
        summary = coordinator.run(timeout=60, linger_s=0.5)
    except _Killed:
        summary = None
    finished.set()
    worker.kill()
    thread.join(10)
    stopper.join(10)
    assert not thread.is_alive()
    return summary


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """Exports and results of one uninterrupted solo run."""
    reset_runtime()
    root = tmp_path_factory.mktemp("reference")
    _solo(root / "cache", out=root)
    cache = RunCache(str(root / "cache"))
    results = {}
    for unit, _ in unit_cells(SPEC.build_campaign(), "unused"):
        results[unit.key] = run_result_to_dict(cache.get(unit.key))
    reset_runtime()
    return _exports(root), results


def _assert_no_torn_row(cache_dir, results):
    fresh = RunCache(str(cache_dir))
    served = 0
    for key, expected in results.items():
        got = fresh.get(key)
        if got is not None:
            served += 1
            assert run_result_to_dict(got) == expected
    assert fresh.store_errors == 0
    assert fresh.store is None or fresh.store.corrupt_manifests == 0
    return served


def _write_points(arm, run) -> int:
    switch = arm(0)
    run(switch)
    assert not switch.dead.is_set()
    return switch.calls


class TestSoloKills:
    # One chunk, one flush, with retries or without: a resilient run
    # fuses its cells as a fail-fast one does.
    @pytest.mark.parametrize("extra", [(), ("--cell-retries", "2")])
    def test_every_write_point(self, arm, reference, tmp_path, extra):
        exports, results = reference

        def run(switch):
            _solo(tmp_path / "count", extra=extra)

        points = _write_points(arm, run)
        assert points >= 8
        for at in range(1, points + 1):
            cache_dir = tmp_path / f"kill{at}"
            switch = arm(at)
            with pytest.raises(_Killed):
                _solo(cache_dir, extra=extra)
            assert switch.dead.is_set()
            _assert_no_torn_row(cache_dir, results)
            arm(0)
            out = tmp_path / f"out{at}"
            out.mkdir()
            _solo(cache_dir, out=out, resume=True)
            assert _exports(out) == exports, f"kill at write {at}"
            assert _assert_no_torn_row(cache_dir, results) == len(results)


class TestCoordinatorKills:
    def test_every_write_point(self, arm, reference, tmp_path):
        exports, results = reference

        def run(switch):
            summary = _drive(*_coordinated(tmp_path / "count"), switch)
            assert summary is not None and summary.complete

        points = _write_points(arm, run)
        assert points >= 8
        for at in range(1, points + 1):
            cache_dir = tmp_path / f"kill{at}"
            switch = arm(at)
            # Every kill reaches the final merge, which fails too.
            assert _drive(*_coordinated(cache_dir), switch) is None
            assert switch.dead.is_set()
            _assert_no_torn_row(cache_dir, results)
            arm(0)
            resumed = _drive(*_coordinated(cache_dir), arm(0))
            assert resumed is not None and resumed.complete
            out = tmp_path / f"out{at}"
            out.mkdir()
            _solo(cache_dir, out=out, resume=True)
            assert _exports(out) == exports, f"kill at write {at}"
            assert _assert_no_torn_row(cache_dir, results) == len(results)
