"""Checkpoint tests: the quarantine ledger, recovery, and SIGKILL resume."""

import json
import os
import pickle
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.core.melody import Melody
from repro.faults.plan import FaultPlan, FaultEpisode, fault_injection
from repro.runtime.cache import RunCache
from repro.runtime.checkpoint import (
    CHECKPOINT_VERSION,
    Checkpointer,
    campaign_fingerprint,
    checkpoint_path,
    load_checkpoint,
)
from repro.runtime.executor import CampaignEngine, FailedCell

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


@pytest.fixture
def failed_record():
    return FailedCell(key="k1", workload="w", platform="EMR2S",
                      target="CXL-A", attempts=3, reason="crash")


class TestCheckpointer:
    def test_document_is_json_dumps_bytes(self, tmp_path, failed_record):
        ckpt = Checkpointer(cache_dir=str(tmp_path), fingerprint="f" * 32,
                            name="t")
        ckpt.write([failed_record])
        with open(ckpt.path) as handle:
            text = handle.read()
        assert text == json.dumps({
            "version": CHECKPOINT_VERSION,
            "fingerprint": "f" * 32,
            "name": "t",
            "complete": False,
            "failed": [failed_record.to_dict()],
        })

    def test_write_fsyncs_file_and_directory(self, tmp_path, monkeypatch):
        # The atomic rename is only durable once the *directory entry*
        # reaches disk: a power cut after os.replace must not resurrect
        # the previous checkpoint.  Spy os.open (the only path that
        # opens a directory fd during write) and os.fsync.
        import repro.runtime.checkpoint as checkpoint_module

        opened = {}
        synced = []
        real_open, real_fsync = os.open, os.fsync

        def open_spy(path, flags, *args):
            fd = real_open(path, flags, *args)
            opened[fd] = path
            return fd

        def fsync_spy(fd):
            # Snapshot what the fd means *now*: fd numbers get reused
            # once the temp-file handle closes.
            synced.append(opened.get(fd))
            return real_fsync(fd)

        monkeypatch.setattr(os, "open", open_spy)
        monkeypatch.setattr(os, "fsync", fsync_spy)
        ckpt = Checkpointer(cache_dir=str(tmp_path), fingerprint="f" * 32)
        ckpt.write([])
        assert len(synced) == 2
        # First the data (the temp-file handle, opened via the builtin,
        # so not in the os.open spy)...
        assert synced[0] is None
        # ...then the directory entry, after the rename.
        assert os.path.basename(synced[1]) == "checkpoints"
        assert load_checkpoint(str(tmp_path), "f" * 32) is not None

    def test_directory_fsync_degrades_on_refusal(self, tmp_path,
                                                 monkeypatch):
        # Platforms whose directory fds reject fsync must not fail the
        # checkpoint write -- and the fd must still be closed.
        from repro.runtime.checkpoint import _fsync_directory

        closed = []
        real_close = os.close

        def close_spy(fd):
            closed.append(fd)
            return real_close(fd)

        monkeypatch.setattr(
            os, "fsync",
            lambda fd: (_ for _ in ()).throw(OSError("no dir fsync")),
        )
        monkeypatch.setattr(os, "close", close_spy)
        _fsync_directory(str(tmp_path))
        assert len(closed) == 1
        monkeypatch.setattr(
            os, "open",
            lambda *a: (_ for _ in ()).throw(OSError("no dir open")),
        )
        _fsync_directory(str(tmp_path))  # silently a no-op

    def test_round_trip_with_failed_cells(self, tmp_path, failed_record):
        ckpt = Checkpointer(cache_dir=str(tmp_path), fingerprint="a" * 32,
                            name="rt")
        ckpt.write([failed_record])
        state = load_checkpoint(str(tmp_path), "a" * 32)
        assert state.name == "rt"
        assert not state.complete
        assert state.failed == (failed_record,)
        ckpt.finalize([failed_record])
        assert load_checkpoint(str(tmp_path), "a" * 32).complete

    def test_older_document_resumes_its_quarantine(self, tmp_path,
                                                    failed_record):
        # Checkpoints used to carry completed-cell counts as well; the
        # counts are ignored and the quarantine ledger still restores.
        path = checkpoint_path(str(tmp_path), "e" * 32)
        os.makedirs(os.path.dirname(path))
        with open(path, "w") as handle:
            json.dump({
                "version": CHECKPOINT_VERSION, "fingerprint": "e" * 32,
                "name": "old", "total_cells": 9, "completed_cells": 4,
                "complete": False, "failed": [failed_record.to_dict()],
            }, handle)
        state = load_checkpoint(str(tmp_path), "e" * 32)
        assert state.failed == (failed_record,)
        engine = CampaignEngine()
        assert engine.restore_quarantine(state.failed) == 1

    def test_missing_checkpoint_is_none(self, tmp_path):
        assert load_checkpoint(str(tmp_path), "b" * 32) is None

    def test_corrupt_checkpoint_deleted_and_none(self, tmp_path):
        path = checkpoint_path(str(tmp_path), "c" * 32)
        os.makedirs(os.path.dirname(path))
        with open(path, "w") as handle:
            handle.write("{truncated by a kill")
        assert load_checkpoint(str(tmp_path), "c" * 32) is None
        assert not os.path.exists(path)

    def test_stale_version_rejected(self, tmp_path):
        path = checkpoint_path(str(tmp_path), "d" * 32)
        os.makedirs(os.path.dirname(path))
        with open(path, "w") as handle:
            json.dump({"version": 99, "fingerprint": "d" * 32}, handle)
        assert load_checkpoint(str(tmp_path), "d" * 32) is None


class TestFingerprint:
    def test_stable_and_campaign_sensitive(self, small_campaign):
        a = small_campaign(4)
        b = small_campaign(4)
        c = small_campaign(3)
        assert campaign_fingerprint(a) == campaign_fingerprint(b)
        assert campaign_fingerprint(a) != campaign_fingerprint(c)

    def test_fault_plan_changes_fingerprint(self, small_campaign):
        campaign = small_campaign(4)
        bare = campaign_fingerprint(campaign)
        plan = FaultPlan(name="p", episodes=(FaultEpisode(kind="ecc"),))
        with fault_injection(plan):
            faulted = campaign_fingerprint(campaign)
        with fault_injection(FaultPlan(name="empty")):
            disabled = campaign_fingerprint(campaign)
        assert faulted != bare
        assert disabled == bare  # empty plan is indistinguishable


class TestEngineLedger:
    """The engine writes the checkpoint when, and only when, it
    quarantines a cell."""

    def test_quarantine_writes_the_ledger(self, tmp_path, simple_workload,
                                          emr, device_a, device_b):
        from repro.faults.chaos import ChaosPolicy, chaos_injection
        from repro.runtime.executor import Cell, RetryPolicy

        cells = [Cell(simple_workload, emr, t) for t in (device_a, device_b)]
        ckpt = Checkpointer(cache_dir=str(tmp_path), fingerprint="a" * 32)
        engine = CampaignEngine(
            cache=RunCache(str(tmp_path)),
            policy=RetryPolicy(max_attempts=2, backoff_base_s=0.0),
            checkpointer=ckpt,
        )
        with chaos_injection(ChaosPolicy(doomed=(cells[1].key(),))):
            results = engine.run_cells(cells)
        assert results[0] is not None and results[1] is None
        state = load_checkpoint(str(tmp_path), "a" * 32)
        assert not state.complete
        assert [record.key for record in state.failed] == [cells[1].key()]
        assert state.failed[0].attempts == 2

    def test_clean_batch_writes_nothing(self, tmp_path, simple_workload,
                                        emr, device_a):
        from repro.runtime.executor import Cell

        ckpt = Checkpointer(cache_dir=str(tmp_path), fingerprint="b" * 32)
        engine = CampaignEngine(cache=RunCache(str(tmp_path)),
                                checkpointer=ckpt)
        engine.run_cells([Cell(simple_workload, emr, device_a)])
        assert not os.path.exists(ckpt.path)


class TestSigkillResume:
    """A campaign killed mid-batch resumes from the cells it finished."""

    CHILD = textwrap.dedent("""\
        import os, pickle, sys
        sys.path.insert(0, sys.argv[1])
        cache_dir = sys.argv[2]
        from repro.runtime import CampaignEngine, RunCache, executor
        from repro.runtime.executor import Cell

        with open(sys.argv[3], "rb") as handle:
            campaign = pickle.load(handle)
        cells = [
            Cell(w, campaign.platform, t, campaign.config)
            for t in (campaign.platform.local_target(),) + campaign.targets
            for w in campaign.workloads
        ]
        real_run, calls = executor.run_workloads, []

        def run_workloads(chunk):
            calls.append(chunk)
            if len(calls) == 2:
                os._exit(9)  # abrupt death, SIGKILL-style: no cleanup
            return real_run(chunk)

        executor.run_workloads = run_workloads
        executor.ANALYTIC_CHUNK_CELLS = 3
        # Fail-fast and no checkpointer: the run cache alone must keep
        # the three-cell fused chunk that finished before the kill.
        CampaignEngine(cache=RunCache(cache_dir)).run_cells(cells)
    """)

    def test_resume_after_kill_identical_and_incremental(
        self, tmp_path, small_campaign
    ):
        cache_dir = str(tmp_path / "cache")
        script = tmp_path / "child.py"
        script.write_text(self.CHILD)
        campaign = small_campaign(4)
        campaign_file = tmp_path / "campaign.pickle"
        campaign_file.write_bytes(pickle.dumps(campaign))
        proc = subprocess.run(
            [sys.executable, str(script), SRC_DIR, cache_dir,
             str(campaign_file)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 9, proc.stderr
        fingerprint = campaign_fingerprint(campaign)
        assert load_checkpoint(cache_dir, fingerprint) is None

        # Resume: same cache dir; the three finished cells must be
        # served from disk, everything else runs fresh.
        engine = CampaignEngine(cache=RunCache(cache_dir))
        resumed = Melody(engine=engine).run(campaign)
        total_unique = 2 * len(campaign.workloads)  # baseline + device
        assert engine.stats.cells_run == total_unique - 3
        assert engine.stats.cells_cached >= 3

        fresh = Melody(engine=CampaignEngine(cache=RunCache())).run(campaign)
        assert [r.slowdown_pct for r in resumed.records] == [
            r.slowdown_pct for r in fresh.records
        ]
