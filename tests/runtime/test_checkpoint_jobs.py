"""Job-scoped checkpoints: concurrent same-fingerprint jobs don't clobber.

Two jobs running the *same* campaign share a fingerprint; with one
checkpoint path their atomic writes silently overwrite each other's
quarantine ledger.  A ``job_id`` gives each writer its own document.
The SIGKILL test reproduces the serve scenario end to end: a process
running twin same-campaign jobs in two threads dies abruptly, each job's
quarantine ledger survives in its own file, and the campaign resumes
from the run cache without re-running the cells that finished.
"""

import json
import os
import pickle
import subprocess
import sys
import textwrap
import threading

import pytest

import repro
from repro.core.melody import Melody
from repro.errors import ConfigurationError
from repro.runtime.cache import RunCache
from repro.runtime.checkpoint import (
    Checkpointer,
    campaign_fingerprint,
    checkpoint_path,
    load_checkpoint,
)
from repro.runtime.executor import CampaignEngine, FailedCell

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


class TestJobScopedPaths:
    def test_job_id_scopes_the_file(self, tmp_path):
        bare = checkpoint_path(str(tmp_path), "f" * 32)
        a = checkpoint_path(str(tmp_path), "f" * 32, "job-a")
        b = checkpoint_path(str(tmp_path), "f" * 32, "job-b")
        assert len({bare, a, b}) == 3
        assert a.endswith(f"{'f' * 32}.job-a.json")
        assert bare.endswith(f"{'f' * 32}.json")  # historical path

    @pytest.mark.parametrize("bad", [
        "has space", "slash/ok", "a" * 65, "semi;colon", "new\nline",
    ])
    def test_invalid_job_ids_rejected(self, tmp_path, bad):
        with pytest.raises(ConfigurationError):
            checkpoint_path(str(tmp_path), "f" * 32, bad)
        with pytest.raises(ConfigurationError):
            Checkpointer(cache_dir=str(tmp_path), fingerprint="f" * 32,
                         job_id=bad)

    def test_document_embeds_the_job_id(self, tmp_path):
        ckpt = Checkpointer(cache_dir=str(tmp_path), fingerprint="f" * 32,
                            name="t", job_id="job-a")
        ckpt.write([])
        with open(ckpt.path) as handle:
            assert json.load(handle)["job_id"] == "job-a"
        # The empty id keeps the historical document shape.
        bare = Checkpointer(cache_dir=str(tmp_path), fingerprint="e" * 32)
        bare.write([])
        with open(bare.path) as handle:
            assert "job_id" not in json.load(handle)

    def test_concurrent_twins_do_not_clobber(self, tmp_path):
        fingerprint = "a" * 32
        failure = FailedCell(key="k", workload="w", platform="p",
                             target="t", attempts=2, reason="error")

        def job(job_id, writes, failed):
            ckpt = Checkpointer(
                cache_dir=str(tmp_path), fingerprint=fingerprint,
                name=job_id, job_id=job_id,
            )
            for _ in range(writes):
                ckpt.write(failed)

        threads = [
            threading.Thread(target=job, args=("job-a", 37, [])),
            threading.Thread(target=job, args=("job-b", 53, [failure])),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        a = load_checkpoint(str(tmp_path), fingerprint, "job-a")
        b = load_checkpoint(str(tmp_path), fingerprint, "job-b")
        assert a.name == "job-a" and b.name == "job-b"
        assert a.failed == () and b.failed == (failure,)
        # Neither job ever saw (or overwrote) the unscoped path.
        assert load_checkpoint(str(tmp_path), fingerprint) is None


class TestSigkillResumeWithTwin:
    """SIGKILL mid-campaign with a concurrent same-fingerprint twin."""

    CHILD = textwrap.dedent("""\
        import os, pickle, sys, threading
        sys.path.insert(0, sys.argv[1])
        cache_dir = sys.argv[2]
        from repro.faults.chaos import ChaosPolicy, chaos_injection
        from repro.runtime import (
            CampaignEngine, Checkpointer, RetryPolicy, RunCache,
            campaign_fingerprint, executor,
        )
        from repro.runtime.executor import Cell

        with open(sys.argv[3], "rb") as handle:
            campaign = pickle.load(handle)
        fingerprint = campaign_fingerprint(campaign)
        cells = [
            Cell(w, campaign.platform, t, campaign.config)
            for t in (campaign.platform.local_target(),) + campaign.targets
            for w in campaign.workloads
        ]

        def job(job_id, job_cells, result_dir, doomed):
            # Private result caches keep the twin's cells out of job-a's
            # resume; the *checkpoints* directory is shared -- that is
            # the surface under test.  The chaos policy is per thread,
            # so each job quarantines only its own doomed cell.
            engine = CampaignEngine(
                cache=RunCache(result_dir),
                policy=RetryPolicy(max_attempts=1),
                checkpointer=Checkpointer(
                    cache_dir=cache_dir, fingerprint=fingerprint,
                    name=job_id, job_id=job_id,
                ),
            )
            with chaos_injection(ChaosPolicy(doomed=(doomed.key(),))):
                engine.run_cells(job_cells)

        real_run, calls = executor.run_workload, []

        def run_workload(*args):
            # job-a runs on the main thread and dies inside its 4th
            # pipeline call, once the twin has finished.
            if threading.current_thread() is threading.main_thread():
                calls.append(args)
                if len(calls) == 4:
                    twin.join()
                    os._exit(9)  # abrupt death: no cleanup, no finalize
            return real_run(*args)

        executor.run_workload = run_workload
        twin = threading.Thread(
            target=job,
            args=("job-b", cells[-3:], cache_dir + "-twin", cells[-1]),
        )
        twin.start()
        job("job-a", cells, cache_dir, cells[1])
    """)

    def test_both_checkpoints_survive_and_resume_works(
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

        from repro.runtime.executor import Cell

        cells = [
            Cell(w, campaign.platform, t, campaign.config)
            for t in (campaign.platform.local_target(),) + campaign.targets
            for w in campaign.workloads
        ]
        fingerprint = campaign_fingerprint(campaign)
        a = load_checkpoint(cache_dir, fingerprint, "job-a")
        b = load_checkpoint(cache_dir, fingerprint, "job-b")
        assert a is not None and b is not None
        assert a.name == "job-a" and b.name == "job-b"
        assert not a.complete and not b.complete
        assert [record.key for record in a.failed] == [cells[1].key()]
        assert [record.key for record in b.failed] == [cells[-1].key()]
        assert load_checkpoint(cache_dir, fingerprint) is None

        # Resume job-a's campaign without the chaos that doomed its
        # cell: the three cells it finished come from its run cache,
        # and the records match a fresh single-process run exactly.
        engine = CampaignEngine(cache=RunCache(cache_dir))
        resumed = Melody(engine=engine).run(campaign)
        total_unique = 2 * len(campaign.workloads)
        assert engine.stats.cells_run == total_unique - 3
        assert engine.stats.cells_cached >= 3

        fresh = Melody(engine=CampaignEngine(cache=RunCache())).run(campaign)
        assert [r.slowdown_pct for r in resumed.records] == [
            r.slowdown_pct for r in fresh.records
        ]
