"""Job-scoped checkpoints: concurrent same-fingerprint jobs don't clobber.

Two jobs running the *same* campaign share a fingerprint; with one
checkpoint path their atomic writes silently overwrite each other's
progress.  A ``job_id`` gives each writer its own document.  The SIGKILL
test reproduces the serve scenario end to end: a process running twin
same-campaign jobs in two threads dies abruptly, and each job's
checkpoint survives independently -- then the campaign resumes from one
of them without re-running its checkpointed cells.
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
                            name="t", total_cells=4, every=1,
                            job_id="job-a")
        ckpt.tick(1, [])
        with open(ckpt.path) as handle:
            assert json.load(handle)["job_id"] == "job-a"
        # The empty id keeps the historical document shape.
        bare = Checkpointer(cache_dir=str(tmp_path),
                            fingerprint="e" * 32, every=1)
        bare.tick(1, [])
        with open(bare.path) as handle:
            assert "job_id" not in json.load(handle)

    def test_concurrent_twins_do_not_clobber(self, tmp_path):
        fingerprint = "a" * 32
        failure = FailedCell(key="k", workload="w", platform="p",
                             target="t", attempts=2, reason="error")

        def job(job_id, completions, failed):
            ckpt = Checkpointer(
                cache_dir=str(tmp_path), fingerprint=fingerprint,
                name=job_id, total_cells=completions, every=1,
                job_id=job_id,
            )
            for _ in range(completions):
                ckpt.tick(1, failed)

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
        assert a.completed_cells == 37 and a.name == "job-a"
        assert b.completed_cells == 53 and b.name == "job-b"
        assert a.failed == () and b.failed == (failure,)
        # Neither job ever saw (or overwrote) the unscoped path.
        assert load_checkpoint(str(tmp_path), fingerprint) is None


class TestSigkillResumeWithTwin:
    """SIGKILL mid-campaign with a concurrent same-fingerprint twin."""

    CHILD = textwrap.dedent("""\
        import os, pickle, sys, threading
        sys.path.insert(0, sys.argv[1])
        cache_dir = sys.argv[2]
        from repro.runtime import (
            CampaignEngine, Checkpointer, RunCache, campaign_fingerprint,
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

        def job(job_id, n_cells, result_dir):
            # Private result caches: a cache hit does not tick the
            # checkpointer, so sharing one would make counts racy.  The
            # *checkpoints* directory is shared -- that is the surface
            # under test.
            engine = CampaignEngine(cache=RunCache(result_dir))
            engine.checkpointer = Checkpointer(
                cache_dir=cache_dir,
                fingerprint=fingerprint,
                name=job_id,
                total_cells=len(cells),
                every=1,
                job_id=job_id,
            )
            engine.run_cells(cells[:n_cells])

        twin = threading.Thread(
            target=job, args=("job-b", 2, cache_dir + "-twin")
        )
        twin.start()
        job("job-a", 3, cache_dir)
        twin.join()
        os._exit(9)  # abrupt death: no flush, no finalize
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

        fingerprint = campaign_fingerprint(campaign)
        a = load_checkpoint(cache_dir, fingerprint, "job-a")
        b = load_checkpoint(cache_dir, fingerprint, "job-b")
        assert a is not None and a.completed_cells == 3
        assert b is not None and b.completed_cells == 2
        assert a.name == "job-a" and b.name == "job-b"

        # Resume job-a: its three checkpointed cells come from its run
        # cache; results match a fresh single-process run exactly.
        engine = CampaignEngine(cache=RunCache(cache_dir))
        engine.restore_quarantine(a.failed)
        resumed = Melody(engine=engine).run(campaign)
        total_unique = 2 * len(campaign.workloads)
        assert engine.stats.cells_run == total_unique - 3
        assert engine.stats.cells_cached >= 3

        fresh = Melody(engine=CampaignEngine(cache=RunCache())).run(campaign)
        assert [r.slowdown_pct for r in resumed.records] == [
            r.slowdown_pct for r in fresh.records
        ]
