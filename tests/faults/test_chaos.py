"""Chaos-policy and chaos-harness tests (real worker sabotage)."""

import re
import shutil

import pytest

from repro.errors import MelodyError
from repro.faults.chaos import (
    ChaosError,
    ChaosPolicy,
    active_chaos,
    chaos_injection,
    clear_chaos,
    install_chaos,
)
from repro.dist.harness import (
    SMOKE_SPEC,
    WorkerPlan,
    doomed_key,
    run_dist_campaign,
    solo_records,
)
from repro.runtime.cache import RunCache
from repro.runtime.executor import RetryPolicy


class TestPolicy:
    def test_probabilities_validated(self):
        with pytest.raises(MelodyError, match="probabilities"):
            ChaosPolicy(kill_prob=0.6, hang_prob=0.6)
        with pytest.raises(MelodyError, match="probabilities"):
            ChaosPolicy(error_prob=-0.1)

    def test_action_deterministic(self):
        policy = ChaosPolicy(kill_prob=0.3, error_prob=0.3, seed=5)
        for attempt in (1, 2):
            assert policy.action("cell-x", attempt) == policy.action(
                "cell-x", attempt
            )

    def test_doomed_fails_every_attempt(self):
        policy = ChaosPolicy(doomed=("cell-d",), max_sabotaged_attempt=1)
        assert policy.action("cell-d", 1) == "error"
        assert policy.action("cell-d", 99) == "error"
        assert policy.action("cell-other", 99) == "none"

    def test_attempts_beyond_sabotage_depth_are_clean(self):
        policy = ChaosPolicy(kill_prob=1.0, max_sabotaged_attempt=2)
        assert policy.action("cell-x", 1) == "kill"
        assert policy.action("cell-x", 2) == "kill"
        assert policy.action("cell-x", 3) == "none"

    def test_partition_covers_all_actions(self):
        policy = ChaosPolicy(kill_prob=0.33, hang_prob=0.33,
                             error_prob=0.33, seed=2)
        seen = {
            policy.action(f"cell-{i}", 1) for i in range(200)
        }
        assert seen == {"kill", "hang", "error", "none"}

    def test_apply_error_raises(self):
        policy = ChaosPolicy(doomed=("cell-d",))
        with pytest.raises(ChaosError, match="injected failure"):
            policy.apply("cell-d", 1)

    def test_install_and_scope(self):
        policy = ChaosPolicy(error_prob=0.1)
        try:
            install_chaos(policy)
            assert active_chaos() is policy
            with chaos_injection(ChaosPolicy()) as inner:
                assert active_chaos() is inner
            assert active_chaos() is policy
        finally:
            clear_chaos()
        assert active_chaos() is None


class TestHarness:
    """End-to-end: a real campaign survives real worker sabotage.

    The one chaos harness is :mod:`repro.dist.harness` (in-process
    workers, injected errors, a doomed cell); real process death runs
    through the CLI's local fleet.
    """

    @pytest.fixture(scope="class")
    def doomed_run(self, tmp_path_factory):
        cache_dir = str(tmp_path_factory.mktemp("chaos"))
        doomed = doomed_key(SMOKE_SPEC, index=1)
        chaos = ChaosPolicy(error_prob=0.4, max_sabotaged_attempt=2,
                            doomed=(doomed,), seed=31)
        outcome = run_dist_campaign(
            cache_dir,
            workers=(WorkerPlan(cell_chaos=chaos),
                     WorkerPlan(cell_chaos=chaos)),
            policy=RetryPolicy(max_attempts=3, backoff_base_s=0.0),
        )
        # Assemble from a copy: a cache miss would write the doomed cell.
        copy = str(tmp_path_factory.mktemp("assembled"))
        shutil.copytree(cache_dir, copy, dirs_exist_ok=True)
        return outcome, doomed, solo_records(SMOKE_SPEC, copy)

    def test_chaos_campaign_completes_with_quarantine(self, doomed_run):
        outcome, doomed, _ = doomed_run
        summary = outcome.summary
        assert summary.complete
        assert [f.key for f in summary.quarantined] == [doomed]
        [record] = summary.quarantined
        assert record.reason == "error"
        assert record.attempts == 3
        assert "injected failure" in record.message
        assert summary.committed == summary.units - 1

    def test_quarantined_cell_never_cached(self, doomed_run):
        outcome, doomed, _ = doomed_run
        assert RunCache(outcome.cache_dir).get(doomed) is None

    def test_survivors_identical_to_chaos_free_run(self, doomed_run):
        outcome, doomed, assembled = doomed_run
        [record] = outcome.summary.quarantined

        def survivors(records):
            return [
                r for r in records
                if (r["workload"], r["target"])
                != (record.workload, record.target)
            ]

        reference = solo_records(SMOKE_SPEC, None)
        assert len(survivors(assembled)) == len(reference) - 1
        assert survivors(assembled) == survivors(reference)

    def test_worker_kills_survived(self, tmp_path, monkeypatch, capsys):
        # --chaos-kill 1: every cell's first attempt kills its worker
        # process (os._exit), so the local fleet completes only through
        # replacement workers, each started after a charged attempt.
        import repro.cli as cli
        from repro.runtime import reset_runtime

        argv = cli._fleet_worker_argv
        monkeypatch.setattr(
            cli, "_fleet_worker_argv",
            lambda *a: argv(*a) + ["--chaos-kill", "1"],
        )
        base = ["campaign", "--suite", "GAPBS", "--targets", "numa",
                "cxl-a", "--sample", "6"]
        exports = {}
        for run, extra in (
            ("solo", []),
            ("fleet", ["--cache-dir", str(tmp_path / "cache"),
                       "--cell-timeout", "30", "--shards", "1"]),
        ):
            reset_runtime()
            assert cli.main(base + extra + [
                "--csv", str(tmp_path / f"{run}.csv"),
                "--json", str(tmp_path / f"{run}.json"),
            ]) == 0
            exports[run] = [
                (tmp_path / f"{run}.{ext}").read_bytes()
                for ext in ("csv", "json")
            ]
        reset_runtime()
        assert exports["fleet"] == exports["solo"]
        summary = re.search(
            r"(\d+)/(\d+) units committed, 0 quarantined "
            r"\((\d+) worker connection", capsys.readouterr().out,
        )
        assert summary is not None
        committed, units, workers = map(int, summary.groups())
        assert committed == units and workers > 1  # replacements ran

    def test_killed_cell_quarantines_alone(
        self, tmp_path, monkeypatch, capsys
    ):
        # Under --cell-timeout every cell is granted alone, so a worker
        # killed by one cell charges that cell and no other: with one
        # attempt per cell, exactly it quarantines and the rest commit.
        import repro.cli as cli
        from repro.dist.coordinator import campaign_units
        from repro.dist.spec import CampaignSpec
        from repro.runtime import reset_runtime
        from repro.runtime.checkpoint import campaign_fingerprint

        base = ["campaign", "--suite", "GAPBS", "--targets", "numa",
                "cxl-a", "--sample", "6"]
        spec = CampaignSpec.from_args(cli.build_parser().parse_args(base))
        campaign = spec.build_campaign()
        units = campaign_units(campaign, campaign_fingerprint(campaign))
        seed = next(
            seed for seed in range(1000)
            if [u.kind for u in units if ChaosPolicy(
                kill_prob=0.1, seed=seed).action(u.key, 1) == "kill"]
            == ["grid"]
        )
        argv = cli._fleet_worker_argv
        monkeypatch.setattr(
            cli, "_fleet_worker_argv",
            lambda *a: argv(*a) + ["--chaos-kill", "0.1",
                                   "--chaos-seed", str(seed)],
        )
        reset_runtime()
        assert cli.main(base + ["--csv", str(tmp_path / "solo.csv")]) == 0
        reset_runtime()
        code = cli.main(base + [
            "--cache-dir", str(tmp_path / "cache"), "--cell-timeout", "30",
            "--cell-retries", "1", "--strict-cells",
            "--csv", str(tmp_path / "fleet.csv"),
        ])
        reset_runtime()
        out, err = capsys.readouterr()
        assert code == 3
        assert f"{len(units) - 1}/{len(units)} units committed, " \
            "1 quarantined" in out
        assert "1 cell(s) quarantined" in err
        assert "crash after 1 attempt(s)" in err
        solo = (tmp_path / "solo.csv").read_text().splitlines()
        fleet = (tmp_path / "fleet.csv").read_text().splitlines()
        assert len(fleet) == len(solo) - 1
        assert set(fleet) < set(solo)
