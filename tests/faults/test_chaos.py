"""Chaos-policy and chaos-harness tests (real forked worker sabotage)."""

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
from repro.faults.harness import fault_free_reference, run_chaos_campaign


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
    """End-to-end: a real campaign survives real worker sabotage."""

    def test_chaos_campaign_completes_with_quarantine(self):
        outcome = run_chaos_campaign(seed=31)
        [doom_key] = outcome.doomed_keys
        assert [f.key for f in outcome.result.failed] == [doom_key]
        [record] = outcome.result.failed
        assert record.reason == "error"
        assert record.attempts == 3
        assert "injected failure" in record.message
        assert outcome.engine.stats.cells_quarantined == 1
        assert len(outcome.result.records) == outcome.expected_records - 1

    def test_quarantined_cell_never_cached(self):
        outcome = run_chaos_campaign(seed=31)
        [doom_key] = outcome.doomed_keys
        assert outcome.engine.cache.get(doom_key) is None

    def test_survivors_identical_to_chaos_free_run(self):
        outcome = run_chaos_campaign(seed=31)
        reference = fault_free_reference(outcome.campaign)
        ref = {
            (r.workload, r.target): r.slowdown_pct
            for r in reference.records
        }
        assert outcome.result.records  # sanity: survivors exist
        for record in outcome.result.records:
            assert record.slowdown_pct == ref[(record.workload, record.target)]

    def test_worker_kills_survived(self):
        # kill_prob=1 for sabotaged attempts: every cell's first attempt
        # dies SIGKILL-style, every cell completes on a later attempt.
        outcome = run_chaos_campaign(
            seed=3, kill_prob=1.0, error_prob=0.0, doom_index=-1
        )
        assert outcome.doomed_keys == ()
        assert outcome.result.failed == []
        assert len(outcome.result.records) == outcome.expected_records
        assert outcome.engine.stats.cells_retried > 0
