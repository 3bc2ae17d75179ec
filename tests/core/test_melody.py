"""Melody campaign orchestration tests."""

import pytest

from repro.core.melody import Campaign, Melody, campaign_cells
from repro.errors import AnalysisError, ConfigurationError
from repro.runtime.cache import RunCache
from repro.runtime.executor import CampaignEngine
from repro.workloads import all_workloads


@pytest.fixture
def small_population():
    return all_workloads()[::24]


@pytest.fixture
def campaign(emr, device_a, device_b, small_population):
    return Campaign(
        name="test",
        platform=emr,
        targets=(device_a, device_b),
        workloads=small_population,
    )


class TestCampaignExecution:
    def test_record_counts(self, campaign, small_population):
        result = Melody().run(campaign)
        fitting = [
            w for w in small_population if w.working_set_gb <= 128
        ]
        assert len(result.records) == 2 * len(fitting)

    def test_capacity_skipping(self, emr, device_c, small_population):
        campaign = Campaign(
            name="tiny-device", platform=emr, targets=(device_c,),
            workloads=small_population,
        )
        result = Melody().run(campaign)
        oversized = [w for w in small_population if w.working_set_gb > 16]
        assert len(result.skipped) == len(oversized)
        skipped_names = {name for name, _ in result.skipped}
        assert all(w.name in skipped_names for w in oversized)

    def test_plan_covers_every_cell(self, campaign):
        base, grid, skipped = campaign_cells(campaign)
        assert len(base) == len(campaign.workloads)
        assert len(grid) + len(skipped) == \
            len(campaign.workloads) * len(campaign.targets)

    def test_slowdowns_vector(self, campaign):
        result = Melody().run(campaign)
        values = result.slowdowns("CXL-A")
        assert len(values) > 0
        assert (values > -5.0).all()

    def test_unknown_target_rejected(self, campaign):
        result = Melody().run(campaign)
        with pytest.raises(AnalysisError):
            result.slowdowns("CXL-Z")

    def test_record_lookup(self, campaign, small_population):
        result = Melody().run(campaign)
        name = [w for w in small_population if w.working_set_gb <= 128][0].name
        record = result.record(name, "CXL-A")
        assert record.workload == name

    def test_pairs_for_spa(self, campaign):
        result = Melody().run(campaign)
        pairs = result.pairs("CXL-B")
        assert all(
            base.target_name != run.target_name for base, run in pairs
        )

    def test_baseline_cached_across_targets(self, campaign):
        melody = Melody()
        result = Melody().run(campaign)
        a = result.record(result.records[0].workload, "CXL-A").baseline
        b = result.record(result.records[0].workload, "CXL-B").baseline
        assert a is b

    def test_fraction_below(self, campaign):
        result = Melody().run(campaign)
        assert 0.0 <= result.fraction_below("CXL-A", 50.0) <= 1.0
        assert result.fraction_below("CXL-A", 1e9) == 1.0


class TestBaselineCollapse:
    """A target that coincides with the baseline must not run twice."""

    def test_local_target_reuses_baseline_runs(self, emr, device_a,
                                               simple_workload,
                                               compute_workload):
        engine = CampaignEngine(cache=RunCache())
        campaign = Campaign(
            name="dup-baseline",
            platform=emr,
            targets=(emr.local_target(), device_a),
            workloads=(simple_workload, compute_workload),
        )
        result = Melody(engine=engine).run(campaign)
        # 2 baselines + 2 local (collapse) + 2 device cells => 4 executions.
        assert engine.stats.cells_requested == 6
        assert engine.stats.cells_run == 4
        assert engine.stats.cells_cached == 2
        local = result.record(
            simple_workload.name, emr.local_target().name
        )
        assert local.run is local.baseline
        assert local.slowdown_pct == 0.0

    def test_explicit_baseline_in_targets_collapses(self, emr, device_a,
                                                    device_b,
                                                    simple_workload):
        engine = CampaignEngine(cache=RunCache())
        campaign = Campaign(
            name="explicit-baseline",
            platform=emr,
            targets=(device_a, device_b),
            workloads=(simple_workload,),
            baseline=device_a,
        )
        result = Melody(engine=engine).run(campaign)
        assert engine.stats.cells_run == 2  # device_a once, device_b once
        record = result.record(simple_workload.name, device_a.name)
        assert record.run is record.baseline
        assert record.slowdown_pct == 0.0


class TestStandardCampaigns:
    def test_device_campaign_structure(self):
        campaign = Melody.device_campaign(workloads=all_workloads()[:4])
        names = [t.name for t in campaign.targets]
        assert names[0].endswith("NUMA")
        assert "CXL-A" in names and "CXL-D" in names

    def test_latency_spectrum_has_11_setups(self):
        setups = Melody.latency_spectrum_setups()
        assert len(setups) == 11
        labels = [label for label, _, _ in setups]
        assert labels[0] == "SKX-140ns"
        assert labels[-1] == "SKX-410ns"

    def test_spectrum_execution(self, small_population):
        results = Melody().run_latency_spectrum(small_population[:5])
        assert len(results) == 11
        for result in results.values():
            assert result.records

    def test_empty_campaign_rejected(self, emr, device_a):
        with pytest.raises(ConfigurationError):
            Campaign(name="x", platform=emr, targets=(), workloads=(1,))
        with pytest.raises(ConfigurationError):
            Campaign(name="x", platform=emr, targets=(device_a,),
                     workloads=())
