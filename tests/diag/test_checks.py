"""The invariant suite: green on shipped models, trips on broken ones."""

import pytest

from repro.diag import DiagContext, run_checks
from repro.diag.registry import LAYERS
from repro.hw.cxl import cxl_a
from repro.hw.cxl.device import CxlDevice


class DriftedDevice(CxlDevice):
    """A device whose instantiated idle latency drifts off Table 1."""

    def idle_latency_ns(self):
        return super().idle_latency_ns() + 25.0


class NonMonotoneDevice(CxlDevice):
    """A device whose loaded latency dips below the unloaded floor."""

    def mean_latency_ns(self, load_gbps=0.0):
        base = super().mean_latency_ns(load_gbps)
        return base - 60.0 if load_gbps > 0.0 else base


def _failed_checks(report):
    return {result.check for result in report.results if not result.ok}


class TestShippedModels:
    def test_cheap_layers_pass(self):
        report = run_checks(layers=["link", "device", "workloads"])
        assert report.ok, report.render()

    def test_counters_layer_passes(self):
        report = run_checks(layers=["counters"])
        assert report.ok, report.render()

    def test_suite_covers_every_layer(self):
        report = run_checks(layers=["link"])
        assert {r.layer for r in report.results} == {"link"}
        assert set(LAYERS) == {"link", "device", "counters", "workloads",
                               "runtime", "store", "obs", "faults", "dist"}


class TestBrokenModels:
    def test_idle_drift_trips_table1_calibration(self):
        ctx = DiagContext.default().with_targets(
            [DriftedDevice(cxl_a().profile)]
        )
        report = run_checks(ctx, layers=["device"])
        assert not report.ok
        assert "table1-calibration" in _failed_checks(report)
        [violation] = [
            v for v in report.violations if v.check == "table1-calibration"
        ]
        assert "idle latency drifted" in violation.message
        assert violation.subject == "CXL-A"

    def test_latency_dip_trips_floor_and_monotonicity(self):
        ctx = DiagContext.default().with_targets(
            [NonMonotoneDevice(cxl_a().profile)]
        )
        report = run_checks(ctx, layers=["device"])
        failed = _failed_checks(report)
        assert "latency-floor" in failed
        assert "latency-monotone" in failed

    def test_report_renders_the_failure(self):
        ctx = DiagContext.default().with_targets(
            [DriftedDevice(cxl_a().profile)]
        )
        rendered = run_checks(ctx, layers=["device"]).render()
        assert "FAIL" in rendered
        assert "table1-calibration" in rendered
        assert "validate: all invariants hold" not in rendered

    def test_thread_dependent_kernel_trips_thread_identity(
        self, monkeypatch
    ):
        import threading

        import repro.hw.cxl.eventdevice as eventdevice_mod

        fused = eventdevice_mod.batch_timeline

        def racy(inputs):
            # Stands in for kernels that share buffers across threads.
            timelines = fused(inputs)
            if threading.current_thread() is not threading.main_thread():
                for timeline in timelines:
                    timeline.latencies_ns[0] += 1.0
            return timelines

        monkeypatch.setattr(eventdevice_mod, "batch_timeline", racy)
        report = run_checks(layers=["device"])
        assert _failed_checks(report) == {"eventsim-thread-identity"}
        subjects = {
            v.subject for v in report.violations
            if v.check == "eventsim-thread-identity"
        }
        vector = {s for s in subjects if s.endswith("/vector")}
        assert vector and subjects - vector == {"all-devices/batch"}

    def test_unknown_layer_rejected(self):
        with pytest.raises(ValueError, match="unknown diag layer"):
            run_checks(layers=["device", "nope"])
