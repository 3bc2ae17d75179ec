"""Metrics registry tests: instruments, memoization, state, exports."""

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_NS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    disable_metrics,
    enable_metrics,
    metrics,
    use_registry,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestInstruments:
    def test_counter_accumulates(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            Counter().inc(-1.0)

    def test_gauge_replaces(self):
        gauge = Gauge()
        gauge.set(0.25)
        gauge.set(0.75)
        assert gauge.value == 0.75

    def test_histogram_buckets_inclusive_upper(self):
        hist = Histogram((10.0, 20.0))
        for value in (5.0, 10.0, 15.0, 999.0):
            hist.observe(value)
        assert hist.counts == [2, 1, 1]
        assert hist.count == 4
        assert hist.sum == pytest.approx(1029.0)
        assert hist.mean == pytest.approx(1029.0 / 4)

    def test_histogram_observe_many_matches_scalar(self, rng):
        values = rng.uniform(50.0, 12_000.0, size=500)
        scalar = Histogram(DEFAULT_LATENCY_BUCKETS_NS)
        vector = Histogram(DEFAULT_LATENCY_BUCKETS_NS)
        for value in values:
            scalar.observe(value)
        vector.observe_many(values)
        assert scalar.counts == vector.counts
        assert scalar.count == vector.count
        assert scalar.sum == pytest.approx(vector.sum)

    def test_histogram_observe_many_empty(self):
        hist = Histogram((1.0,))
        hist.observe_many(np.array([]))
        assert hist.count == 0

    def test_histogram_validates_bounds(self):
        with pytest.raises(ConfigurationError):
            Histogram(())
        with pytest.raises(ConfigurationError):
            Histogram((2.0, 1.0))


class TestRegistry:
    def test_memoizes_by_name_and_labels(self, registry):
        a = registry.counter("requests", device="CXL-A")
        b = registry.counter("requests", device="CXL-A")
        c = registry.counter("requests", device="CXL-B")
        assert a is b and a is not c
        assert len(registry) == 2

    def test_label_order_is_irrelevant(self, registry):
        a = registry.counter("x", one="1", two="2")
        b = registry.counter("x", two="2", one="1")
        assert a is b

    def test_cross_kind_name_reuse_rejected(self, registry):
        registry.counter("latency")
        with pytest.raises(ConfigurationError):
            registry.gauge("latency")
        with pytest.raises(ConfigurationError):
            registry.histogram("latency", device="CXL-A")
        assert registry.counter("latency", device="CXL-A").value == 0.0

    def test_to_dict_schema(self, registry):
        registry.counter("hits", device="CXL-A").inc(3)
        registry.gauge("rate").set(0.5)
        registry.histogram("wait", buckets=(1.0,)).observe(0.5)
        snapshot = registry.to_dict()
        assert snapshot["counters"] == {'hits{device="CXL-A"}': 3.0}
        assert snapshot["gauges"] == {"rate": 0.5}
        hist = snapshot["histograms"]["wait"]
        assert hist["counts"] == [1, 0] and hist["count"] == 1

    def test_to_json_round_trips(self, registry):
        registry.counter("hits").inc()
        parsed = json.loads(registry.to_json())
        assert parsed["counters"]["hits"] == 1.0


class TestPrometheus:
    def test_samples_and_single_type_line_per_family(self, registry):
        registry.counter("sim.requests", device="CXL-A").inc(5)
        registry.counter("sim.requests", device="CXL-B").inc(7)
        text = registry.to_prometheus()
        assert text.count("# TYPE repro_sim_requests counter") == 1
        assert 'repro_sim_requests{device="CXL-A"} 5' in text
        assert 'repro_sim_requests{device="CXL-B"} 7' in text

    def test_histogram_exposition(self, registry):
        hist = registry.histogram("lat", buckets=(10.0, 20.0))
        for value in (5.0, 15.0, 30.0):
            hist.observe(value)
        text = registry.to_prometheus()
        assert 'repro_lat_bucket{le="10"} 1' in text
        assert 'repro_lat_bucket{le="20"} 2' in text
        assert 'repro_lat_bucket{le="+Inf"} 3' in text
        assert "repro_lat_sum 50" in text
        assert "repro_lat_count 3" in text


class TestModuleState:
    def test_disabled_by_default(self):
        assert metrics().enabled is False
        assert isinstance(metrics(), NullRegistry)

    def test_null_instruments_are_shared_noops(self):
        null = NullRegistry()
        counter = null.counter("a", device="x")
        counter.inc(100)
        assert counter.value == 0.0
        assert counter is null.counter("b")
        assert len(null) == 0
        assert json.loads(null.to_json()) == {
            "counters": {}, "gauges": {}, "histograms": {},
        }

    def test_enable_disable_cycle(self):
        live = enable_metrics()
        try:
            assert metrics() is live and live.enabled
        finally:
            disable_metrics()
        assert metrics().enabled is False

    def test_use_registry_restores_previous(self):
        inner = MetricsRegistry()
        before = metrics()
        with use_registry(inner):
            assert metrics() is inner
        assert metrics() is before
