"""Store-tier tests: event-sim promotion, warm reads, stats, and read
errors.  Analytic runs reach the store through ``RunCache.put`` and a
flush; event-sim results through ``RunCache.promote_store``."""

import json

import pytest

from repro import obs
from repro.cpu.pipeline import run_workload
from repro.hw.cxl.eventdevice import EventDrivenDevice
from repro.runtime.cache import RunCache, run_key
from repro.runtime.executor import CampaignEngine, Cell
from repro.runtime.serialize import run_result_to_dict

FP = "c" * 64


@pytest.fixture
def warm_cache(tmp_path, simple_workload, emr, device_a):
    """A cache with one analytic run flushed into the store tier."""
    cache = RunCache(str(tmp_path))
    key = run_key(simple_workload, emr, device_a)
    cache.put(key, run_workload(simple_workload, emr, device_a))
    cache.flush()
    return cache, key


@pytest.fixture
def sim_cache(tmp_path, device_a):
    """A cache with one event-sim result promoted into the store tier."""
    cache = RunCache(str(tmp_path))
    cache.put_memory("e" * 64, EventDrivenDevice(device_a).simulate(500, 4.0))
    assert cache.promote_store(FP) == 1
    return cache, "e" * 64


class TestPromotion:
    def test_promote_requires_disk_tier(self):
        assert RunCache().promote_store(FP) == 0

    def test_promote_skips_already_stored(self, warm_cache):
        cache, _ = warm_cache
        assert cache.promote_store(FP) == 0

    def test_promote_eventsim_result(self, tmp_path, device_a):
        cache = RunCache(str(tmp_path))
        sim = EventDrivenDevice(device_a).simulate(500, 4.0)
        cache.put_memory("e" * 64, sim)
        assert cache.promote_store(FP) == 1
        assert canonical(cache.store.get("e" * 64)) == \
            canonical(sim.to_dict())

    def test_keys_argument_scopes_promotion(self, tmp_path, device_a,
                                            device_b):
        cache = RunCache(str(tmp_path))
        key_a, key_b = "a" * 64, "b" * 64
        cache.put_memory(key_a, EventDrivenDevice(device_a).simulate(
            500, 4.0))
        cache.put_memory(key_b, EventDrivenDevice(device_b).simulate(
            500, 4.0))
        assert cache.promote_store(FP, keys=[key_a]) == 1
        assert key_a in cache.store
        assert key_b not in cache.store

    def test_analytic_runs_are_never_promoted(self, tmp_path, simple_workload,
                                              emr, device_a):
        # put appends the row; there is nothing left to promote, flushed
        # or not.
        cache = RunCache(str(tmp_path))
        key = run_key(simple_workload, emr, device_a)
        cache.put(key, run_workload(simple_workload, emr, device_a))
        assert cache.promote_store(FP) == 0
        assert key not in cache.store
        cache.flush()
        assert key in cache.store


class TestDamagedManifest:
    @pytest.fixture(autouse=True)
    def fresh_runtime(self):
        from repro.runtime import reset_runtime

        reset_runtime()
        yield
        reset_runtime()

    def test_truncated_manifest_replaced_on_promotion(self, tmp_path,
                                                      capsys):
        from repro.cli import main
        from repro.store import Manifest

        args = ["campaign", "--suite", "GAPBS", "--targets", "cxl-a",
                "--sample", "4", "--cache-dir", str(tmp_path)]
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        assert main(args + ["--csv", str(first)]) == 0
        (path,) = (tmp_path / "store" / "manifests").glob("*.json")
        rows = len(Manifest.load(path))
        path.write_text('{"truncat')
        assert main(args + ["--csv", str(second)]) == 0
        capsys.readouterr()
        assert second.read_bytes() == first.read_bytes()
        assert len(Manifest.load(path)) == rows  # rewritten whole


def canonical(doc):
    from repro.store import canonical_document

    return canonical_document(doc)


class TestWarmReads:
    def test_warm_read_served_from_store(self, warm_cache):
        cache, key = warm_cache
        cache.clear_memory()
        result = cache.get(key)
        assert cache.store_hits == 1
        assert cache.disk_hits == 0
        assert result is not None

    def test_store_read_equals_json_read(self, sim_cache, tmp_path):
        cache, key = sim_cache
        json_only = RunCache(str(tmp_path), store_tier=False)
        reference = canonical(json_only.get(key).to_dict())
        cache.clear_memory()
        assert canonical(cache.get(key).to_dict()) == reference
        assert cache.store_hits == 1

    def test_store_read_equals_the_run_in_memory(self, warm_cache,
                                                 tmp_path):
        cache, key = warm_cache
        reference = run_result_to_dict(cache.get(key))
        assert run_result_to_dict(RunCache(str(tmp_path)).get(key)) \
            == reference
        assert RunCache(str(tmp_path), store_tier=False).get(key) is None

    def test_store_tier_optional(self, tmp_path):
        assert RunCache(str(tmp_path), store_tier=False).store is None
        assert RunCache().store is None


class TestEngineStats:
    def test_cells_from_store_counted(self, tmp_path, simple_workload,
                                      emr, device_a):
        cache = RunCache(str(tmp_path))
        cell = Cell(simple_workload, emr, device_a)
        engine = CampaignEngine(cache=cache)
        engine.run_cells([cell])  # appends and flushes the row
        cache.clear_memory()
        warm = CampaignEngine(cache=cache)
        warm.run_cells([cell])
        assert warm.stats.cells_from_store == 1
        assert warm.stats.cells_cached == 1
        assert "1 store" in warm.stats.summary()

    def test_summary_quiet_without_store_hits(self, simple_workload, emr,
                                              device_a):
        engine = CampaignEngine(cache=RunCache())
        engine.run_cells([Cell(simple_workload, emr, device_a)])
        assert "store" not in engine.stats.summary()
        assert "(1 run, 0 cached)" in engine.stats.summary()

    def test_store_hits_gauge_exported(self, tmp_path, simple_workload,
                                       emr, device_a):
        cache = RunCache(str(tmp_path))
        cell = Cell(simple_workload, emr, device_a)
        CampaignEngine(cache=cache).run_cells([cell])
        registry = obs.MetricsRegistry()
        obs.enable_metrics(registry)
        try:
            cache.clear_memory()
            CampaignEngine(cache=cache).run_cells([cell])
            snapshot = json.loads(registry.to_json())
            assert snapshot["gauges"]["runtime.store_hits"] == 1
        finally:
            obs.disable_metrics()


class TestStoreReadErrors:
    def test_damaged_segment_counted_and_json_serves(self, sim_cache,
                                                     tmp_path):
        cache, key = sim_cache
        reference = canonical(cache.get(key).to_dict())
        (segment,) = (tmp_path / "store" / "segments").glob("*.f64")
        segment.write_bytes(segment.read_bytes()[:8])  # truncated
        registry = obs.MetricsRegistry()
        obs.enable_metrics(registry)
        try:
            fresh = RunCache(str(tmp_path))
            assert canonical(fresh.get(key).to_dict()) == reference
            assert fresh.store_errors == 1
            assert (fresh.store_hits, fresh.disk_hits) == (0, 1)
            snapshot = json.loads(registry.to_json())
            assert snapshot["counters"]["runtime.store_read_errors"] == 1
        finally:
            obs.disable_metrics()

    def test_damaged_analytic_row_is_a_counted_miss(self, warm_cache,
                                                    tmp_path):
        _, key = warm_cache
        (segment,) = (tmp_path / "store" / "segments").glob("*.f64")
        segment.write_bytes(segment.read_bytes()[:8])  # truncated
        fresh = RunCache(str(tmp_path))
        assert fresh.get(key) is None
        assert (fresh.store_errors, fresh.misses) == (1, 1)

    def test_recomputed_row_heals_a_damaged_claim(
        self, warm_cache, tmp_path, simple_workload, emr, device_a
    ):
        _, key = warm_cache
        (segment,) = (tmp_path / "store" / "segments").glob("*.f64")
        segment.write_bytes(segment.read_bytes()[:8])  # truncated
        cache = RunCache(str(tmp_path))
        CampaignEngine(cache=cache).run_cells(
            [Cell(simple_workload, emr, device_a)]
        )
        cache.close()  # this writer's row takes over the key
        fresh = RunCache(str(tmp_path))
        assert fresh.get(key) is not None
        assert (fresh.store_hits, fresh.store_errors) == (1, 0)

    def test_flushed_recompute_takes_over_before_any_merge(
        self, warm_cache, tmp_path, simple_workload, emr, device_a
    ):
        _, key = warm_cache
        (segment,) = (tmp_path / "store" / "segments").glob("*.f64")
        segment.write_bytes(segment.read_bytes()[:8])  # truncated
        cache = RunCache(str(tmp_path))
        CampaignEngine(cache=cache).run_cells(
            [Cell(simple_workload, emr, device_a)]
        )
        assert cache.store_errors == 1  # the recompute flushed, no merge
        cache.clear_memory()
        assert cache.get(key) is not None
        assert (cache.store_hits, cache.store_errors) == (1, 1)
        for _ in range(2):  # every reopen before a merge reads it too
            fresh = RunCache(str(tmp_path))
            assert fresh.get(key) is not None
            assert (fresh.store_hits, fresh.store_errors) == (1, 0)

    def test_absent_key_is_not_an_error(self, warm_cache):
        cache, _ = warm_cache
        assert cache.get("0" * 64) is None
        assert cache.store_errors == 0
