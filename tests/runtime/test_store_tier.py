"""Store-tier tests: promotion, warm reads, stats, and prune hygiene."""

import json

import pytest

from repro import obs
from repro.cpu.pipeline import run_workload
from repro.hw.cxl.eventdevice import EventDrivenDevice
from repro.runtime.cache import RunCache, run_key
from repro.runtime.checkpoint import Checkpointer
from repro.runtime.executor import CampaignEngine, Cell
from repro.runtime.serialize import run_result_to_dict

FP = "c" * 64


@pytest.fixture
def warm_cache(tmp_path, simple_workload, emr, device_a):
    """A cache with one analytic run promoted into the store tier."""
    cache = RunCache(str(tmp_path))
    key = run_key(simple_workload, emr, device_a)
    cache.put(key, run_workload(simple_workload, emr, device_a))
    assert cache.promote_store(FP) == 1
    return cache, key


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

    def test_keys_argument_scopes_promotion(self, tmp_path, simple_workload,
                                            emr, device_a, device_b):
        cache = RunCache(str(tmp_path))
        key_a = run_key(simple_workload, emr, device_a)
        key_b = run_key(simple_workload, emr, device_b)
        cache.put(key_a, run_workload(simple_workload, emr, device_a))
        cache.put(key_b, run_workload(simple_workload, emr, device_b))
        assert cache.promote_store(FP, keys=[key_a]) == 1
        assert key_a in cache.store
        assert key_b not in cache.store


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

    def test_store_read_equals_json_read(self, warm_cache, tmp_path):
        cache, key = warm_cache
        json_only = RunCache(str(tmp_path), store_tier=False)
        reference = run_result_to_dict(json_only.get(key))
        cache.clear_memory()
        assert run_result_to_dict(cache.get(key)) == reference

    def test_store_tier_optional(self, tmp_path):
        assert RunCache(str(tmp_path), store_tier=False).store is None
        assert RunCache().store is None


class TestEngineStats:
    def test_cells_from_store_counted(self, tmp_path, simple_workload,
                                      emr, device_a):
        cache = RunCache(str(tmp_path))
        cell = Cell(simple_workload, emr, device_a)
        engine = CampaignEngine(cache=cache)
        engine.run_cells([cell])
        cache.promote_store(FP)
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
            cache.promote_store(FP)
            cache.clear_memory()
            CampaignEngine(cache=cache).run_cells([cell])
            snapshot = json.loads(registry.to_json())
            assert snapshot["gauges"]["runtime.store_hits"] == 1
            assert snapshot["counters"]["runtime.store_promoted"] == 1
        finally:
            obs.disable_metrics()


class TestPruneHygiene:
    def test_prune_spares_store_and_checkpoints(self, tmp_path,
                                                simple_workload, emr,
                                                device_a):
        """Satellite: prune must never sweep non-run-document tenants."""
        cache = RunCache(str(tmp_path))
        key = run_key(simple_workload, emr, device_a)
        cache.put(key, run_workload(simple_workload, emr, device_a))
        cache.promote_store(FP)
        Checkpointer(cache_dir=str(tmp_path), fingerprint="a" * 64,
                     name="camp", total_cells=3, completed=3).write(
            [], complete=True)
        manifest = (
            tmp_path / "store" / "manifests" / (FP + ".json")
        )
        checkpoint = tmp_path / "checkpoints" / ("a" * 64 + ".json")
        assert manifest.exists() and checkpoint.exists()

        removed = RunCache(str(tmp_path)).prune(min_age_s=0.0)
        assert removed == {"documents": 0, "blobs": 0, "temp_files": 0}
        assert manifest.exists() and checkpoint.exists()
        # the run document and its blobs survive too
        assert RunCache(str(tmp_path), store_tier=False).get(key) \
            is not None

    def test_prune_scans_populated_blob_dir_once(self, tmp_path,
                                                 simple_workload, emr,
                                                 device_a, device_b):
        """Satellite: blobs/ entries are one pass, not rglob'd twice."""
        cache = RunCache(str(tmp_path))
        key_a = run_key(simple_workload, emr, device_a)
        key_b = run_key(simple_workload, emr, device_b)
        cache.put(key_a, run_workload(simple_workload, emr, device_a))
        cache.put(key_b, run_workload(simple_workload, emr, device_b))
        blob_dir = tmp_path / "blobs"
        blobs = sorted(blob_dir.glob("*.json"))
        assert blobs, "expected populated blobs/ directory"
        orphan = blob_dir / ("0" * 32 + ".json")
        orphan.write_text("{}")

        removed = RunCache(str(tmp_path)).prune(min_age_s=0.0)
        # exactly the orphan goes; every referenced blob stays
        assert removed == {"documents": 0, "blobs": 1, "temp_files": 0}
        assert not orphan.exists()
        for blob in blobs:
            assert blob.exists()
        fresh = RunCache(str(tmp_path), store_tier=False)
        assert fresh.get(key_a) is not None
        assert fresh.get(key_b) is not None
