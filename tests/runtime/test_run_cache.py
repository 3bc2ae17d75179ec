"""Run cache tests: content addressing plus the memory and disk tiers."""

import dataclasses
import json

import pytest

from repro.cpu.pipeline import PipelineConfig, run_workload
from repro.hw.cxl import cxl_a
from repro.runtime.cache import RunCache, run_key


@pytest.fixture
def run(simple_workload, emr, device_a):
    return run_workload(simple_workload, emr, device_a)


class TestRunKey:
    def test_stable_across_equal_objects(self, simple_workload, emr):
        a = run_key(simple_workload, emr, cxl_a())
        b = run_key(simple_workload, emr, cxl_a())
        assert a == b

    def test_differs_by_target(self, simple_workload, emr, device_a, device_b):
        assert run_key(simple_workload, emr, device_a) != run_key(
            simple_workload, emr, device_b
        )

    def test_differs_by_workload(
        self, simple_workload, compute_workload, emr, device_a
    ):
        assert run_key(simple_workload, emr, device_a) != run_key(
            compute_workload, emr, device_a
        )

    def test_differs_by_platform(self, simple_workload, emr, spr, device_a):
        assert run_key(simple_workload, emr, device_a) != run_key(
            simple_workload, spr, device_a
        )

    def test_differs_by_config(self, simple_workload, emr, device_a):
        assert run_key(simple_workload, emr, device_a) != run_key(
            simple_workload, emr, device_a, PipelineConfig(seed=7)
        )
        assert run_key(simple_workload, emr, device_a) != run_key(
            simple_workload, emr, device_a,
            PipelineConfig(prefetchers_enabled=False),
        )

    def test_behaviour_beats_name(self, simple_workload, emr, device_a):
        # Same name, recalibrated device model => different key.
        tweaked = dataclasses.replace(
            device_a.profile, idle_latency_ns=device_a.idle_latency_ns() + 25
        )
        other = type(device_a)(tweaked)
        assert other.name == device_a.name
        assert run_key(simple_workload, emr, device_a) != run_key(
            simple_workload, emr, other
        )


class TestMemoryTier:
    def test_miss_then_hit(self, run, simple_workload, emr, device_a):
        cache = RunCache()
        key = run_key(simple_workload, emr, device_a)
        assert cache.get(key) is None
        cache.put(key, run)
        assert cache.get(key) is run
        assert cache.memory_hits == 1 and cache.misses == 1

    def test_len_counts_entries(self, run):
        cache = RunCache()
        assert len(cache) == 0
        cache.put("k1", run)
        cache.put("k2", run)
        assert len(cache) == 2


class TestDiskTier:
    """Analytic runs persist as store rows, durable once flushed."""

    def test_round_trip_identical(self, tmp_path, run, simple_workload, emr,
                                  device_a):
        key = run_key(simple_workload, emr, device_a)
        writer = RunCache(str(tmp_path))
        writer.put(key, run)
        writer.flush()

        reader = RunCache(str(tmp_path))
        reloaded = reader.get(key)
        assert reloaded == run
        assert reader.store_hits == 1
        assert reader.disk_hits == 0

    def test_unflushed_rows_are_not_on_disk(self, tmp_path, run,
                                            simple_workload, emr, device_a):
        key = run_key(simple_workload, emr, device_a)
        RunCache(str(tmp_path)).put(key, run)
        assert RunCache(str(tmp_path)).get(key) is None
        assert list(tmp_path.rglob("*.json")) == []

    def test_blobs_shared_across_runs(self, tmp_path, simple_workload, emr,
                                      device_a, device_b):
        from repro.store import ResultStore

        cache = RunCache(str(tmp_path))
        for target in (device_a, device_b):
            cache.put(
                run_key(simple_workload, emr, target),
                run_workload(simple_workload, emr, target),
            )
        cache.close()
        # One workload blob + one platform blob, not two of each.
        (manifest,) = ResultStore(tmp_path / "store").manifests()
        assert len(manifest) == 2
        assert len(manifest.blobs) == 2

    def test_corrupt_entry_is_a_miss(self, tmp_path, run, simple_workload,
                                     emr, device_a):
        key = run_key(simple_workload, emr, device_a)
        cache = RunCache(str(tmp_path))
        cache.put(key, run)
        cache.flush()
        (segment,) = (tmp_path / "store" / "segments").glob("*.f64")
        segment.write_bytes(segment.read_bytes()[:8])  # truncated
        fresh = RunCache(str(tmp_path))
        assert fresh.get(key) is None
        assert (fresh.store_errors, fresh.misses) == (1, 1)

    def test_missing_blob_is_a_miss(self, tmp_path, run, simple_workload,
                                    emr, device_a):
        key = run_key(simple_workload, emr, device_a)
        cache = RunCache(str(tmp_path))
        cache.put(key, run)
        cache.close()
        (path,) = (tmp_path / "store" / "manifests").glob("*.json")
        data = json.loads(path.read_text())
        data["blobs"] = {}
        path.write_text(json.dumps(data))
        assert RunCache(str(tmp_path)).get(key) is None

    def test_cache_dir_must_be_a_directory(self, tmp_path):
        from repro.errors import ConfigurationError

        path = tmp_path / "a-file"
        path.write_text("")
        with pytest.raises(ConfigurationError):
            RunCache(str(path))

    def test_clear_memory_keeps_disk(self, tmp_path, run, simple_workload,
                                     emr, device_a):
        key = run_key(simple_workload, emr, device_a)
        cache = RunCache(str(tmp_path))
        cache.put(key, run)
        cache.flush()
        cache.clear_memory()
        assert len(cache) == 0
        assert cache.get(key) == run
        assert cache.store_hits == 1

    def test_close_merges_parts_into_one_named_manifest(
        self, tmp_path, simple_workload, emr, device_a, device_b
    ):
        cache = RunCache(str(tmp_path))
        cache.name_rows("ab" * 16, "job1")
        keys = []
        for target in (device_a, device_b):
            keys.append(run_key(simple_workload, emr, target))
            cache.put(keys[-1], run_workload(simple_workload, emr, target))
            cache.flush()
        manifests = tmp_path / "store" / "manifests"
        assert len(list(manifests.glob("*@*.json"))) == 2
        cache.close()
        assert [p.name for p in manifests.glob("*.json")] \
            == [f"{'ab' * 16}.job1.json"]
        fresh = RunCache(str(tmp_path))
        assert all(fresh.get(key) is not None for key in keys)
        assert fresh.store_hits == 2

    def test_old_analytic_document_is_a_miss(self, tmp_path, run,
                                             simple_workload, emr,
                                             device_a):
        from repro.runtime.cache import run_document

        key = run_key(simple_workload, emr, device_a)
        path = tmp_path / key[:2] / f"{key}.json"
        path.parent.mkdir()
        path.write_text(json.dumps(run_document(run)))
        cache = RunCache(str(tmp_path))
        assert cache.get(key) is None
        assert not path.exists()


def _sim():
    from repro.hw.cxl.eventdevice import EventDrivenDevice

    return EventDrivenDevice(cxl_a()).simulate(200, 4.0)


class TestHygiene:
    """Corrupt JSON documents (event-sim results) are deleted on
    detection."""

    KEY = "e" * 64

    def _entry_path(self, tmp_path, key):
        return tmp_path / key[:2] / f"{key}.json"

    def test_corrupt_entry_deleted_on_detection(self, tmp_path):
        RunCache(str(tmp_path)).put_memory(self.KEY, _sim())
        path = self._entry_path(tmp_path, self.KEY)
        path.write_text("{not json")
        cache = RunCache(str(tmp_path))
        assert cache.get(self.KEY) is None
        assert not path.exists()
        assert cache.corrupt_dropped == 1
        assert cache.recovered == 1

    def test_recovery_visible_in_metrics(self, tmp_path):
        from repro import obs

        RunCache(str(tmp_path)).put_memory(self.KEY, _sim())
        self._entry_path(tmp_path, self.KEY).write_text("{not json")
        obs.enable_metrics()
        try:
            RunCache(str(tmp_path)).get(self.KEY)
            counter = obs.metrics().counter("runtime.cache_recovered")
            assert counter.value == 1
        finally:
            obs.disable_metrics()

    def test_stale_schema_entry_deleted(self, tmp_path):
        RunCache(str(tmp_path)).put_memory(self.KEY, _sim())
        path = self._entry_path(tmp_path, self.KEY)
        path.write_text(json.dumps({"format_version": -1}))
        cache = RunCache(str(tmp_path))
        assert cache.get(self.KEY) is None
        assert not path.exists()

    def test_failed_write_cleans_temp_file(self, tmp_path, run,
                                           simple_workload, emr, device_a):
        cache = RunCache(str(tmp_path))
        key = run_key(simple_workload, emr, device_a)
        path = cache._disk_path(key)
        import os

        os.makedirs(os.path.dirname(path), exist_ok=True)
        with pytest.raises(TypeError):
            cache._atomic_write(path, {"bad": object()})  # not JSON-safe
        assert list(tmp_path.rglob("*.tmp.*")) == []
