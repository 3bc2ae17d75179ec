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
    def test_round_trip_identical(self, tmp_path, run, simple_workload, emr,
                                  device_a):
        key = run_key(simple_workload, emr, device_a)
        writer = RunCache(str(tmp_path))
        writer.put(key, run)

        reader = RunCache(str(tmp_path))
        reloaded = reader.get(key)
        assert reloaded == run
        assert reader.disk_hits == 1

    def test_documents_are_json_dumps_bytes(self, tmp_path, run,
                                           simple_workload, emr, device_a):
        # Run documents and blobs are written as one json.dumps string:
        # the bytes on disk are exactly what json.dumps makes of them.
        from repro.runtime.serialize import run_result_to_dict

        key = run_key(simple_workload, emr, device_a)
        RunCache(str(tmp_path)).put(key, run)
        files = [tmp_path / key[:2] / f"{key}.json"]
        files += sorted((tmp_path / "blobs").glob("*.json"))
        assert len(files) == 3
        for path in files:
            text = path.read_text()
            assert text == json.dumps(json.loads(text))
        doc = json.loads(files[0].read_text())
        expected = run_result_to_dict(run, embed_context=False)
        assert {k: v for k, v in doc.items()
                if not k.endswith("_ref")} == json.loads(json.dumps(expected))

    def test_blobs_shared_across_runs(self, tmp_path, simple_workload, emr,
                                      device_a, device_b):
        cache = RunCache(str(tmp_path))
        for target in (device_a, device_b):
            cache.put(
                run_key(simple_workload, emr, target),
                run_workload(simple_workload, emr, target),
            )
        # One workload blob + one platform blob, not two of each.
        blobs = list((tmp_path / "blobs").glob("*.json"))
        assert len(blobs) == 2

    def test_corrupt_entry_is_a_miss(self, tmp_path, run, simple_workload,
                                     emr, device_a):
        key = run_key(simple_workload, emr, device_a)
        RunCache(str(tmp_path)).put(key, run)
        path = tmp_path / key[:2] / f"{key}.json"
        path.write_text("{not json")
        assert RunCache(str(tmp_path)).get(key) is None

    def test_missing_blob_is_a_miss(self, tmp_path, run, simple_workload,
                                    emr, device_a):
        key = run_key(simple_workload, emr, device_a)
        RunCache(str(tmp_path)).put(key, run)
        path = tmp_path / key[:2] / f"{key}.json"
        data = json.loads(path.read_text())
        data["workload_ref"] = "0" * 32
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
        cache.clear_memory()
        assert len(cache) == 0
        assert cache.get(key) == run
        assert cache.disk_hits == 1


class TestHygiene:
    """Corrupt entries are deleted on detection."""

    def _entry_path(self, tmp_path, key):
        return tmp_path / key[:2] / f"{key}.json"

    def test_corrupt_entry_deleted_on_detection(self, tmp_path, run,
                                                simple_workload, emr,
                                                device_a):
        key = run_key(simple_workload, emr, device_a)
        RunCache(str(tmp_path)).put(key, run)
        path = self._entry_path(tmp_path, key)
        path.write_text("{not json")
        cache = RunCache(str(tmp_path))
        assert cache.get(key) is None
        assert not path.exists()
        assert cache.corrupt_dropped == 1
        assert cache.recovered == 1

    def test_recovery_visible_in_metrics(self, tmp_path, run,
                                         simple_workload, emr, device_a):
        from repro import obs

        key = run_key(simple_workload, emr, device_a)
        RunCache(str(tmp_path)).put(key, run)
        self._entry_path(tmp_path, key).write_text("{not json")
        obs.enable_metrics()
        try:
            RunCache(str(tmp_path)).get(key)
            counter = obs.metrics().counter("runtime.cache_recovered")
            assert counter.value == 1
        finally:
            obs.disable_metrics()

    def test_corrupt_blob_deleted_on_detection(self, tmp_path, run,
                                               simple_workload, emr,
                                               device_a):
        key = run_key(simple_workload, emr, device_a)
        RunCache(str(tmp_path)).put(key, run)
        doc = json.loads(self._entry_path(tmp_path, key).read_text())
        blob = tmp_path / "blobs" / f"{doc['workload_ref']}.json"
        blob.write_text("{not json")
        cache = RunCache(str(tmp_path))
        assert cache.get(key) is None
        # Both the unusable blob and the document referencing it are gone.
        assert not blob.exists()
        assert not self._entry_path(tmp_path, key).exists()
        assert cache.corrupt_dropped == 2

    def test_stale_schema_entry_deleted(self, tmp_path, run, simple_workload,
                                        emr, device_a):
        key = run_key(simple_workload, emr, device_a)
        RunCache(str(tmp_path)).put(key, run)
        path = self._entry_path(tmp_path, key)
        path.write_text(json.dumps({"format_version": -1}))
        cache = RunCache(str(tmp_path))
        assert cache.get(key) is None
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
