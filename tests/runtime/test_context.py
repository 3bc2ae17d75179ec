"""Process-wide engine tests: env seeding, reconfiguration, isolation."""

import pytest

from repro.runtime.context import (
    configure_runtime,
    get_engine,
    reset_runtime,
    runtime_stats,
)


@pytest.fixture(autouse=True)
def fresh_runtime():
    reset_runtime()
    yield
    reset_runtime()


class TestGetEngine:
    def test_singleton_until_reset(self):
        engine = get_engine()
        assert get_engine() is engine
        reset_runtime()
        assert get_engine() is not engine

    def test_defaults_serial_memory_only(self):
        engine = get_engine()
        assert engine.policy is None
        assert engine.cache.cache_dir is None

    def test_env_seeding(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        engine = get_engine()
        assert str(engine.cache.cache_dir) == str(tmp_path)


class TestConfigureRuntime:
    def test_replaces_shared_engine(self, tmp_path):
        before = get_engine()
        engine = configure_runtime(cache_dir=str(tmp_path))
        assert get_engine() is engine is not before
        assert str(engine.cache.cache_dir) == str(tmp_path)

    def test_none_keeps_current_values(self, tmp_path):
        configure_runtime(cache_dir=str(tmp_path))
        engine = configure_runtime()
        assert str(engine.cache.cache_dir) == str(tmp_path)

    def test_stats_accessor(self):
        assert runtime_stats() is get_engine().stats


class TestStoreRowsMerge:
    """Rows appended through the shared engine end up in one manifest,
    and the part files an unclosed engine leaves stay few."""

    @staticmethod
    def _manifests(cache_dir):
        return sorted(
            p.name for p in (cache_dir / "store" / "manifests").glob("*.json")
        )

    def test_env_seeded_engine_leaves_few_parts(self, monkeypatch,
                                                tmp_path, emr, device_a):
        from repro.runtime.executor import Cell
        from repro.store.store import PART_FAN_IN
        from repro.workloads import all_workloads

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        engine = get_engine()
        flushes = PART_FAN_IN + 4
        for workload in all_workloads()[:flushes]:  # one flush each
            engine.run_cells([Cell(workload, emr, device_a)])
        assert engine.cache.stores == flushes
        # One folded part and four single ones.
        assert len(self._manifests(tmp_path)) == 5
        reset_runtime()  # closes the engine's cache: one manifest
        assert self._manifests(tmp_path) == ["runs.json"]

    def test_configure_runtime_merges_the_replaced_cache(
        self, tmp_path, simple_workload, emr, device_a
    ):
        from repro.runtime.executor import Cell

        engine = configure_runtime(cache_dir=str(tmp_path))
        engine.run_cells([Cell(simple_workload, emr, device_a)])
        assert len(self._manifests(tmp_path)) == 1  # a part
        assert "@" in self._manifests(tmp_path)[0]
        configure_runtime()
        assert self._manifests(tmp_path) == ["runs.json"]

    def test_failing_campaign_still_merges(self, monkeypatch, tmp_path):
        from repro.cli import main
        from repro.runtime.cache import RunCache

        real = RunCache.flush

        def flush_then_fail(self):
            real(self)  # the chunk's rows land as a part...
            raise RuntimeError("campaign failed")  # ...then the run dies

        monkeypatch.setattr(RunCache, "flush", flush_then_fail)
        with pytest.raises(RuntimeError, match="campaign failed"):
            main(["campaign", "--suite", "GAPBS", "--targets", "cxl-a",
                  "--sample", "6", "--cache-dir", str(tmp_path)])
        (name,) = self._manifests(tmp_path)
        assert "@" not in name
