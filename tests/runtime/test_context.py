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
