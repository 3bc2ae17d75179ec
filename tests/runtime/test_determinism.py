"""Cached execution must be bit-identical to uncached runs.

These are acceptance tests of the runtime layer: a warm on-disk cache is
a pure performance feature -- every observable (slowdown vectors, counter
readings, full RunResults) matches the cold in-process path exactly, so
rendered figures stay byte-identical.  Cross-process identity (a
``--shards 2`` fleet vs a solo run) is covered by
``tests/dist/test_cli_dist.py``.
"""

import numpy as np
import pytest

from repro.core.melody import Melody
from repro.runtime.cache import RunCache
from repro.runtime.executor import CampaignEngine
from repro.workloads import all_workloads


@pytest.fixture
def fig8a_subset():
    """A small slice of the Figure 8a device campaign."""
    return Melody.device_campaign(workloads=all_workloads()[:6])


def _private_melody(cache_dir=None):
    engine = CampaignEngine(cache=RunCache(cache_dir))
    return Melody(engine=engine), engine


class TestWarmCacheDeterminism:
    def test_warm_disk_cache_returns_identical_runs(self, fig8a_subset,
                                                    tmp_path):
        cold, cold_engine = _private_melody(cache_dir=str(tmp_path))
        expected = cold.run(fig8a_subset)
        assert cold_engine.stats.cells_run > 0

        warm, warm_engine = _private_melody(cache_dir=str(tmp_path))
        actual = warm.run(fig8a_subset)
        assert warm_engine.stats.cells_run == 0
        assert warm_engine.stats.cells_cached == \
            warm_engine.stats.cells_requested

        for want, got in zip(expected.records, actual.records):
            assert want.run == got.run
            assert want.baseline == got.baseline
            assert want.slowdown_pct == got.slowdown_pct

    def test_disk_cache_matches_uncached_run(self, fig8a_subset, tmp_path):
        plain, _ = _private_melody()
        cached, _ = _private_melody(cache_dir=str(tmp_path))
        expected = plain.run(fig8a_subset)
        cached.run(fig8a_subset)  # populate the disk tier
        reloaded, engine = _private_melody(cache_dir=str(tmp_path))
        actual = reloaded.run(fig8a_subset)
        assert engine.cache.store_hits > 0
        for target in expected.target_names():
            np.testing.assert_array_equal(
                expected.slowdowns(target), actual.slowdowns(target)
            )
