"""Threaded RunCache stress: the races the serve worker pool exposes.

Before the concurrency sweep, two of these failed deterministically:
same-key writers shared one temp-file name per process, so concurrent
``os.replace`` calls raced each other into ``FileNotFoundError``; and
the memory tier's dict mutated under a concurrent reader.  The tests
pin both fixes under a tight thread switch interval so they stay honest
on GIL schedulers that switch rarely.
"""

import sys
import threading

import pytest

from repro.cpu.pipeline import run_workload
from repro.runtime.cache import RunCache, run_key


@pytest.fixture
def run(simple_workload, emr, device_a):
    return run_workload(simple_workload, emr, device_a)


@pytest.fixture
def tight_switching():
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(previous)


def _hammer(n_threads, body):
    """Run ``body(thread_index)`` in N threads; re-raise any failure."""
    errors = []
    barrier = threading.Barrier(n_threads)

    def wrapped(index):
        barrier.wait()
        try:
            body(index)
        except BaseException as exc:  # noqa: BLE001 -- reported below
            errors.append(exc)

    threads = [
        threading.Thread(target=wrapped, args=(i,))
        for i in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


class TestDiskTierThreads:
    def test_same_key_writers_do_not_collide(
        self, tmp_path, run, simple_workload, emr, device_a,
        tight_switching,
    ):
        # Historically: one shared tmp name per process => 7/8 threads
        # died in os.replace with FileNotFoundError.
        cache = RunCache(str(tmp_path))
        key = run_key(simple_workload, emr, device_a)

        def body(index):
            for _ in range(100):
                cache.put(key, run)
                cache.flush()

        _hammer(8, body)
        reloaded = RunCache(str(tmp_path)).get(key)
        assert reloaded == run
        assert list(tmp_path.rglob("*.tmp.*")) == []
        cache.close()
        (manifest,) = (tmp_path / "store" / "manifests").glob("*.json")
        fresh = RunCache(str(tmp_path))
        assert fresh.get(key) == run and fresh.store_hits == 1

    def test_writers_survive_a_concurrent_prune_loop(
        self, tmp_path, run, simple_workload, emr, device_a, device_b,
        tight_switching,
    ):
        # The cache no longer prunes; the interleaved writers of two
        # keys that used to race the prune loop remain.
        cache = RunCache(str(tmp_path))
        keys = [
            run_key(simple_workload, emr, target)
            for target in (device_a, device_b)
        ]

        def write_loop(index):
            for _ in range(150):
                cache.put(keys[index % len(keys)], run)
                cache.flush()

        _hammer(2, write_loop)
        for key in keys:
            assert RunCache(str(tmp_path)).get(key) == run


class TestMemoryTierThreads:
    def test_put_get_clear_do_not_corrupt(self, run, tight_switching):
        cache = RunCache()

        def body(index):
            for i in range(300):
                key = f"key-{index}-{i % 10}"
                cache.put_memory(key, run)
                cache.get(key)
                if i % 50 == 0:
                    cache.clear_memory()
                len(cache)

        _hammer(8, body)

    def test_counters_are_exact_for_memory_hits(self, run, tight_switching):
        # Counter increments are read-modify-write; under the lock the
        # totals must be exact, not approximately right.
        cache = RunCache()
        cache.put_memory("shared", run)
        n_threads, n_reads = 8, 500

        def body(index):
            for _ in range(n_reads):
                assert cache.get("shared") is not None

        _hammer(n_threads, body)
        assert cache.memory_hits == n_threads * n_reads
