"""Concurrent simulations are bit-identical to serial ones.

``repro serve`` runs cold queries on a pool of worker threads, so the
event-simulation kernels must share no mutable state: every latency array
and RAS counter a thread computes has to equal the same simulation run
alone.  These tests race many threads over solo vector simulations and
fused batches (every CXL device, ragged request counts, seeded operating
points) and compare each result to its serial twin bit for bit.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.hw.cxl import CXL_DEVICES
from repro.hw.cxl.eventdevice import EventDrivenDevice, simulate_batch
from repro.rng import generator_for

RAGGED_N = (1_531, 2_048, 2_777)
ROUNDS = 4
COUNTERS = (
    "bank_conflicts",
    "refresh_collisions",
    "link_retries",
    "injected_retries",
    "poisoned_reads",
    "ecc_corrected",
    "throttled_requests",
)


@pytest.fixture(autouse=True)
def fast_thread_switching():
    """Switch threads often, so any shared buffer is caught mid-use."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


def _points(seed):
    """Seeded (sim, n, load, read_fraction) points: devices x ragged n."""
    rng = generator_for(seed, "thread-identity")
    points = []
    for name in CXL_DEVICES:
        sim = EventDrivenDevice(CXL_DEVICES[name](), seed=seed)
        peak = sim.device.peak_bandwidth_gbps(1.0)
        for n in RAGGED_N:
            load = float(rng.uniform(0.1, 0.9)) * peak
            read_fraction = float(rng.choice([1.0, 0.7, 0.0]))
            points.append((sim, n, load, read_fraction))
    return points


def _vector_jobs(points):
    return [
        lambda p=p: [p[0].simulate(p[1], p[2], read_fraction=p[3],
                                   engine="vector")]
        for p in points
    ]


def _batch_jobs(points):
    # Rotations give every fused call a different neighbour layout.
    step = len(RAGGED_N)
    return [
        lambda k=k: simulate_batch(points[k:] + points[:k])
        for k in range(0, len(points), step)
    ]


def _assert_identical(expected, got):
    assert len(expected) == len(got)
    for e, g in zip(expected, got):
        np.testing.assert_array_equal(e.latencies_ns, g.latencies_ns)
        for name in COUNTERS:
            assert getattr(e, name) == getattr(g, name), name


def _race(jobs, threads, seed):
    """Run every job ROUNDS times, shuffled, on ``threads`` threads."""
    serial = [job() for job in jobs]
    order = list(range(len(jobs))) * ROUNDS
    generator_for(seed, "thread-order").shuffle(order)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        concurrent = list(pool.map(lambda i: jobs[i](), order, timeout=120))
    for i, got in zip(order, concurrent):
        _assert_identical(serial[i], got)


@pytest.mark.parametrize("threads", [2, 4, 8])
@pytest.mark.parametrize("make_jobs", [_vector_jobs, _batch_jobs],
                         ids=["vector", "batch"])
@pytest.mark.parametrize("seed", [3, 11])
def test_concurrent_matches_serial(threads, make_jobs, seed):
    _race(make_jobs(_points(seed)), threads, seed)


def test_vector_and_batch_race_each_other():
    """Solo and fused kernels running at once stay independent too."""
    points = _points(5)
    _race(_vector_jobs(points) + _batch_jobs(points), 4, 5)
