"""Shared fixtures for the Melody test suite."""

import numpy as np
import pytest

from repro.hw.cxl import cxl_a, cxl_b, cxl_c, cxl_d
from repro.hw.platform import EMR2S, SKX2S, SPR2S
from repro.workloads.base import Phase, WorkloadSpec


@pytest.fixture
def rng():
    """A deterministic numpy generator for test sampling."""
    return np.random.default_rng(1234)


@pytest.fixture
def emr():
    """The EMR2S reference platform."""
    return EMR2S


@pytest.fixture
def skx():
    """The SKX2S platform (SKX microarchitecture)."""
    return SKX2S


@pytest.fixture
def spr():
    """The SPR2S platform."""
    return SPR2S


@pytest.fixture
def local_target(emr):
    """EMR socket-local DRAM."""
    return emr.local_target()


@pytest.fixture
def numa_target(emr):
    """EMR cross-socket DRAM."""
    return emr.numa_target()


@pytest.fixture
def device_a():
    """CXL-A expander."""
    return cxl_a()


@pytest.fixture
def device_b():
    """CXL-B expander."""
    return cxl_b()


@pytest.fixture
def device_c():
    """CXL-C (FPGA) expander."""
    return cxl_c()


@pytest.fixture
def device_d():
    """CXL-D (x16) expander."""
    return cxl_d()


@pytest.fixture
def all_devices(device_a, device_b, device_c, device_d):
    """All four expanders in paper order."""
    return [device_a, device_b, device_c, device_d]


@pytest.fixture
def simple_workload():
    """A small generic workload for pipeline tests."""
    return WorkloadSpec(
        name="test-simple",
        suite="test",
        instructions=100_000_000,
        l1_mpki=25.0,
        l2_mpki=9.0,
        l3_mpki=2.0,
        mlp=4.0,
        prefetch_friendliness=0.5,
    )


@pytest.fixture
def phased_workload():
    """A two-phase workload for period-analysis tests."""
    return WorkloadSpec(
        name="test-phased",
        suite="test",
        instructions=200_000_000,
        l1_mpki=25.0,
        l2_mpki=9.0,
        l3_mpki=2.0,
        phases=(
            Phase(0.6, {"l3_mpki": 2.0}, label="hot"),
            Phase(0.4, {"l3_mpki": 0.4}, label="cold"),
        ),
    )


@pytest.fixture
def compute_workload():
    """A compute-bound workload (minimal memory traffic)."""
    return WorkloadSpec(
        name="test-compute",
        suite="test",
        instructions=100_000_000,
        l1_mpki=3.0,
        l2_mpki=0.8,
        l3_mpki=0.05,
        prefetch_friendliness=0.7,
        stores_pki=30,
        store_rfo_fraction=0.1,
    )


@pytest.fixture
def bandwidth_workload():
    """A bandwidth-bound workload saturating small CXL devices."""
    return WorkloadSpec(
        name="test-bandwidth",
        suite="test",
        instructions=100_000_000,
        base_cpi=0.45,
        l1_mpki=80.0,
        l2_mpki=55.0,
        l3_mpki=34.0,
        mlp=14.0,
        prefetch_friendliness=0.9,
        store_rfo_fraction=0.4,
        writeback_ratio=0.8,
        threads=4,
        latency_class="bandwidth",
    )


@pytest.fixture
def small_campaign():
    """Factory for a small real campaign: N workloads on CXL-A.

    The first ``n_workloads`` workloads that fit the device, so every
    workload contributes one baseline and one device cell.
    """
    from repro.core.melody import Campaign
    from repro.workloads import all_workloads

    def build(n_workloads=4):
        target = cxl_a()
        fitting = tuple(
            w for w in all_workloads()
            if w.working_set_gb <= target.capacity_gb
        )[:n_workloads]
        return Campaign(name="small", platform=EMR2S, targets=(target,),
                        workloads=fitting)

    return build
