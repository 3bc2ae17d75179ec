"""Batched fixed point vs the scalar oracle, bit for bit.

``BackendModel.solve_many`` and ``run_workloads`` must return exactly what
``solve`` and ``run_workload`` return on each row -- every stall
component, every operating-point field (``bandwidth_bound`` included),
every counter, down to the float bits and the Python types -- over
random workload subsets, every target kind, three platforms and both
prefetcher settings.
"""

import dataclasses
import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.backend import BackendModel
from repro.cpu.pipeline import PipelineConfig, run_workload, run_workloads
from repro.hw.cxl import CXL_DEVICES
from repro.hw.platform import EMR2S, SKX2S, SPR2S
from repro.hw.pooling import pool_views
from repro.hw.topology import (
    CxlNumaTopology,
    CxlSwitchTopology,
    InterleavedTarget,
)
from repro.workloads import all_workloads

PLATFORMS = {p.name: p for p in (SKX2S, SPR2S, EMR2S)}
WORKLOADS = all_workloads()
PHASED = [w for w in WORKLOADS if w.phases]
BURSTY = [w for w in WORKLOADS if w.burst_fraction > 0 and w.burst_ratio > 1]


def _target(kind, platform):
    if kind == "local":
        return platform.local_target()
    if kind == "numa":
        return platform.numa_target()
    if kind in CXL_DEVICES:
        return CXL_DEVICES[kind]()
    if kind == "CXL-A@95C":
        return CXL_DEVICES["CXL-A"]().at_temperature(95.0)
    if kind == "CXL-B+NUMA":
        return CxlNumaTopology(CXL_DEVICES["CXL-B"]())
    if kind == "CXL-C+Switch":
        return CxlSwitchTopology(CXL_DEVICES["CXL-C"]())
    if kind == "CXL-Dx2":
        return InterleavedTarget([CXL_DEVICES["CXL-D"](),
                                  CXL_DEVICES["CXL-D"]()])
    raise KeyError(kind)


TARGET_KINDS = (
    "local", "numa", *CXL_DEVICES, "CXL-A@95C", "CXL-B+NUMA",
    "CXL-C+Switch", "CXL-Dx2",
)


def _bits(value):
    """A structure that compares equal only for bit-identical values of
    the same types (float ``==`` would equate 0.0 and -0.0)."""
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(
            (f.name, _bits(getattr(value, f.name)))
            for f in dataclasses.fields(value)
        )
    if isinstance(value, (tuple, list)):
        return tuple(_bits(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _bits(v)) for k, v in value.items()))
    if isinstance(value, float):
        return (type(value).__name__, value.hex())
    return (type(value).__name__, value)


def _subset(seed, size):
    """Seeded workload subset that always holds a phased and a bursty
    workload, in shuffled order."""
    rng = np.random.default_rng(seed)
    picks = [WORKLOADS[i] for i in rng.choice(len(WORKLOADS), size,
                                              replace=False)]
    picks.append(PHASED[int(rng.integers(len(PHASED)))])
    picks.append(BURSTY[int(rng.integers(len(BURSTY)))])
    rng.shuffle(picks)
    return picks


def _specs(workloads):
    return [w.in_phase(ph) for w in workloads for ph in w.effective_phases()]


def _assert_solve_many_matches(model, specs, target):
    many = model.solve_many(specs, target)
    assert len(many) == len(specs)
    for spec, got in zip(specs, many):
        assert _bits(got) == _bits(model.solve(spec, target)), spec.name


@pytest.mark.parametrize("pf", [True, False], ids=["pf-on", "pf-off"])
@pytest.mark.parametrize("platform", sorted(PLATFORMS))
@pytest.mark.parametrize("kind", TARGET_KINDS)
def test_solve_many_matches_solve(kind, platform, pf):
    plat = PLATFORMS[platform]
    seed = zlib.crc32(f"{kind}/{platform}/{pf}".encode())
    model = BackendModel(plat, prefetchers_enabled=pf)
    _assert_solve_many_matches(
        model, _specs(_subset(seed, 12)), _target(kind, plat)
    )


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 30),
    kind=st.sampled_from(TARGET_KINDS),
    platform=st.sampled_from(sorted(PLATFORMS)),
    pf=st.booleans(),
)
def test_random_subsets_match(seed, size, kind, platform, pf):
    plat = PLATFORMS[platform]
    model = BackendModel(plat, prefetchers_enabled=pf)
    _assert_solve_many_matches(
        model, _specs(_subset(seed, size)), _target(kind, plat)
    )


@pytest.mark.parametrize("workload", [PHASED[0], BURSTY[0], WORKLOADS[0]],
                         ids=lambda w: w.name)
def test_batch_of_one(workload):
    model = BackendModel(EMR2S)
    for kind in TARGET_KINDS:
        target = _target(kind, EMR2S)
        _assert_solve_many_matches(model, _specs([workload]), target)


def test_empty_batch():
    assert BackendModel(EMR2S).solve_many([], CXL_DEVICES["CXL-A"]()) == []


def test_pooled_view_falls_back_to_solve():
    """A target that overrides ``distribution`` runs the scalar oracle."""
    views = pool_views(CXL_DEVICES["CXL-A"], hosts=3, per_neighbour_gbps=4.0)
    _assert_solve_many_matches(
        BackendModel(EMR2S), _specs(_subset(7, 10)), views[0]
    )


class TestErrors:
    """A row whose scalar solve raises raises the same error in a batch."""

    def _zero_lead(self):
        return replace(WORKLOADS[3], name="zero-lead", prefetch_lead_ns=0.0)

    def test_zero_prefetch_lead_raises_like_solve(self):
        model = BackendModel(EMR2S)
        target = CXL_DEVICES["CXL-B"]()
        bad = self._zero_lead()
        with pytest.raises(ZeroDivisionError):
            model.solve(bad, target)
        specs = _specs(WORKLOADS[:4]) + [bad] + _specs(WORKLOADS[4:8])
        with pytest.raises(ZeroDivisionError):
            model.solve_many(specs, target)

    def test_zero_lead_solves_with_prefetchers_off(self):
        model = BackendModel(EMR2S, prefetchers_enabled=False)
        specs = _specs(WORKLOADS[:4]) + [self._zero_lead()]
        _assert_solve_many_matches(model, specs, CXL_DEVICES["CXL-B"]())


@pytest.mark.parametrize("pf", [True, False], ids=["pf-on", "pf-off"])
@pytest.mark.parametrize("platform", sorted(PLATFORMS))
def test_run_workloads_matches_run_workload(platform, pf):
    """Whole runs, counters included, over a mixed-target cell list."""
    plat = PLATFORMS[platform]
    targets = [_target(kind, plat) for kind in TARGET_KINDS]
    configs = [PipelineConfig(prefetchers_enabled=pf),
               PipelineConfig(prefetchers_enabled=pf, seed=11,
                              counter_noise=0.05)]
    rng = np.random.default_rng(len(platform) + pf)
    cells = [
        (w, plat, targets[int(rng.integers(len(targets)))],
         configs[int(rng.integers(len(configs)))])
        for w in _subset(int(rng.integers(2**32)), 25)
    ]
    batched = run_workloads(cells)
    assert len(batched) == len(cells)
    for cell, got in zip(cells, batched):
        assert _bits(got) == _bits(run_workload(*cell)), cell[0].name


def test_run_workloads_mixes_platforms_and_prefetch_settings():
    target = CXL_DEVICES["CXL-D"]()
    cells = [
        (w, plat, target, PipelineConfig(prefetchers_enabled=pf))
        for w in _subset(3, 6)
        for plat in (SKX2S, EMR2S)
        for pf in (True, False)
    ]
    for cell, got in zip(cells, run_workloads(cells)):
        assert _bits(got) == _bits(run_workload(*cell))
