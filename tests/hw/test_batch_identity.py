"""Cross-engine bit-identity of the fused batch kernels.

A campaign cell's result must be byte-identical whether it ran solo
(scalar or vector engine) or fused into a batch with arbitrary
neighbours -- otherwise the engine's batch-or-serial choice would leak
into figures.  These tests sweep batched-vs-solo across devices, loads,
read/write mixes, and fault plans, plus the ragged shapes (B=1, mixed
request counts, a single bank) where padded batch kernels typically go
wrong.
"""

import numpy as np
import pytest

import repro.hw.cxl.eventdevice as eventdevice_mod
from repro.errors import ConfigurationError
from repro.faults.plan import FaultEpisode, FaultPlan, fault_injection
from repro.hw.cxl import CXL_DEVICES
from repro.hw.cxl.eventdevice import EventDrivenDevice, simulate_batch
from repro.hw.cxl.kernels import batch_chunks, batch_timeline
from repro.obs.trace import TraceBuffer, tracing, use_tracing

N_REQUESTS = 1_800
LOAD_FRACTIONS = (0.15, 0.5, 0.85)
READ_FRACTIONS = (1.0, 0.7, 0.0)


def _assert_identical(solo, batched):
    np.testing.assert_array_equal(solo.latencies_ns, batched.latencies_ns)
    assert solo.bank_conflicts == batched.bank_conflicts
    assert solo.refresh_collisions == batched.refresh_collisions
    assert solo.link_retries == batched.link_retries


def _check_points(points, engine="vector"):
    """Solo results vs one fused batch over the same operating points."""
    solo = [
        sim.simulate(n, gbps, read_fraction=rf, engine=engine)
        for sim, n, gbps, rf in points
    ]
    batched = simulate_batch(points)
    assert len(batched) == len(points)
    for s, b in zip(solo, batched):
        _assert_identical(s, b)
        assert b.engine == "batch"
    return batched


class TestBatchIdentity:
    def test_heterogeneous_campaign_grid(self):
        """All devices x loads x mixes fused into one batch."""
        points = []
        for name in CXL_DEVICES:
            device = CXL_DEVICES[name]()
            sim = EventDrivenDevice(device)
            peak = device.peak_bandwidth_gbps()
            for fraction in LOAD_FRACTIONS:
                for read_fraction in READ_FRACTIONS:
                    points.append(
                        (sim, N_REQUESTS, fraction * peak, read_fraction)
                    )
        _check_points(points)

    def test_batch_matches_scalar_reference(self):
        """Transitivity is not assumed: check directly against scalar."""
        points = []
        for name in CXL_DEVICES:
            device = CXL_DEVICES[name]()
            sim = EventDrivenDevice(device)
            points.append((sim, 700, 0.5 * device.peak_bandwidth_gbps(), 0.7))
        _check_points(points, engine="scalar")

    def test_batch_of_one(self):
        device = CXL_DEVICES[next(iter(CXL_DEVICES))]()
        sim = EventDrivenDevice(device)
        _check_points([(sim, N_REQUESTS, 5.0, 1.0)])

    def test_ragged_request_counts(self):
        """Mixed n per cell exercises the padded scan rows."""
        names = list(CXL_DEVICES)
        points = []
        for i, n in enumerate((1, 17, 400, 2_500, 997, 64, 1)):
            device = CXL_DEVICES[names[i % len(names)]]()
            sim = EventDrivenDevice(device)
            points.append((sim, n, 4.0 + i, 0.7 if i % 2 else 1.0))
        _check_points(points)

    def test_single_bank(self, monkeypatch):
        """One bank per cell serializes everything through one lane."""
        monkeypatch.setattr(eventdevice_mod, "BANKS_PER_CHANNEL", 1)
        points = []
        for name in CXL_DEVICES:
            device = CXL_DEVICES[name]()
            sim = EventDrivenDevice(device)
            points.append(
                (sim, 900, 0.3 * device.peak_bandwidth_gbps(), 1.0)
            )
        _check_points(points)

    def test_lanes_ending_many_rounds_apart(self, monkeypatch):
        """One fused chunk whose bank lanes run 1 to 400 rounds deep.

        A 1-request cell (one live lane among 32), a 64-bank cell (~50
        rounds per lane) and a single-bank cell (400 rounds in one lane)
        share a rounds loop, so most of its slots are padding: counting a
        padded slot or reading one back would show in the latencies or
        the refresh-collision counts, checked against the scalar loop.
        """
        inputs = []
        for name, n, banks_per_channel in (
            ("CXL-A", 1, 16), ("CXL-A", 3_000, 32), ("CXL-B", 400, 1),
        ):
            monkeypatch.setattr(
                eventdevice_mod, "BANKS_PER_CHANNEL", banks_per_channel
            )
            sim = EventDrivenDevice(CXL_DEVICES[name]())
            inputs.append((sim, sim._prepare(n, 6.0, 0.7)))
        depths = [int(np.bincount(inp.banks).max()) for _, inp in inputs]
        assert [inp.n_banks for _, inp in inputs] == [32, 64, 1]
        assert depths[0] == 1 and depths[1] < 100 and depths[2] == 400
        fused = batch_timeline([inp for _, inp in inputs])
        for (sim, inp), timeline in zip(inputs, fused):
            latencies, conflicts, refreshes, _ = sim._scalar_timeline(
                inp, None
            )
            np.testing.assert_array_equal(latencies, timeline.latencies_ns)
            assert conflicts == timeline.bank_conflicts
            assert refreshes == timeline.refresh_collisions

    def test_under_fault_plan(self):
        """Fault RNG streams are per-cell, so batching composes with RAS.

        The plan mixes a retry storm (mutates ``retry_draw``), a thermal
        window (per-cell ``service_scale``), and ECC stalls (post-engine
        latency adjustment) -- every mechanism the injector has.
        """
        plan = FaultPlan(
            name="batch-identity",
            episodes=(
                FaultEpisode(
                    kind="link_retry_storm",
                    start_ns=5_000, duration_ns=40_000,
                ),
                FaultEpisode(
                    kind="thermal_throttle",
                    start_ns=20_000, duration_ns=60_000,
                ),
                FaultEpisode(
                    kind="ecc",
                    start_ns=0.0, duration_ns=80_000,
                    ecc_single_prob=0.01,
                ),
            ),
        )
        points = []
        for name in CXL_DEVICES:
            device = CXL_DEVICES[name]()
            sim = EventDrivenDevice(device)
            peak = device.peak_bandwidth_gbps()
            for fraction in (0.3, 0.7):
                points.append((sim, 1_200, fraction * peak, 0.8))
        with fault_injection(plan):
            batched = _check_points(points)
            solo = [
                sim.simulate(n, gbps, read_fraction=rf, engine="vector")
                for sim, n, gbps, rf in points
            ]
        for s, b in zip(solo, batched):
            assert s.fault_plan == b.fault_plan is not None
            assert s.injected_retries == b.injected_retries
            assert s.throttled_requests == b.throttled_requests
            assert s.ecc_corrected == b.ecc_corrected
            assert s.poisoned_reads == b.poisoned_reads

    def test_engine_batch_on_simulate(self):
        """A batch of one point runs identically to the vector engine."""
        device = CXL_DEVICES[next(iter(CXL_DEVICES))]()
        sim = EventDrivenDevice(device)
        (batch,) = simulate_batch([(sim, 800, 5.0, 1.0)])
        vector = sim.simulate(800, 5.0, engine="vector")
        _assert_identical(vector, batch)
        assert batch.engine == "batch"

    def test_batch_refuses_tracing(self):
        device = CXL_DEVICES[next(iter(CXL_DEVICES))]()
        sim = EventDrivenDevice(device)
        with use_tracing(TraceBuffer()):
            with pytest.raises(ConfigurationError):
                simulate_batch([(sim, 800, 5.0, 1.0)])
        assert tracing() is None


class TestBatchChunks:
    def test_spans_cover_in_order(self):
        ns = [300] * 40
        banks = [64] * 40
        spans = batch_chunks(ns, banks)
        flat = [i for lo, hi in spans for i in range(lo, hi)]
        assert flat == list(range(40))

    def test_respects_element_target(self):
        from repro.hw.cxl.kernels import BATCH_CHUNK_ELEMS

        ns = [2_000] * 30
        spans = batch_chunks(ns, [64] * 30)
        assert len(spans) > 1
        for lo, hi in spans:
            assert sum(ns[lo:hi]) <= BATCH_CHUNK_ELEMS

    def test_oversized_cell_gets_own_chunk(self):
        from repro.hw.cxl.kernels import BATCH_CHUNK_ELEMS

        ns = [100, 5 * BATCH_CHUNK_ELEMS, 100]
        spans = batch_chunks(ns, [16, 16, 16])
        assert (1, 2) in spans

    def test_respects_lane_cap(self):
        from repro.hw.cxl.kernels import BATCH_CHUNK_LANES

        banks = [1_024] * 20
        spans = batch_chunks([10] * 20, banks)
        for lo, hi in spans:
            assert sum(banks[lo:hi]) <= BATCH_CHUNK_LANES

    def test_ragged_mix_splits_on_padded_size(self):
        """One 16000-request cell beside 127 two-request cells fits the
        request and lane caps, but stacked it would pad 127 rows to 16000
        requests; the long cell must get a chunk of its own."""
        from repro.hw.cxl.kernels import BATCH_CHUNK_ELEMS

        ns = [16_000] + [2] * 127
        banks = [16] + [32] * 127
        spans = batch_chunks(ns, banks)
        assert spans == [(0, 1), (1, 128)]
        for lo, hi in spans:
            assert hi - lo == 1 or (hi - lo) * max(ns[lo:hi]) \
                <= BATCH_CHUNK_ELEMS

    def test_ragged_mix_results_match_solo(self):
        cxl_a = EventDrivenDevice(CXL_DEVICES["CXL-A"]())
        cxl_b = EventDrivenDevice(CXL_DEVICES["CXL-B"]())
        points = [(cxl_b, 16_000, 6.0, 1.0)] + [
            (cxl_a, 2, 1.0 + 0.1 * i, 1.0) for i in range(127)
        ]
        batch = simulate_batch(points)
        for (sim, n, gbps, rf), got in zip(points, batch):
            _assert_identical(sim.simulate(n, gbps, rf, engine="vector"), got)

    def test_uniform_grid_spans_unchanged(self):
        """The simgrid shape -- 144 cells of 2000 requests over the four
        devices' bank counts -- splits on the request target alone, into
        the same eight-cell spans as before the padded bound."""
        ns = [2_000] * 144
        banks = [32] * 36 + [16] * 36 + [32] * 36 + [32] * 36
        assert batch_chunks(ns, banks) == [
            (lo, lo + 8) for lo in range(0, 144, 8)
        ]
