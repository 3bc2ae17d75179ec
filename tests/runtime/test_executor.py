"""CampaignEngine tests: dedupe, ordering, stats, planning, sim cells."""

import pytest

import repro.runtime.executor as executor_mod
from repro.cpu.pipeline import PipelineConfig, run_workload, run_workloads
from repro.runtime.cache import RunCache
from repro.runtime.executor import CampaignEngine, Cell, SimCell


@pytest.fixture
def engine():
    return CampaignEngine(cache=RunCache())


@pytest.fixture
def grid(simple_workload, compute_workload, bandwidth_workload, emr,
         device_a, device_b):
    workloads = (simple_workload, compute_workload, bandwidth_workload)
    return [
        Cell(w, emr, t) for w in workloads for t in (device_a, device_b)
    ]


class TestRunCells:
    def test_results_in_cell_order(self, engine, grid):
        results = engine.run_cells(grid)
        assert len(results) == len(grid)
        for cell, result in zip(grid, results):
            assert result.workload is cell.workload
            assert result.target_name == cell.target.name

    def test_duplicates_run_once(self, engine, grid):
        results = engine.run_cells(grid + grid)
        assert engine.stats.cells_requested == 2 * len(grid)
        assert engine.stats.cells_run == len(grid)
        assert engine.stats.cells_cached == len(grid)
        for first, second in zip(results, results[len(grid):]):
            assert first is second

    def test_second_batch_fully_cached(self, engine, grid):
        engine.run_cells(grid)
        again = engine.run_cells(grid)
        assert engine.stats.cells_run == len(grid)
        assert engine.stats.cells_cached == len(grid)
        assert engine.stats.batches == 2
        assert all(r is s for r, s in zip(engine.run_cells(grid), again))

    def test_run_one_matches_direct_call(self, engine, simple_workload, emr,
                                         device_a):
        result = engine.run_one(simple_workload, emr, device_a)
        assert result == run_workload(simple_workload, emr, device_a)
        assert engine.run_one(simple_workload, emr, device_a) is result

    def test_config_distinguishes_cells(self, engine, simple_workload, emr,
                                        device_a):
        a = engine.run_one(simple_workload, emr, device_a)
        b = engine.run_one(simple_workload, emr, device_a,
                           PipelineConfig(seed=9))
        assert engine.stats.cells_run == 2
        assert a.counters != b.counters

    def test_run_errors_propagate(self, engine, grid, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("a genuine run failure")

        # The fused path runs run_workloads, the serial one run_workload.
        monkeypatch.setattr(executor_mod, "run_workload", boom)
        monkeypatch.setattr(executor_mod, "run_workloads", boom)
        with pytest.raises(RuntimeError):
            engine.run_cells(grid)

    def test_finished_cells_survive_a_failing_batch(self, grid, tmp_path,
                                                    monkeypatch):
        # No checkpointer: the run cache alone is the progress record,
        # so the fused chunk that finished before the second one raised
        # stays cached.
        calls = []

        def second_chunk_fails(cells):
            calls.append(cells)
            if len(calls) == 2:
                raise RuntimeError("a genuine run failure")
            return run_workloads(cells)

        monkeypatch.setattr(executor_mod, "ANALYTIC_CHUNK_CELLS", 3)
        monkeypatch.setattr(executor_mod, "run_workloads", second_chunk_fails)
        engine = CampaignEngine(cache=RunCache(str(tmp_path)))
        with pytest.raises(RuntimeError):
            engine.run_cells(grid)
        fresh = RunCache(str(tmp_path))
        assert [fresh.get(cell.key()) is not None for cell in grid] == [
            True, True, True, False, False, False,
        ]

    def test_serial_mode_caches_each_cell_before_the_next(
        self, grid, tmp_path, monkeypatch
    ):
        calls = []

        def fourth_fails(*args):
            calls.append(args)
            if len(calls) == 4:
                raise RuntimeError("a genuine run failure")
            return run_workload(*args)

        monkeypatch.setattr(executor_mod, "run_workload", fourth_fails)
        engine = CampaignEngine(cache=RunCache(str(tmp_path)), mode="serial")
        with pytest.raises(RuntimeError):
            engine.run_cells(grid)
        fresh = RunCache(str(tmp_path))
        assert [fresh.get(cell.key()) is not None for cell in grid] == [
            True, True, True, False, False, False,
        ]


class TestStats:
    def test_runs_per_second(self, engine, grid):
        assert engine.stats.runs_per_second() == 0.0
        engine.run_cells(grid)
        assert engine.stats.runs_per_second() > 0.0

    def test_summary_line(self, engine, grid):
        engine.run_cells(grid + grid)
        line = engine.stats.summary()
        assert line.startswith(f"runtime: {2 * len(grid)} cells")
        assert f"({len(grid)} run, {len(grid)} cached)" in line
        assert "runs/s" in line
        assert "50% hit rate" in line

    def test_all_cached_batch_reports_cached_throughput(self, engine, grid):
        """A warm batch must not advertise a misleading ``0.0 runs/s``."""
        engine.run_cells(grid)
        warm = CampaignEngine(cache=engine.cache)
        warm.run_cells(grid)
        line = warm.stats.summary()
        assert "0.0 runs/s" not in line
        assert "cached/s" in line
        assert "100% hit rate" in line
        assert warm.stats.cached_per_second() > 0.0

    def test_dedupe_tracked_separately(self, engine, grid):
        engine.run_cells(grid + grid)
        assert engine.stats.cells_deduped == len(grid)
        assert engine.stats.dedupe_ratio() == 0.5
        assert engine.stats.hit_rate() == 0.5


class TestBatchRule:
    """``auto`` splits a pending set by kind: analytic cells run fused
    through ``run_workloads`` and sim cells through one fused batch when
    every sim cell may join it; results are byte-identical either way and
    come back in input order."""

    @pytest.fixture
    def sim_cells(self):
        from repro.hw.cxl import CXL_DEVICES

        names = list(CXL_DEVICES)
        return [
            SimCell(device=names[i % len(names)], n_requests=600,
                    offered_gbps=3.0 + i)
            for i in range(8)
        ]

    @staticmethod
    def _ran(cells):
        engine = CampaignEngine(cache=RunCache())
        engine.run_cells(cells)
        return engine.stats

    def test_analytic_set_batches(self, grid):
        stats = self._ran(grid)
        assert stats.cells_batched == len(grid)
        assert stats.cells_serial == 0
        assert (stats.planner_serial, stats.planner_batch) == (0, 1)
        assert stats.last_plan == "batch"

    def test_mixed_set_splits_by_kind(self, grid, sim_cells):
        import numpy as np

        mixed = [cell for pair in zip(grid, sim_cells) for cell in pair]
        mixed += sim_cells[len(grid):]
        engine = CampaignEngine(cache=RunCache())
        results = engine.run_cells(mixed)
        assert engine.stats.cells_batched == len(mixed)
        assert engine.stats.cells_serial == 0
        assert engine.stats.last_plan == "batch"
        for cell, result in zip(mixed, results):
            if isinstance(cell, Cell):
                assert result == run_workload(
                    cell.workload, cell.platform, cell.target, cell.config
                )
            else:
                np.testing.assert_array_equal(
                    result.latencies_ns, cell.run().latencies_ns
                )

    def test_pinned_sim_cell_leaves_analytic_cells_fused(self, grid,
                                                         sim_cells):
        pinned = SimCell(device=sim_cells[0].device, n_requests=600,
                         offered_gbps=99.0, engine="scalar")
        stats = self._ran(grid + sim_cells + [pinned])
        assert stats.cells_batched == len(grid)
        assert stats.cells_serial == len(sim_cells) + 1
        assert stats.last_plan == "batch"

    def test_fused_analytic_identical_to_serial(self, grid):
        from repro.runtime.serialize import run_result_to_dict

        serial_engine = CampaignEngine(cache=RunCache(), mode="serial")
        serial = serial_engine.run_cells(grid)
        fused = CampaignEngine(cache=RunCache()).run_cells(grid)
        assert serial_engine.stats.cells_batched == 0
        assert serial_engine.stats.cells_serial == len(grid)
        assert [run_result_to_dict(r) for r in serial] == [
            run_result_to_dict(r) for r in fused
        ]

    def test_engine_pinned_cell_opts_whole_set_out(self, sim_cells):
        pinned = sim_cells[:-1] + [
            SimCell(device=sim_cells[-1].device, n_requests=600,
                    offered_gbps=99.0, engine="scalar")
        ]
        stats = self._ran(pinned)
        assert stats.cells_batched == 0
        assert stats.last_plan == "serial"

    def test_all_sim_set_batches(self, sim_cells):
        stats = self._ran(sim_cells)
        assert stats.cells_batched == len(sim_cells)
        assert (stats.planner_serial, stats.planner_batch) == (0, 1)
        assert stats.last_plan == "batch"

    @pytest.mark.parametrize("mode", ["fastest", "pool", "batch"])
    def test_unknown_mode_rejected_at_construction(self, mode):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="unknown engine mode"):
            CampaignEngine(cache=RunCache(), mode=mode)


class TestSimCells:
    @pytest.fixture
    def sim_grid(self):
        from repro.hw.cxl import CXL_DEVICES

        cells = []
        for name in CXL_DEVICES:
            for gbps in (3.0, 6.0):
                cells.append(
                    SimCell(device=name, n_requests=500, offered_gbps=gbps,
                            read_fraction=0.7)
                )
        return cells

    def test_batched_campaign_matches_solo(self, sim_grid):
        import numpy as np

        engine = CampaignEngine(cache=RunCache())
        batched = engine.run_cells(sim_grid)
        assert engine.stats.cells_batched == len(sim_grid)
        assert engine.stats.planner_batch == 1
        solo = [cell.run() for cell in sim_grid]
        for s, b in zip(solo, batched):
            np.testing.assert_array_equal(s.latencies_ns, b.latencies_ns)
            assert s.bank_conflicts == b.bank_conflicts
            assert s.refresh_collisions == b.refresh_collisions
            assert s.link_retries == b.link_retries

    def test_serial_mode_identical_results(self, sim_grid):
        import numpy as np

        batched = CampaignEngine(cache=RunCache()).run_cells(sim_grid)
        serial_eng = CampaignEngine(cache=RunCache(), mode="serial")
        serial = serial_eng.run_cells(sim_grid)
        assert serial_eng.stats.cells_batched == 0
        assert serial_eng.stats.cells_serial == len(sim_grid)
        for s, b in zip(serial, batched):
            np.testing.assert_array_equal(s.latencies_ns, b.latencies_ns)

    def test_sim_results_memoize(self, sim_grid):
        engine = CampaignEngine(cache=RunCache())
        first = engine.run_cells(sim_grid)
        again = engine.run_cells(sim_grid)
        assert engine.stats.cells_run == len(sim_grid)
        assert engine.stats.cells_cached == len(sim_grid)
        assert all(a is b for a, b in zip(first, again))

    def test_sim_results_persist_to_disk(self, sim_grid, tmp_path):
        """A warm --cache-dir process serves sim cells bit-identically."""
        import numpy as np

        cache_dir = str(tmp_path / "runs")
        hot = CampaignEngine(cache=RunCache(cache_dir))
        first = hot.run_cells(sim_grid)
        # A fresh cache instance = a fresh process: only the disk tier
        # survives, and it must satisfy every cell.
        warm = CampaignEngine(cache=RunCache(cache_dir))
        again = warm.run_cells(sim_grid)
        assert warm.stats.cells_run == 0
        assert warm.stats.cells_cached == len(sim_grid)
        for a, b in zip(first, again):
            np.testing.assert_array_equal(a.latencies_ns, b.latencies_ns)
            assert a.bank_conflicts == b.bank_conflicts
            assert a.refresh_collisions == b.refresh_collisions
            assert a.link_retries == b.link_retries
            assert a.engine == b.engine

    def test_key_excludes_engine(self):
        from repro.hw.cxl import CXL_DEVICES

        name = next(iter(CXL_DEVICES))
        base = dict(device=name, n_requests=500, offered_gbps=3.0)
        keys = {
            SimCell(engine=engine, **base).key()
            for engine in ("auto", "scalar", "vector")
        }
        assert len(keys) == 1

    def test_key_includes_fault_plan(self):
        from repro.faults.plan import (
            FaultEpisode, FaultPlan, fault_injection,
        )
        from repro.hw.cxl import CXL_DEVICES

        cell = SimCell(device=next(iter(CXL_DEVICES)), n_requests=500,
                       offered_gbps=3.0)
        plan = FaultPlan(name="keyed", episodes=(
            FaultEpisode(kind="link_retry_storm"),
        ))
        with fault_injection(plan):
            faulted = cell.key()
        assert faulted != cell.key()

    def test_pinned_engine_cell_runs_serially(self, sim_grid):
        pinned = [
            SimCell(device=c.device, n_requests=c.n_requests,
                    offered_gbps=c.offered_gbps,
                    read_fraction=c.read_fraction, engine="vector")
            for c in sim_grid
        ]
        engine = CampaignEngine(cache=RunCache())
        results = engine.run_cells(pinned)
        assert engine.stats.cells_batched == 0
        assert all(r.engine == "vector" for r in results)

    def test_plan_summarized_in_stats_line(self, sim_grid):
        engine = CampaignEngine(cache=RunCache())
        engine.run_cells(sim_grid)
        assert engine.stats.last_plan == "batch"
        assert "[plan: batch]" in engine.stats.summary()
