"""CampaignEngine tests: dedupe, ordering, stats, planning, sim cells."""

import pytest

import repro.runtime.executor as executor_mod
from repro.cpu.pipeline import PipelineConfig, run_workload
from repro.runtime.cache import RunCache
from repro.runtime.executor import (
    CampaignEngine,
    Cell,
    ExecutionPlanner,
    SimCell,
)


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

        monkeypatch.setattr(executor_mod, "run_workload", boom)
        with pytest.raises(RuntimeError):
            engine.run_cells(grid)


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


class TestPlanner:
    """The execution planner's cost-model decisions are pure policy --
    results are byte-identical either way -- but the decisions themselves
    carry a hard guarantee: no batch across incompatible cells."""

    @pytest.fixture
    def sim_cells(self):
        from repro.hw.cxl import CXL_DEVICES

        names = list(CXL_DEVICES)
        return [
            SimCell(device=names[i % len(names)], n_requests=600,
                    offered_gbps=3.0 + i)
            for i in range(8)
        ]

    def test_batch_never_groups_incompatible_cells(self, grid, sim_cells):
        planner = ExecutionPlanner()
        # Analytic cells have no batch kernel.
        assert not planner.batchable(grid)
        # A mixed set never batches.
        assert not planner.batchable(grid + sim_cells)
        # A sim cell pinned to a solo engine opts out for the whole set.
        pinned = sim_cells[:-1] + [
            SimCell(device=sim_cells[-1].device, n_requests=600,
                    offered_gbps=99.0, engine="scalar")
        ]
        assert not planner.batchable(pinned)
        for cells in (grid, grid + sim_cells, pinned):
            for mode in ("auto", "batch"):
                plan = planner.plan(cells, mode=mode)
                assert plan.choice == "serial"

    def test_auto_batches_sim_cells(self, sim_cells):
        plan = ExecutionPlanner().plan(sim_cells, mode="auto")
        assert plan.choice == "batch"
        assert plan.est_s <= plan.est_serial_s

    def test_unknown_mode_rejected(self, grid):
        from repro.errors import ConfigurationError

        for mode in ("fastest", "pool"):
            with pytest.raises(ConfigurationError):
                ExecutionPlanner().plan(grid, mode=mode)


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

    def test_sim_documents_survive_prune(self, sim_grid, tmp_path):
        """prune() must not garbage-collect blob-free eventsim documents."""
        cache_dir = str(tmp_path / "runs")
        hot = CampaignEngine(cache=RunCache(cache_dir))
        hot.run_cells(sim_grid)
        cache = RunCache(cache_dir)
        assert cache.prune() == {"documents": 0, "blobs": 0, "temp_files": 0}
        warm = CampaignEngine(cache=cache)
        warm.run_cells(sim_grid)
        assert warm.stats.cells_run == 0

    def test_key_excludes_engine(self):
        from repro.hw.cxl import CXL_DEVICES

        name = next(iter(CXL_DEVICES))
        base = dict(device=name, n_requests=500, offered_gbps=3.0)
        keys = {
            SimCell(engine=engine, **base).key()
            for engine in ("auto", "scalar", "vector", "batch")
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
        assert engine.stats.last_plan == "batch(cost-model)"
        assert "[plan: batch(cost-model)]" in engine.stats.summary()
