"""Campaign-engine throughput benchmark: cold serial vs warm cache.

Runs the same Figure 8a device-campaign subset through two engine
configurations and records cells/sec for each in ``BENCH_campaign.json``
(next to this file's repo root), so the runtime layer's perf trajectory is
tracked from PR to PR:

* ``cold_serial``    -- empty cache: the pre-runtime baseline.
* ``warm_cache``     -- disk cache populated by a prior run.

The warm path must beat cold-serial by a wide margin anywhere.
``cpu_count`` is recorded alongside the numbers for context; the engine
itself runs in one process (fanning out is the lease coordinator's job,
benchmarked in ``test_perf_dist.py``).

A second benchmark runs an *event-simulation* campaign -- a grid of
:class:`SimCell` operating points -- through the serial and fused
``batch`` strategies.  Correctness comes first: every cell's latencies and
RAS counters must be byte-identical across both strategies (asserted
before any timing lands in the report).  The ``batched`` row records the
fused-kernel throughput against the canonical analytic ``cold_serial``
baseline.  ``REPRO_BENCH_SMOKE=1`` shrinks the grid for CI and keeps the
identity assertions while dropping the throughput floors (which are
calibrated for this repo's reference box).
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.melody import Melody
from repro.hw.cxl import CXL_DEVICES
from repro.runtime.cache import RunCache
from repro.runtime.executor import CampaignEngine, SimCell
from repro.workloads import all_workloads

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_campaign.json"

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
SIM_CELLS = 96 if SMOKE else 384
SIM_N_REQUESTS = 150 if SMOKE else 200


def _campaign():
    return Melody.device_campaign(workloads=all_workloads()[::8])


def _timed_run(campaign, cache_dir=None):
    engine = CampaignEngine(cache=RunCache(cache_dir))
    start = time.perf_counter()
    result = Melody(engine=engine).run(campaign)
    elapsed = time.perf_counter() - start
    return result, engine, elapsed


def test_perf_campaign_throughput(tmp_path):
    campaign = _campaign()

    serial_result, serial_engine, serial_s = _timed_run(campaign)

    cache_dir = str(tmp_path / "runs")
    _timed_run(campaign, cache_dir=cache_dir)  # populate the disk tier
    warm_result, warm_engine, warm_s = _timed_run(
        campaign, cache_dir=cache_dir
    )

    cells = serial_engine.stats.cells_requested
    report = {
        "campaign": {
            "name": campaign.name,
            "workloads": len(campaign.workloads),
            "targets": len(campaign.targets),
            "cells": cells,
        },
        "cpu_count": os.cpu_count(),
        "cold_serial": {
            "seconds": round(serial_s, 4),
            "cells_per_second": round(cells / serial_s, 1),
        },
        "warm_cache": {
            "seconds": round(warm_s, 4),
            "cells_per_second": round(cells / warm_s, 1),
            "speedup_vs_cold_serial": round(serial_s / warm_s, 2),
        },
    }
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print()
    print(json.dumps(report, indent=2))

    # Correctness before speed: both paths agree bit-for-bit.
    for target in serial_result.target_names():
        assert list(serial_result.slowdowns(target)) == list(
            warm_result.slowdowns(target)
        )

    assert warm_engine.stats.cells_run == 0
    assert warm_s * 5 < serial_s, (
        f"warm cache {warm_s:.3f}s not >=5x faster than serial {serial_s:.3f}s"
    )


def _sim_grid():
    """A heterogeneous event-sim campaign: B cells, all keys distinct."""
    names = list(CXL_DEVICES)
    cells = []
    for i in range(SIM_CELLS):
        fraction = 0.15 + 0.7 * (i % 97) / 96.0
        cells.append(
            SimCell(
                device=names[i % len(names)],
                n_requests=SIM_N_REQUESTS,
                offered_gbps=round(2.0 + 30.0 * fraction + 0.001 * i, 3),
                read_fraction=(1.0, 0.7, 0.0)[i % 3],
            )
        )
    return cells


def _run_sim(cells, mode, repeats=1):
    """Run the grid on fresh engines (own cache tier: nothing is warm).

    ``repeats > 1`` reruns the cold pass and keeps the fastest time --
    the best-of idiom the eventsim benchmark uses to keep scheduler
    jitter on a shared box out of the recorded numbers.
    """
    results, engine, best = None, None, None
    for _ in range(repeats):
        fresh = CampaignEngine(cache=RunCache(None), mode=mode)
        start = time.perf_counter()
        out = fresh.run_cells(cells)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            results, engine, best = out, fresh, elapsed
    return results, engine, best


def _assert_cells_identical(reference, other, label):
    for i, (ref, got) in enumerate(zip(reference, other)):
        assert np.array_equal(ref.latencies_ns, got.latencies_ns), (
            f"{label}: cell {i} latencies diverge from the serial reference"
        )
        assert (
            ref.bank_conflicts == got.bank_conflicts
            and ref.refresh_collisions == got.refresh_collisions
            and ref.link_retries == got.link_retries
        ), f"{label}: cell {i} RAS counters diverge from the serial reference"


def test_perf_sim_campaign_batched():
    cells = _sim_grid()

    # Correctness gate first: serial and batch must agree bit-for-bit on
    # every cell before either strategy's timing is worth reporting.
    serial_ref, _, _ = _run_sim(cells, "serial")
    batch_results, _, _ = _run_sim(cells, "auto")
    _assert_cells_identical(serial_ref, batch_results, "batch")

    # Timed passes on fresh engines (the identity pass warmed the code
    # paths for every strategy equally); best of 3 per strategy.
    _, serial_engine, serial_s = _run_sim(cells, "serial", repeats=3)
    _, batch_engine, batch_s = _run_sim(cells, "auto", repeats=3)

    report = (
        json.loads(RESULT_PATH.read_text()) if RESULT_PATH.exists() else {}
    )
    if "cold_serial" not in report:
        # Standalone invocation: produce the analytic baseline row the
        # batched speedup is quoted against.
        campaign = _campaign()
        _, engine, elapsed = _timed_run(campaign)
        report["cold_serial"] = {
            "seconds": round(elapsed, 4),
            "cells_per_second": round(
                engine.stats.cells_requested / elapsed, 1
            ),
        }
    baseline_cps = report["cold_serial"]["cells_per_second"]

    report["sim_serial"] = {
        "cells": SIM_CELLS,
        "n_requests": SIM_N_REQUESTS,
        "seconds": round(serial_s, 4),
        "cells_per_second": round(SIM_CELLS / serial_s, 1),
    }
    report["batched"] = {
        "cells": SIM_CELLS,
        "n_requests": SIM_N_REQUESTS,
        "seconds": round(batch_s, 4),
        "cells_per_second": round(SIM_CELLS / batch_s, 1),
        "cells_batched": batch_engine.stats.cells_batched,
        "planner": batch_engine.stats.last_plan,
        "speedup_vs_cold_serial": round(
            (SIM_CELLS / batch_s) / baseline_cps, 2
        ),
        "speedup_vs_sim_serial": round(serial_s / batch_s, 2),
        "identical_across_engines": True,
        "smoke": SMOKE,
    }
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print()
    print(json.dumps({k: report[k] for k in ("sim_serial", "batched")},
                     indent=2))

    assert batch_engine.stats.cells_batched == SIM_CELLS
    if not SMOKE:
        assert report["batched"]["speedup_vs_cold_serial"] >= 5, (
            f"batched row {report['batched']['speedup_vs_cold_serial']}x "
            "below the 5x floor vs the analytic cold_serial baseline"
        )
        assert batch_s < serial_s, (
            f"batch {batch_s:.3f}s slower than per-cell serial "
            f"{serial_s:.3f}s on the same grid"
        )


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-s", "-x"])
