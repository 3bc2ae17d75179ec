"""Dist-fabric benchmark: coordination overhead and chaos tax.

Runs one small campaign four ways and records the numbers in
``BENCH_dist.json`` so the protocol's overhead trajectory is tracked
from PR to PR:

* ``solo``        -- the reference: one process, no sockets.
* ``dist_clean``  -- coordinator + 2 in-process workers over loopback.
* ``dist_chaos``  -- same fleet under seeded network chaos with one
  worker dying mid-lease (the recovery tax: reconnects, re-leases,
  duplicate deliveries).
* ``warm_assembly`` -- a solo pass over the dist run's cache: what the
  ``repro campaign --coordinator`` export path actually pays.

Correctness gates before any timing lands: every dist variant must
complete without conflicts and assemble records bit-identical to the
solo reference.  ``REPRO_BENCH_SMOKE=1`` keeps everything (the campaign
is already smoke-sized) but drops the recovery-behavior assertions that
need a healthy scheduler to be meaningful.
"""

import json
import os
import time
from pathlib import Path

from repro.dist.harness import (
    SMOKE_SPEC,
    run_dist_campaign,
    run_hostile_fleet,
    solo_records,
)

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_dist.json"

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def test_perf_dist_overhead(tmp_path):
    reference, solo_s = _timed(lambda: solo_records(SMOKE_SPEC, None))

    clean_dir = str(tmp_path / "clean")
    clean, clean_s = _timed(lambda: run_dist_campaign(clean_dir))

    chaos_dir = str(tmp_path / "chaos")
    chaos, chaos_s = _timed(
        lambda: run_hostile_fleet(chaos_dir, net_chaos_seed=13)
    )

    # Correctness before speed: both dist runs completed, never
    # disagreed, and assemble the exact solo records.
    for outcome in (clean, chaos):
        assert outcome.summary.complete
        assert outcome.summary.conflicts == []
        assert outcome.summary.quarantined == []
    assembled, warm_s = _timed(
        lambda: solo_records(SMOKE_SPEC, clean_dir)
    )
    assert assembled == reference
    assert solo_records(SMOKE_SPEC, chaos_dir) == reference

    units = clean.summary.units
    report = {
        "campaign": {
            "spec": SMOKE_SPEC.to_dict(),
            "units": units,
        },
        "cpu_count": os.cpu_count(),
        "solo": {
            "seconds": round(solo_s, 4),
            "units_per_second": round(units / solo_s, 1),
        },
        "dist_clean": {
            "seconds": round(clean_s, 4),
            "units_per_second": round(units / clean_s, 1),
            "overhead_vs_solo": round(clean_s / solo_s, 2),
            "leases_granted": clean.summary.counters.get("granted"),
            "workers_seen": clean.summary.workers_seen,
        },
        "dist_chaos": {
            "seconds": round(chaos_s, 4),
            "units_per_second": round(units / chaos_s, 1),
            "recovery_tax_vs_clean": round(chaos_s / clean_s, 2),
            "leases_granted": chaos.summary.counters.get("granted"),
            "leases_released": chaos.summary.released,
            "leases_expired": chaos.summary.expired,
            "duplicate_commits": chaos.summary.duplicates,
            "late_commits": chaos.summary.late_commits,
            "worker_codes": list(chaos.worker_codes),
        },
        "warm_assembly": {
            "seconds": round(warm_s, 4),
            "units_per_second": round(units / warm_s, 1),
        },
    }
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print()
    print(json.dumps(report, indent=2))

    if not SMOKE:
        # The mortal worker died, so recovery machinery demonstrably ran.
        assert chaos.worker_codes[0] == 9
        assert chaos.summary.released + chaos.summary.expired >= 1
