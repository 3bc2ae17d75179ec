"""Ablation: clean-room MC simulation vs the calibrated tail model.

The request-level event simulator implements a *well-behaved* CXL memory
controller from public specifications alone: Poisson arrivals, link
serialization, a deep dispatch pipeline, banked DRAM with row-buffer state
and fine-grained refresh, link-layer retries.  Comparing it against the
calibrated analytic devices answers the paper's attribution question from
the inside:

* **means agree** -- the analytic loaded-latency model is consistent with
  an independent queueing mechanism across devices and loads;
* **tails do NOT agree for CXL-B/C** -- the clean-room controller produces
  only modest, physics-level tails (refresh, bank conflicts, retries);
  the large measured tails need the calibrated vendor-misbehaviour model.
  This is in-model evidence for the paper's reasoning in §3.2: high CXL
  tail latencies stem from suboptimal vendor MC implementations, not from
  DRAM physics or honest queueing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.report import Table
from repro.hw.cxl import CXL_DEVICES
from repro.hw.cxl.eventdevice import compare_result_with_analytic
from repro.runtime import SimCell, get_engine

LOADS_FRACTION = (0.1, 0.5, 0.8)
"""Loads as fractions of each device's read bandwidth."""


@dataclass(frozen=True)
class EventSimComparison:
    """Per-device, per-load comparison rows."""

    rows: List[dict]

    def mean_agreement(self, max_rel_error: float = 0.6) -> bool:
        """Every mean within the tolerance of the analytic model."""
        return all(
            abs(r["sim_mean_ns"] - r["analytic_mean_ns"])
            <= max_rel_error * r["analytic_mean_ns"]
            for r in self.rows
        )

    def vendor_tail_unexplained(self, device: str) -> float:
        """High-load analytic tail gap minus the clean-room sim's (ns).

        Positive and large for devices whose tails the paper attributes to
        vendor controller behaviour.
        """
        candidates = [
            r for r in self.rows if r["device"] == device
        ]
        worst = max(candidates, key=lambda r: r["load_gbps"])
        return worst["analytic_tail_gap_ns"] - worst["sim_tail_gap_ns"]


def run(fast: bool = True) -> EventSimComparison:
    """Compare every device at three load points.

    The runtime engine fuses all twelve operating points into batched
    kernel calls.
    """
    n = 25_000 if fast else 120_000
    cells = []
    devices = []
    for name, factory in CXL_DEVICES.items():
        device = factory()
        peak = device.peak_bandwidth_gbps()
        for fraction in LOADS_FRACTION:
            cells.append(
                SimCell(
                    device=name,
                    n_requests=n,
                    offered_gbps=fraction * peak,
                )
            )
            devices.append((name, device))
    results = get_engine().run_cells(cells)
    rows = []
    for (name, device), sim in zip(devices, results):
        row = compare_result_with_analytic(device, sim)
        row["device"] = name
        rows.append(row)
    return EventSimComparison(rows=rows)


def render(result: EventSimComparison) -> str:
    """Comparison table plus the attribution summary."""
    lines = ["Ablation: event-driven clean-room MC vs calibrated model"]
    table = Table(["device", "load GB/s", "sim mean", "model mean",
                   "sim gap", "model gap"])
    for r in result.rows:
        table.add_row(r["device"], r["load_gbps"], r["sim_mean_ns"],
                      r["analytic_mean_ns"], r["sim_tail_gap_ns"],
                      r["analytic_tail_gap_ns"])
    lines.append(table.render())
    lines.append("tail latency a clean-room controller cannot explain:")
    for name in CXL_DEVICES:
        unexplained = result.vendor_tail_unexplained(name)
        lines.append(f"  {name}: {unexplained:+.0f} ns at high load")
    lines.append(
        "(large positive values = the measured tails require vendor-specific"
        " controller misbehaviour, per the paper's §3.2 reasoning)"
    )
    return "\n".join(lines)
