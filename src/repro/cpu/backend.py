"""The out-of-order backend stall model.

This is the quantitative heart of the reproduction: given a workload's
memory behaviour (:class:`~repro.workloads.base.WorkloadSpec`), a platform,
and a memory target, it computes total execution cycles *decomposed into the
stall components of Figure 10*:

    cycles = base + s_L1 + s_L2 + s_L3 + s_DRAM + s_store + s_core + s_other

The components are solved as a fixed point, because they are mutually
coupled: stalls stretch runtime, runtime sets offered bandwidth, bandwidth
sets device latency (queueing), and latency sets stalls.

Mechanisms modelled (each traceable to a paper finding):

* **Demand-miss stalls** (``s_DRAM``): uncovered L3 misses stall for the
  device latency, divided by the *effective* memory-level parallelism.
  MLP is capped by the ROB (long-latency misses spaced widely serialize)
  and the fill buffers -- the source of super-linear slowdown growth with
  latency (Finding #2).
* **Tail serialization**: dependent access chains cannot overlap a tail
  excursion, so excursions hit tail-sensitive workloads harder than their
  mean contribution suggests (Finding #1d / Figure 8d).
* **Burst congestion**: a ``burst_fraction`` of traffic arrives at
  ``burst_ratio`` x the mean bandwidth; on targets whose queues collapse
  early (CXL+NUMA), bursts hit the saturated operating point even when the
  average load looks trivial -- 520.omnetpp's 2.9x anomaly.
* **Prefetch lateness** (``s_L1/L2/L3``): late prefetches surface as
  delayed hits at the cache levels (Figure 13 / Finding #4).
* **Store-buffer pressure** (``s_store``): RFO round trips hold buffer
  entries; store-heavy workloads become buffer-bound on CXL.
* **Bandwidth floor**: a run can never finish faster than its traffic can
  be transferred at the target's peak bandwidth; any deficit surfaces as
  additional DRAM-side queueing stalls (Figure 8b's slowdown tail).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cpu.cache import (
    CacheHierarchy,
    baseline_hit_stall_cycles,
    effective_l3_mpki,
)
from repro.cpu.prefetcher import (
    COVERAGE_LOSS_MAX,
    DISABLED_OUTCOME_TEMPLATE,
    L2PF_SHARE,
    LATE_STALL_EXPOSURE,
    PrefetchModel,
    PrefetchOutcome,
)
from repro.cpu.store_buffer import STORE_OVERLAP, StoreBufferModel
from repro.hw.platform import Platform
from repro.hw.target import MemoryTarget
from repro.rng import DEFAULT_SEED, generator_for
from repro.units import ns_to_cycles
from repro.workloads.base import WorkloadSpec

TAIL_CASCADE = 8.0
"""Convoy multiplier for tail excursions on fully dependent access chains.

A tail excursion does not cost one request its excess latency and nothing
more: while it is outstanding the ROB fills, the prefetch streams behind it
stall, and -- because congestion episodes are bursty in time -- the requests
convoyed behind it are likely to take excursions of their own.  For a fully
dependent workload (tail_sensitivity = 1) each excursion therefore costs a
multiple of its own magnitude.  Out-of-order execution hides mean latency
but cannot hide this, which is exactly why 520.omnetpp tolerates every
locally-attached CXL device (<5%) yet collapses 2.9x under CXL+NUMA
(Figure 8c/d)."""

DELAYED_HIT_MLP = 2.0
"""Overlap of delayed-hit stalls: a late prefetch stalls its consuming
demand load almost serially (the data simply is not there yet), with only
modest overlap from neighbouring streams."""

BANDWIDTH_FLOOR_EFFICIENCY = 0.97
"""Fraction of a target's peak bandwidth a real access stream sustains."""

FIXED_POINT_ITERATIONS = 16
FIXED_POINT_TOL = 1e-4


@dataclass(frozen=True)
class StallComponents:
    """Ground-truth stall decomposition of one run (cycles)."""

    base: float
    frontend: float  # subset of base
    s_l1: float
    s_l2: float
    s_l3: float
    s_dram: float
    s_store: float
    s_core: float
    s_other: float

    @property
    def cache(self) -> float:
        """Combined cache-level stalls (S_L1 + S_L2 + S_L3)."""
        return self.s_l1 + self.s_l2 + self.s_l3

    @property
    def memory(self) -> float:
        """Memory-subsystem stalls (loads + stores)."""
        return self.cache + self.s_dram + self.s_store

    @property
    def total_stalls(self) -> float:
        """All modelled stall cycles beyond the base."""
        return self.memory + self.s_core + self.s_other

    @property
    def cycles(self) -> float:
        """Total run cycles."""
        return self.base + self.total_stalls


@dataclass(frozen=True)
class OperatingPoint:
    """Where on the target's load/latency surface a run settled."""

    load_gbps: float
    read_fraction: float
    latency_ns: float  # mixture-mean device latency
    serialized_latency_ns: float  # latency including tail-serialization
    utilization: float
    tail_extra_ns: float
    effective_mlp: float
    demand_mpki: float  # uncovered L3 misses reaching the device
    prefetch: PrefetchOutcome
    bandwidth_bound: bool


def _traffic_points(workload: WorkloadSpec, avg_load: float):
    """Burst/quiet operating-point mixture for a workload's traffic."""
    b = workload.burst_fraction
    r = workload.burst_ratio
    if b <= 0.0 or r <= 1.0:
        return ((1.0, avg_load),)
    if b >= 1.0:
        return ((1.0, avg_load),)
    burst = avg_load * r
    quiet = max(0.0, avg_load * (1.0 - b * r) / (1.0 - b))
    return ((1.0 - b, quiet), (b, burst))


@lru_cache(maxsize=4096)
def _other_stall_fraction(workload_name: str) -> float:
    """Deterministic per-workload share of un-modelled stalls (0.5-2.5%).

    These feed Figure 14's "Other" category and make Spa's accuracy
    validation non-trivial: they appear in total cycles and P6 but not in
    the memory-stall counters.  Memoized by name (the draw is a pure
    function of it): seeding a generator for every solve row took about
    a quarter of the batched fixed point's time.
    """
    rng = generator_for(DEFAULT_SEED, "other-stalls", workload_name)
    return 0.005 + 0.02 * float(rng.random())


class BackendModel:
    """Solves the stall fixed point for (workload, platform, target)."""

    def __init__(self, platform: Platform, prefetchers_enabled: bool = True):
        self.platform = platform
        self.prefetchers_enabled = prefetchers_enabled
        self.hierarchy = CacheHierarchy.for_platform(platform)
        self.prefetch_model = PrefetchModel(platform.uarch)
        self.store_buffer = StoreBufferModel(platform.uarch)

    # -- pieces ------------------------------------------------------------

    MISS_CLUSTERING = 6.0
    """Demand misses arrive in clusters, not evenly spaced, so the ROB holds
    several times more of them simultaneously than uniform spacing implies."""

    def _effective_mlp(self, workload: WorkloadSpec, demand_mpki: float) -> float:
        """MLP after ROB, fill-buffer, and platform caps."""
        uarch = self.platform.uarch
        if demand_mpki <= 0:
            return 1.0
        # With misses every 1000/mpki instructions (clustered), the ROB can
        # hold at most this many of them simultaneously; sparse-miss
        # workloads therefore serialize even when nominally parallel.
        rob_cap = max(
            1.0,
            self.MISS_CLUSTERING * uarch.rob_entries * demand_mpki / 1000.0,
        )
        return float(
            np.clip(
                min(workload.mlp, rob_cap, uarch.fill_buffers, uarch.max_demand_mlp),
                1.0,
                None,
            )
        )

    def _device_latency(self, workload: WorkloadSpec, target: MemoryTarget,
                        avg_load: float, read_fraction: float):
        """Mixture-mean latency, utilization, and tail share over bursts."""
        tail = target.tail_model()
        mean = 0.0
        util_mix = 0.0
        tail_extra = 0.0
        for weight, load in _traffic_points(workload, avg_load):
            dist = target.distribution(load, read_fraction)
            mean += weight * dist.mean_ns
            util_mix += weight * dist.util
            # Excursions only: jitter is hidden by the OoO window and is
            # present on every memory type anyway.
            tail_extra += weight * tail.mean_excursion_ns(dist.util)
        return mean, util_mix, tail_extra

    # -- main solve ----------------------------------------------------------

    def solve(self, workload: WorkloadSpec, target: MemoryTarget):
        """Fixed-point solve; returns ``(StallComponents, OperatingPoint)``."""
        p = self.platform
        freq = p.freq_ghz
        instructions = float(workload.instructions)
        m3_pki = effective_l3_mpki(workload, p)
        bytes_pki = (
            m3_pki
            + workload.stores_pki * workload.store_rfo_fraction
            + m3_pki * workload.writeback_ratio
        ) * 64.0
        bytes_total = instructions / 1000.0 * bytes_pki * workload.threads
        read_fraction = workload.read_fraction()
        peak_bw = target.peak_bandwidth_gbps(read_fraction)
        other_frac = _other_stall_fraction(workload.name)

        base = instructions * workload.base_cpi
        frontend = base * workload.frontend_stall_frac

        cycles = base * 1.2
        components = None
        op_point = None
        for _ in range(FIXED_POINT_ITERATIONS):
            time_ns = cycles / freq
            avg_load = bytes_total / time_ns if time_ns > 0 else 0.0

            lat_mean, util, tail_extra = self._device_latency(
                workload, target, avg_load, read_fraction
            )
            pf = self.prefetch_model.outcome(
                workload, m3_pki, lat_mean, enabled=self.prefetchers_enabled
            )
            demand_mpki = m3_pki * pf.uncovered_fraction
            mlp = self._effective_mlp(workload, demand_mpki)

            # Mean-latency stalls affect only uncovered demand misses (the
            # prefetcher and the OoO window hide the rest); tail excursions
            # serialize *all* device traffic for dependent workloads.
            tail_stall_ns = (
                workload.tail_sensitivity * TAIL_CASCADE * tail_extra
            )
            lat_serial = lat_mean + tail_stall_ns
            # High-MLP streams absorb excursions by overlapping around them;
            # dependent chains (mlp ~ 1) take the full convoy cost.
            s_tail = (
                instructions / 1000.0 * m3_pki
                * ns_to_cycles(tail_stall_ns, freq) / mlp
            )
            s_dram = (
                instructions / 1000.0 * demand_mpki
                * ns_to_cycles(lat_mean, freq) / mlp
                + s_tail
            )

            late_pki = m3_pki * pf.coverage * pf.late_fraction
            cache_stall = (
                instructions / 1000.0 * late_pki
                * ns_to_cycles(pf.residual_stall_ns, freq) / DELAYED_HIT_MLP
            )
            split = self.prefetch_model.cache_stall_split()
            s_l1 = cache_stall * split["L1"]
            s_l2 = cache_stall * split["L2"]
            s_l3 = cache_stall * split["L3"]

            s_core = (
                instructions / 1000.0 * workload.serialization_pki
                * ns_to_cycles(lat_mean, freq) * 0.08
            )
            s_store = self.store_buffer.stall_cycles(
                workload,
                instructions,
                rfo_latency_cycles=ns_to_cycles(lat_mean, freq),
                concurrent_cycles=base + s_dram + cache_stall + s_core,
            )
            s_other = other_frac * (s_dram + s_store + cache_stall)

            stalls = s_dram + s_store + s_l1 + s_l2 + s_l3 + s_core + s_other
            new_cycles = base + stalls

            # Bandwidth floor: transferring the traffic takes at least this
            # long; the deficit shows up as device-side queueing on demand
            # reads.  A run is bandwidth-bound either when the floor binds
            # or when it converges pressed against the saturation knee
            # (queue-delay stalls then do the limiting).
            min_cycles = ns_to_cycles(
                bytes_total / (BANDWIDTH_FLOOR_EFFICIENCY * peak_bw), freq
            )
            bandwidth_bound = util >= 0.95
            if new_cycles < min_cycles:
                s_dram += min_cycles - new_cycles
                new_cycles = min_cycles
                bandwidth_bound = True

            components = StallComponents(
                base=base,
                frontend=frontend,
                s_l1=s_l1,
                s_l2=s_l2,
                s_l3=s_l3,
                s_dram=s_dram,
                s_store=s_store,
                s_core=s_core,
                s_other=s_other,
            )
            op_point = OperatingPoint(
                load_gbps=avg_load,
                read_fraction=read_fraction,
                latency_ns=lat_mean,
                serialized_latency_ns=lat_serial,
                utilization=util,
                tail_extra_ns=tail_extra,
                effective_mlp=mlp,
                demand_mpki=demand_mpki,
                prefetch=pf,
                bandwidth_bound=bandwidth_bound,
            )

            next_cycles = 0.5 * cycles + 0.5 * new_cycles
            if abs(next_cycles - cycles) / cycles < FIXED_POINT_TOL:
                cycles = next_cycles
                break
            cycles = next_cycles

        return components, op_point

    def solve_many(self, workloads: Sequence[WorkloadSpec],
                   target: MemoryTarget) -> List[Tuple[StallComponents,
                                                       OperatingPoint]]:
        """:meth:`solve` for many workloads on one target, on float64 arrays.

        Returns one ``(StallComponents, OperatingPoint)`` per workload, in
        order, each equal bit for bit to ``solve(workload, target)``: every
        array expression repeats the scalar one in the same operation
        order, Python's ``min``/``max`` become ``np.where`` on the same
        comparison, and each row freezes at the iterate where its own
        tolerance check passes (its ``cycles`` stop moving, so later
        iterations recompute the same values).  Per-workload scalars --
        the ``**`` inside :func:`effective_l3_mpki`, the other-stall draw,
        the read fraction and its peak bandwidth -- are computed once per
        row in Python, in row order, so a row that raises there raises
        as :meth:`solve` would.  Rows whose prefetch lead is zero (the
        scalar lateness divides by it) and targets that override
        :meth:`MemoryTarget.distribution` go to :meth:`solve` itself,
        which stays the oracle.
        """
        rows = list(workloads)
        p = self.platform
        freq = p.freq_ghz
        if (
            not rows
            or not freq > 0
            or type(target).distribution is not MemoryTarget.distribution
        ):
            return [self.solve(w, target) for w in rows]
        uarch = p.uarch
        enabled = self.prefetchers_enabled
        aggr = uarch.prefetch_aggressiveness
        span_pf = self.prefetch_model.lateness_span

        out: List[Optional[Tuple[StallComponents, OperatingPoint]]] = \
            [None] * len(rows)
        vec: List[int] = []
        burst: List[bool] = []
        cols: List[tuple] = []
        for i, w in enumerate(rows):
            instructions = float(w.instructions)
            m3 = effective_l3_mpki(w, p)
            bytes_pki = (
                m3
                + w.stores_pki * w.store_rfo_fraction
                + m3 * w.writeback_ratio
            ) * 64.0
            bytes_total = instructions / 1000.0 * bytes_pki * w.threads
            rf = w.read_fraction()
            peak = target.peak_bandwidth_gbps(rf)
            other = _other_stall_fraction(w.name)
            lead = w.prefetch_lead_ns * aggr
            if enabled and span_pf * lead == 0:
                out[i] = self.solve(w, target)
                continue
            b = w.burst_fraction
            r = w.burst_ratio
            two = not (b <= 0.0 or r <= 1.0 or b >= 1.0)
            base = instructions * w.base_cpi
            ik = instructions / 1000.0
            ideal = min(0.98, w.prefetch_friendliness * aggr)
            vec.append(i)
            burst.append(two)
            cols.append((
                m3, bytes_total, rf, peak, other, base,
                base * w.frontend_stall_frac,
                1.0 - b if two else 1.0,  # quiet (or only) point weight
                b,
                r,
                1.0 - b * r if two else 1.0,
                1.0 - b if two else 1.0,
                ik,
                ik * m3,
                w.tail_sensitivity * TAIL_CASCADE,
                min(w.mlp, uarch.fill_buffers, uarch.max_demand_mlp),
                ideal,
                lead,
                span_pf * lead,
                ik * w.serialization_pki,
                instructions / 1000.0 * (w.stores_pki * w.store_rfo_fraction),
                bytes_total / (BANDWIDTH_FLOOR_EFFICIENCY * peak) * freq,
                m3 * ideal * (1.0 - L2PF_SHARE),
                w.l2_mpki * ideal * 0.25,
            ))
        if not vec:
            return out
        two = np.array(burst)
        (m3, bytes_total, rf, peak, other, base, frontend, w1, w2, rmul, c1,
         c2, ik, k_tail, ts8, mlp_cap, ideal, lead, denom, k_core,
         rfo_stores, min_cycles, l1pf_base, l2pf_hit) = (
            np.array(col, dtype=np.float64) for col in zip(*cols)
        )

        tail = target.tail_model()
        queue = target.queue_model()
        c0 = target.idle_latency_ns() - tail.mean_extra_ns(0.0)
        q_onset = queue.onset_util
        q_span = 1.0 - queue.onset_util
        q_scale = queue.variability * queue.service_ns
        q_max = queue.max_delay_ns
        t_onset = tail.onset_util
        t_span = max(1e-9, 1.0 - tail.onset_util)
        t_growth = tail.scale_growth - 1.0
        t_deep = tail.deep_prob * tail.deep_scale_ns
        rob = self.MISS_CLUSTERING * uarch.rob_entries
        sb_entries = uarch.store_buffer_entries
        split = self.prefetch_model.cache_stall_split()

        def point(load):
            """(mean latency, utilization, excursion) at one traffic point,
            as :meth:`MemoryTarget.distribution` and :class:`TailModel`."""
            util = load / peak
            util = np.where(util > 0.0, util, 0.0)
            util = np.where(util < 0.999, util, 0.999)
            rho = (util - q_onset) / q_span
            rho = np.where(1.0 - 1e-12 < rho, 1.0 - 1e-12, rho)
            raw = q_scale * rho / (1.0 - rho)
            raw = np.where(q_max < raw, q_max, raw)
            # util <= 0.999 here, so QueueModel's util >= 1.0 cap is moot
            delay = np.where(util <= q_onset, 0.0, raw)
            base_ns = c0 + delay
            base_ns = np.where(base_ns > 0.0, base_ns, 0.0)
            lf = (util - t_onset) / t_span
            lf = np.where(util <= t_onset, 0.0, np.where(lf < 1.0, lf, 1.0))
            prob = tail.tail_prob_idle + tail.prob_growth * lf
            prob = np.where(prob < 1.0, prob, 1.0)
            excursion = (
                prob * (tail.tail_scale_idle_ns * (1.0 + t_growth * lf))
                + t_deep
            )
            return base_ns + (tail.jitter_ns + excursion), util, excursion

        zeros = np.zeros(len(vec))
        coverage = late_frac = residual = zeros
        cycles = base * 1.2
        with np.errstate(all="ignore"):
            for _ in range(FIXED_POINT_ITERATIONS):
                time_ns = cycles / freq
                avg_load = np.where(time_ns > 0, bytes_total / time_ns, 0.0)

                quiet = avg_load * c1 / c2
                quiet = np.where(quiet > 0.0, quiet, 0.0)
                mean1, util1, exc1 = point(np.where(two, quiet, avg_load))
                mean2, util2, exc2 = point(avg_load * rmul)
                lat_mean = np.where(
                    two, 0.0 + w1 * mean1 + w2 * mean2, 0.0 + w1 * mean1
                )
                util = np.where(
                    two, 0.0 + w1 * util1 + w2 * util2, 0.0 + w1 * util1
                )
                tail_extra = np.where(
                    two, 0.0 + w1 * exc1 + w2 * exc2, 0.0 + w1 * exc1
                )

                if enabled:
                    overshoot = lat_mean - lead
                    overshoot = np.where(overshoot > 0.0, overshoot, 0.0)
                    lateness = np.clip(overshoot / denom, 0.0, 1.0)
                    coverage = ideal * (1.0 - COVERAGE_LOSS_MAX * lateness)
                    late_frac = 0.6 * lateness
                    residual = LATE_STALL_EXPOSURE * overshoot
                demand_mpki = m3 * (1.0 - coverage)
                rob_cap = rob * demand_mpki / 1000.0
                rob_cap = np.where(rob_cap > 1.0, rob_cap, 1.0)
                mlp = np.where(
                    demand_mpki <= 0,
                    1.0,
                    np.clip(np.where(rob_cap < mlp_cap, rob_cap, mlp_cap),
                            1.0, None),
                )

                lat_cycles = lat_mean * freq
                tail_stall_ns = ts8 * tail_extra
                lat_serial = lat_mean + tail_stall_ns
                s_tail = k_tail * (tail_stall_ns * freq) / mlp
                s_dram = ik * demand_mpki * lat_cycles / mlp + s_tail

                late_pki = m3 * coverage * late_frac
                cache_stall = (
                    ik * late_pki * (residual * freq) / DELAYED_HIT_MLP
                )
                s_l1 = cache_stall * split["L1"]
                s_l2 = cache_stall * split["L2"]
                s_l3 = cache_stall * split["L3"]

                s_core = k_core * lat_cycles * 0.08
                concurrent = base + s_dram + cache_stall + s_core
                s_store = (
                    rfo_stores * lat_cycles / sb_entries
                    - STORE_OVERLAP * concurrent
                )
                s_store = np.where(
                    (rfo_stores <= 0) | (lat_cycles <= 0),
                    0.0,
                    np.where(s_store > 0.0, s_store, 0.0),
                )
                s_other = other * (s_dram + s_store + cache_stall)

                stalls = s_dram + s_store + s_l1 + s_l2 + s_l3 + s_core \
                    + s_other
                new_cycles = base + stalls
                floor = new_cycles < min_cycles
                s_dram = np.where(floor, s_dram + (min_cycles - new_cycles),
                                  s_dram)
                new_cycles = np.where(floor, min_cycles, new_cycles)
                bandwidth_bound = (util >= 0.95) | floor

                next_cycles = 0.5 * cycles + 0.5 * new_cycles
                done = np.abs(next_cycles - cycles) / cycles \
                    < FIXED_POINT_TOL
                if done.all():
                    break
                cycles = np.where(done, cycles, next_cycles)

            l2pf_miss = m3 * coverage * L2PF_SHARE
            l1pf_miss = l1pf_base + m3 * (ideal - coverage) * L2PF_SHARE

        # Columns in each dataclass's field order.
        stall_cols = [a.tolist() for a in (
            base, frontend, s_l1, s_l2, s_l3, s_dram, s_store, s_core, s_other,
        )]
        point_cols = [a.tolist() for a in (
            avg_load, rf, lat_mean, lat_serial, util, tail_extra, mlp,
            demand_mpki,
        )]
        prefetch_cols = [a.tolist() for a in (
            coverage, ideal, late_frac, residual, l1pf_miss, l2pf_miss,
            l2pf_hit,
        )]
        bound = bandwidth_bound.tolist()
        disabled = PrefetchOutcome(**DISABLED_OUTCOME_TEMPLATE)
        for j, i in enumerate(vec):
            prefetch = PrefetchOutcome(
                True, *(col[j] for col in prefetch_cols)
            ) if enabled else disabled
            out[i] = (
                StallComponents(*(col[j] for col in stall_cols)),
                OperatingPoint(
                    *(col[j] for col in point_cols), prefetch, bound[j]
                ),
            )
        return out

    def baseline_counter_activity(self, workload: WorkloadSpec) -> float:
        """Baseline load-stall activity included in P1/P3-P5 (cancels in Spa)."""
        return baseline_hit_stall_cycles(
            workload, self.hierarchy, float(workload.instructions)
        )
