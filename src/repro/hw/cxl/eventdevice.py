"""Request-level event-driven simulation of a CXL expander.

The analytic :class:`~repro.hw.cxl.device.CxlDevice` computes loaded
latency from closed-form queueing expressions.  This module simulates the
same device at *request* granularity -- each request traverses the inbound
link, the MC queue, a DRAM bank (with row-buffer state and refresh), and
the outbound link -- so the closed forms can be validated against an
independent mechanism, and so device-internal effects (bank conflicts,
refresh collisions, link retries) can be observed directly rather than
through the fitted tail model.

The simulation is deliberately structured after Figure 2b of the paper:

    CXL Ctrl -> request queue -> request scheduler -> DDR command -> DRAM

Requests arrive open-loop (Poisson at a configured load); per-request
latency is ``completion - arrival`` plus the host-side overhead.  A write
request (drawn from ``read_fraction``) serializes its data inbound like a
read request does, but its completion carries no data: on a full-duplex
link the outbound flit is skipped, while CXL-C's shared-bus controller
still pays a full flit for the acknowledgement.

Two implementations compute the identical timeline of an operating point:

* the per-request reference loop below (``engine="scalar"``), written in
  the same max-plus / phase-shifted form as the kernel so every float
  operation matches.  It is also the tracing path: span emission is
  per-request by nature.
* the fused NumPy kernel :func:`~repro.hw.cxl.kernels.batch_timeline`,
  with no Python loop over requests (typically an order of magnitude
  faster, ``BENCH_eventsim.json``).  :meth:`EventDrivenDevice.simulate`
  runs it on a batch of one under ``engine="vector"`` -- and under
  ``engine="auto"`` (the default) unless a trace buffer is active;
  :func:`simulate_batch` runs it fused across *many* operating points at
  once, amortizing kernel call overhead across a whole campaign chunk.
  Results read ``engine="vector"`` or ``"batch"`` accordingly.

Every path is bit-identical -- latencies and all event counters -- for
every device; the ``device`` diag layer enforces this on every
``repro validate`` (``eventsim-engine-identity`` for scalar vs kernel,
``eventsim-batch-identity`` for one fused batch vs batches of one,
including under fault plans).

Observability: when a :class:`~repro.obs.trace.TraceBuffer` is active
(passed explicitly or installed process-wide via ``--trace``), every Nth
request additionally emits one span per pipeline stage -- link transit,
transaction-layer queueing, MC scheduling, bank service -- in simulated
nanoseconds.  Tracing only *reads* the timeline the simulation computes
anyway: all random draws happen up front, before the event loop, so traced
and untraced runs are bit-identical, and each traced request's span
durations sum to its reported latency (the ``obs`` diag layer enforces
both).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.faults.inject import apply_fault_plan
from repro.faults.plan import active_fault_plan
from repro.hw.cxl.device import HOST_OVERHEAD_NS, CxlDevice
from repro.hw.cxl.kernels import (
    SimInputs,
    batch_chunks,
    batch_timeline,
)
from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS_NS, metrics
from repro.obs.trace import TraceBuffer, tracing
from repro.rng import DEFAULT_SEED, generator_for
from repro.units import CACHELINE_BYTES

BANKS_PER_CHANNEL = 16
"""DDR4/DDR5 banks per channel visible to the scheduler."""

ENGINES = ("auto", "scalar", "vector")
"""Accepted ``engine`` arguments to :meth:`EventDrivenDevice.simulate`."""


@dataclass(frozen=True)
class EventSimResult:
    """Outcome of one request-level simulation."""

    device: str
    offered_gbps: float
    latencies_ns: np.ndarray
    bank_conflicts: int
    refresh_collisions: int
    link_retries: int
    read_fraction: float = 1.0
    engine: str = "scalar"
    # RAS fault-injection ledger (all zero / None on fault-free runs)
    fault_plan: Optional[str] = None
    injected_retries: int = 0
    poisoned_reads: int = 0
    ecc_corrected: int = 0
    throttled_requests: int = 0

    def to_dict(self) -> dict:
        """JSON document for the run cache's disk tier.

        ``tolist()`` yields Python floats and ``json`` writes shortest
        round-trip reprs, so a reloaded result is bit-identical to the
        stored one.  No schema version is embedded: :class:`SimCell` keys
        fold ``FORMAT_VERSION``, so a format bump retires old documents
        as clean cache misses.
        """
        return {
            "kind": "eventsim",
            "device": self.device,
            "offered_gbps": self.offered_gbps,
            "latencies_ns": self.latencies_ns.tolist(),
            "bank_conflicts": self.bank_conflicts,
            "refresh_collisions": self.refresh_collisions,
            "link_retries": self.link_retries,
            "read_fraction": self.read_fraction,
            "engine": self.engine,
            "fault_plan": self.fault_plan,
            "injected_retries": self.injected_retries,
            "poisoned_reads": self.poisoned_reads,
            "ecc_corrected": self.ecc_corrected,
            "throttled_requests": self.throttled_requests,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EventSimResult":
        """Rebuild a result stored by :meth:`to_dict`."""
        if data.get("kind") != "eventsim":
            raise ValueError("not an eventsim document")
        return cls(
            device=data["device"],
            offered_gbps=data["offered_gbps"],
            latencies_ns=np.asarray(data["latencies_ns"], dtype=np.float64),
            bank_conflicts=int(data["bank_conflicts"]),
            refresh_collisions=int(data["refresh_collisions"]),
            link_retries=int(data["link_retries"]),
            read_fraction=data["read_fraction"],
            engine=data["engine"],
            fault_plan=data["fault_plan"],
            injected_retries=int(data["injected_retries"]),
            poisoned_reads=int(data["poisoned_reads"]),
            ecc_corrected=int(data["ecc_corrected"]),
            throttled_requests=int(data["throttled_requests"]),
        )

    @property
    def mean_ns(self) -> float:
        """Mean per-request latency."""
        return float(self.latencies_ns.mean())

    def percentile(self, p) -> float:
        """Latency percentile."""
        return float(np.percentile(self.latencies_ns, p))

    def tail_gap_ns(self) -> float:
        """p99.9 - p50."""
        return self.percentile(99.9) - self.percentile(50)


class EventDrivenDevice:
    """Request-level simulator for one :class:`CxlDevice`."""

    def __init__(self, device: CxlDevice, seed: int = DEFAULT_SEED):
        self.device = device
        self.seed = seed
        self._consts = None

    def _constants(self) -> dict:
        """Per-device timing constants, computed once per instance.

        ``_prepare`` runs once per campaign cell; walking the device
        profile's property chains (latency breakdown, link serialization)
        each time costs tens of microseconds that dwarf small-cell kernel
        work.  The cached values are the very objects the chains return,
        so every downstream float is unchanged.  Keyed on the module's
        ``BANKS_PER_CHANNEL`` so tests that patch it stay correct.
        """
        cached = self._consts
        if cached is not None and cached["banks_per_channel"] == BANKS_PER_CHANNEL:
            return cached
        device = self.device
        profile = device.profile
        timings = profile.dram.timings
        link = profile.link
        cached = {
            "banks_per_channel": BANKS_PER_CHANNEL,
            "n_banks": profile.dram.channels * BANKS_PER_CHANNEL,
            "flit_ns": link.serialization_ns(),
            "stack_ns": link.stack_latency_ns,
            "dispatch_ns": CACHELINE_BYTES / profile.backend_gbps,
            "fixed_mc_ns": device.latency_breakdown_ns()["controller"],
            "trefi_ns": timings.tREFI,
            "refresh_block_ns": 0.35 * timings.tRFC,
            "row_hit_ns": timings.row_hit_ns,
            "row_miss_ns": timings.row_miss_ns,
            "row_conflict_ns": timings.row_conflict_ns,
            "retry_penalty_ns": link.retry_penalty_ns,
            "retry_probability": link.retry_probability,
            "row_hit_rate": profile.dram.row_hit_rate,
            "full_duplex": link.full_duplex,
        }
        self._consts = cached
        return cached

    def _prepare(
        self, n_requests: int, offered_gbps: float, read_fraction: float
    ) -> SimInputs:
        """Draw all randomness and precompute the shared engine inputs.

        The scalar loop and the fused kernel consume these exact arrays, so
        their float operations start from identical bits.  The RNG stream is keyed by the
        operating point; ``read_fraction`` joins the key -- and spends a
        draw -- only for mixed workloads, so every pure-read stream (the
        historical default) is unchanged.
        """
        device = self.device
        key = [
            "eventdevice", device.name,
            f"{offered_gbps:.3f}", f"{n_requests}",
        ]
        if read_fraction != 1.0:
            key.append(f"rf{read_fraction:.4f}")
        rng = generator_for(self.seed, *key)

        consts = self._constants()
        n_banks = consts["n_banks"]
        flit_ns = consts["flit_ns"]

        # Arrival process: Poisson with the configured mean rate.
        mean_gap_ns = CACHELINE_BYTES / offered_gbps
        arrivals = np.cumsum(rng.exponential(mean_gap_ns, n_requests))

        # Fine-grained per-bank refresh: each bank blocks for a fraction of
        # tRFC every tREFI, staggered (modern controllers refresh per bank
        # rather than stalling a whole rank).
        refresh_phase = rng.uniform(0.0, consts["trefi_ns"], n_banks)

        banks = rng.integers(0, n_banks, n_requests)
        # Row behaviour: reuse the bank's open row with the calibrated hit
        # rate, otherwise touch another row (miss or conflict depending on
        # the bank's state).
        row_reuse = rng.random(n_requests) < consts["row_hit_rate"]
        rows = rng.integers(0, 1 << 14, n_requests)
        retry_draw = rng.random(n_requests) < consts["retry_probability"] * 50
        # (per-request retry probability aggregated over the flit exchanges)
        if read_fraction != 1.0:
            writes = rng.random(n_requests) >= read_fraction
        else:
            writes = np.zeros(n_requests, dtype=bool)

        # Serial-resource shift tables (exclusive cumulative service).
        # Inbound link and MC dispatch serve every request identically;
        # the outbound link serves a write's completion for free on a
        # full-duplex link (no data flit) and a full flit on CXL-C's
        # shared bus.
        index = np.arange(n_requests)
        svc_out = np.full(n_requests, flit_ns)
        if consts["full_duplex"]:
            svc_out[writes] = 0.0
        shift_out = np.zeros(n_requests)
        np.cumsum(svc_out[:-1], out=shift_out[1:])

        # MC dispatch pipeline: deep enough to sustain the DRAM backend
        # (the controller's *latency* is pipelined, not a throughput cap).
        dispatch_ns = consts["dispatch_ns"]

        return SimInputs(
            n=n_requests,
            n_banks=n_banks,
            flit_ns=flit_ns,
            stack_ns=consts["stack_ns"],
            dispatch_ns=dispatch_ns,
            fixed_mc_ns=consts["fixed_mc_ns"],
            trefi_ns=consts["trefi_ns"],
            refresh_block_ns=consts["refresh_block_ns"],
            row_hit_ns=consts["row_hit_ns"],
            row_miss_ns=consts["row_miss_ns"],
            row_conflict_ns=consts["row_conflict_ns"],
            retry_penalty_ns=consts["retry_penalty_ns"],
            host_overhead_ns=HOST_OVERHEAD_NS,
            arrivals=arrivals,
            banks=banks,
            row_reuse=row_reuse,
            rows=rows,
            retry_draw=retry_draw,
            writes=writes,
            refresh_phase=refresh_phase,
            shift_in=flit_ns * index,
            shift_mc=dispatch_ns * index,
            svc_out=svc_out,
            shift_out=shift_out,
        )

    def simulate(
        self,
        n_requests: int,
        offered_gbps: float,
        read_fraction: float = 1.0,
        trace: Optional[TraceBuffer] = None,
        engine: str = "auto",
    ) -> EventSimResult:
        """Simulate ``n_requests`` Poisson arrivals at ``offered_gbps``.

        ``trace`` overrides the process-wide buffer from
        :func:`repro.obs.trace.tracing`; sampled requests emit one span
        per pipeline stage.  Tracing never alters the simulated timeline.

        ``engine`` picks the implementation: ``"scalar"`` (per-request
        reference loop), ``"vector"`` (the fused kernel on a batch of
        one), or ``"auto"`` (vector unless tracing is active -- span
        emission is per-request).  All engines are bit-identical.
        """
        self._validate(n_requests, offered_gbps, read_fraction)
        if engine not in ENGINES:
            raise ConfigurationError(
                f"unknown engine {engine!r}; expected one of {ENGINES}"
            )
        buf = trace if trace is not None else tracing()
        if engine == "vector" and buf is not None:
            raise ConfigurationError(
                "the vector engine cannot emit per-request trace spans; "
                "use engine='scalar' (or 'auto') when tracing"
            )
        resolved = "scalar" if engine == "scalar" or buf is not None \
            else "vector"

        inp, applied = self._prepare_with_faults(
            n_requests, offered_gbps, read_fraction
        )
        if resolved == "vector":
            (timeline,) = batch_timeline([inp])
            latencies = timeline.latencies_ns
            conflicts = timeline.bank_conflicts
            refreshes = timeline.refresh_collisions
            traced = 0
        else:
            latencies, conflicts, refreshes, traced = self._scalar_timeline(
                inp, buf
            )
        return self._publish(
            inp, applied, latencies, conflicts, refreshes, traced,
            offered_gbps, read_fraction, resolved,
        )

    @staticmethod
    def _validate(
        n_requests: int, offered_gbps: float, read_fraction: float
    ) -> None:
        if n_requests < 1:
            raise ConfigurationError("need at least one request")
        if offered_gbps <= 0:
            raise ConfigurationError("offered load must be positive")
        if not 0.0 <= read_fraction <= 1.0:
            raise ConfigurationError(
                f"read fraction must be in [0, 1]: {read_fraction}"
            )

    def _prepare_with_faults(
        self, n_requests: int, offered_gbps: float, read_fraction: float
    ):
        """Prepared inputs plus the applied fault plan, if one is active.

        RAS fault injection: a plan transforms the prepared inputs (from
        its own RNG stream) and supplies post-engine latency adjustments.
        With no plan -- or an empty one -- nothing here runs, so the
        fault-free path stays byte-identical to a build without the
        subsystem.  Both the preparation RNG and the fault RNG are keyed
        per operating point, which is what lets batched execution compose:
        each cell's arrays are drawn here, solo, before any batching
        decision is made.
        """
        inp = self._prepare(n_requests, offered_gbps, read_fraction)
        plan = active_fault_plan()
        applied = None
        if plan is not None and plan.enabled:
            inp, applied = apply_fault_plan(
                inp, self.device, plan, offered_gbps
            )
        return inp, applied

    def _publish(
        self, inp, applied, latencies, conflicts, refreshes, traced,
        offered_gbps, read_fraction, resolved,
    ) -> EventSimResult:
        """Post-engine adjustments, metrics emission, result assembly.

        Shared verbatim by :meth:`simulate` and :func:`simulate_batch`, so
        a batched cell's counters and metrics match its solo twin's.
        """
        retries = int(inp.retry_draw.sum())
        if applied is not None:
            # Shared elementwise post-engine transform (ECC correction
            # stalls, dropout completions): identical for all engines.
            latencies = applied.adjust_latencies(latencies)

        registry = metrics()
        if registry.enabled:
            labels = {"device": self.device.name}
            registry.counter("sim.requests", **labels).inc(inp.n)
            registry.counter("sim.bank_conflicts", **labels).inc(conflicts)
            registry.counter("sim.refresh_collisions", **labels).inc(refreshes)
            registry.counter("sim.link_retries", **labels).inc(retries)
            registry.counter("sim.traced_requests", **labels).inc(traced)
            registry.histogram(
                "sim.request_latency_ns",
                buckets=DEFAULT_LATENCY_BUCKETS_NS,
                **labels,
            ).observe_many(latencies)
            if applied is not None:
                registry.counter(
                    "sim.faults.injected_retries", **labels
                ).inc(applied.injected_retries)
                registry.counter(
                    "sim.faults.poisoned_reads", **labels
                ).inc(applied.poisoned_reads)
                registry.counter(
                    "sim.faults.ecc_corrected", **labels
                ).inc(applied.ecc_corrected)
                registry.counter(
                    "sim.faults.throttled_requests", **labels
                ).inc(applied.throttled_requests)

        return EventSimResult(
            device=self.device.name,
            offered_gbps=offered_gbps,
            latencies_ns=latencies,
            bank_conflicts=conflicts,
            refresh_collisions=refreshes,
            link_retries=retries,
            read_fraction=read_fraction,
            engine=resolved,
            fault_plan=applied.plan_key if applied is not None else None,
            injected_retries=(
                applied.injected_retries if applied is not None else 0
            ),
            poisoned_reads=(
                applied.poisoned_reads if applied is not None else 0
            ),
            ecc_corrected=(
                applied.ecc_corrected if applied is not None else 0
            ),
            throttled_requests=(
                applied.throttled_requests if applied is not None else 0
            ),
        )

    def _scalar_timeline(
        self, inp: SimInputs, buf: Optional[TraceBuffer]
    ):
        """The per-request reference loop (and tracing path).

        Written in the same form the kernel evaluates: serial
        resources via ``m = max(m, entry - shift); start = m + shift``
        against the shared shift tables, and the bank stage in the
        refresh-phase-shifted time domain.  Every floating-point operation
        here has an elementwise twin in :mod:`repro.hw.cxl.kernels`, which
        is what makes the engines bit-identical rather than merely close.
        """
        device = self.device
        link = device.profile.link
        n = inp.n
        arrivals = inp.arrivals
        shift_in, shift_mc, shift_out = inp.shift_in, inp.shift_mc, inp.shift_out
        svc_out = inp.svc_out
        banks, rows, row_reuse = inp.banks, inp.rows, inp.row_reuse
        retry_draw = inp.retry_draw
        service_scale = inp.service_scale
        refresh_phase = inp.refresh_phase
        flit_ns, stack_ns = inp.flit_ns, inp.stack_ns
        fixed_mc_ns = inp.fixed_mc_ns
        trefi, block = inp.trefi_ns, inp.refresh_block_ns
        row_hit_ns = inp.row_hit_ns
        row_miss_ns = inp.row_miss_ns
        row_conflict_ns = inp.row_conflict_ns
        retry_penalty_ns = inp.retry_penalty_ns
        host_ns = inp.host_overhead_ns

        # Serial-resource scan states (max-plus running maxima).
        m_in = m_mc = m_out = float("-inf")
        # Per-bank state: open row, and busy time in the phase-shifted
        # domain (idle banks sit at shifted zero = their phase).
        bank_free = refresh_phase.copy()
        bank_open_row = np.full(inp.n_banks, -1, dtype=np.int64)

        latencies = np.empty(n)
        conflicts = 0
        refreshes = 0
        traced = 0

        for i in range(n):
            arrival = arrivals[i]
            # Inbound link: wait for the wire, serialize one flit.
            x = arrival - shift_in[i]
            if x > m_in:
                m_in = x
            start_in = m_in + shift_in[i]
            inbound_free = start_in + flit_ns
            t = inbound_free + stack_ns

            # MC: dispatch pipeline + fixed processing.
            x = t - shift_mc[i]
            if x > m_mc:
                m_mc = x
            start_mc = m_mc + shift_mc[i]
            t = start_mc + fixed_mc_ns

            # Bank service with row-buffer state.
            bank = int(banks[i])
            if row_reuse[i] and bank_open_row[bank] >= 0:
                row = int(bank_open_row[bank])
            else:
                row = int(rows[i])
            if bank_open_row[bank] == row:
                service = row_hit_ns
            elif bank_open_row[bank] < 0:
                service = row_miss_ns
            else:
                service = row_conflict_ns
                conflicts += 1
            if service_scale is not None:
                # Same single multiply as the kernel's service derating.
                service = service * service_scale[i]
            bank_open_row[bank] = row
            # Busy/refresh recurrence in the phase-shifted domain.
            phase_b = refresh_phase[bank]
            busy = t + phase_b
            free = bank_free[bank]
            if free > busy:
                busy = free
            phase = busy % trefi
            if phase < block:
                refreshes += 1
            ready = busy + (block - phase)
            if busy > ready:
                ready = busy
            done_shifted = ready + service
            bank_free[bank] = done_shifted
            done = done_shifted - phase_b

            # Outbound link: response flit (free for full-duplex writes).
            x = done - shift_out[i]
            if x > m_out:
                m_out = x
            start_out = m_out + shift_out[i]
            outbound_free = start_out + svc_out[i]
            t = outbound_free + stack_ns
            if retry_draw[i]:
                t = t + retry_penalty_ns

            latencies[i] = (t - arrival) + host_ns

            if buf is not None and buf.sampled(i):
                traced += 1
                mc_entry = inbound_free + stack_ns
                bank_entry = start_mc + fixed_mc_ns
                bank_ready = busy - phase_b
                ready_real = ready - phase_b
                spans = (
                    ("link.in.wait", "link", arrival, start_in - arrival),
                    ("link.in.serialize", "link", start_in, flit_ns),
                    ("link.in.stack", "link", inbound_free, stack_ns),
                    ("mc.queue.wait", "mc", mc_entry, start_mc - mc_entry),
                    ("mc.schedule", "mc", start_mc, fixed_mc_ns),
                    ("bank.wait", "dram", bank_entry,
                     bank_ready - bank_entry),
                    ("bank.refresh", "dram", bank_ready,
                     ready_real - bank_ready),
                    ("bank.service", "dram", ready_real, done - ready_real),
                    ("link.out.wait", "link", done, start_out - done),
                    ("link.out.serialize", "link", start_out, svc_out[i]),
                    ("link.out.stack", "link", outbound_free, stack_ns),
                    ("link.retry", "link", outbound_free + stack_ns,
                     retry_penalty_ns if retry_draw[i] else 0.0),
                    ("host.overhead", "host", t, host_ns),
                )
                for name, cat, start_ns, dur_ns in spans:
                    if dur_ns > 0.0 or name == "host.overhead":
                        buf.add(name, cat, start_ns, dur_ns, track=i)
                # Annotate the closing span with the request's identity.
                last = buf.spans[-1]
                last.args.update(
                    device=device.name,
                    bank=bank,
                    write=bool(inp.writes[i]),
                    latency_ns=float(latencies[i]),
                )

        return latencies, conflicts, refreshes, traced

    def compare_with_analytic(
        self,
        offered_gbps: float,
        n_requests: int = 40_000,
        engine: str = "auto",
    ) -> dict:
        """Event-driven vs analytic mean/percentiles at one load."""
        sim = self.simulate(n_requests, offered_gbps, engine=engine)
        return compare_result_with_analytic(self.device, sim)


def compare_result_with_analytic(device: CxlDevice, sim: EventSimResult) -> dict:
    """Event-driven result vs the analytic closed forms at its load."""
    dist = device.distribution(sim.offered_gbps)
    return {
        "load_gbps": sim.offered_gbps,
        "sim_mean_ns": sim.mean_ns,
        "analytic_mean_ns": dist.mean_ns,
        "sim_p99_ns": sim.percentile(99),
        "analytic_p99_ns": dist.percentile(99),
        "sim_tail_gap_ns": sim.tail_gap_ns(),
        "analytic_tail_gap_ns": dist.tail_gap_ns(),
    }


def simulate_batch(
    points: Sequence[Tuple["EventDrivenDevice", int, float, float]],
) -> List[EventSimResult]:
    """Simulate many operating points through the fused batch kernel.

    ``points`` are ``(sim, n_requests, offered_gbps, read_fraction)``
    tuples -- heterogeneous devices, loads, mixes, and request counts are
    all fine; the auto-chunker splits the batch into cache-sized fused
    kernel calls.  Each point's randomness (and its fault-plan stream, if
    a plan is active) is drawn exactly as a solo :meth:`simulate` call
    would draw it, so every returned result is byte-identical to its solo
    twin -- only the ``engine`` field reads ``"batch"``.

    Tracing is per-request by nature and cannot ride the fused kernel;
    an active trace buffer is a configuration error here.
    """
    if tracing() is not None:
        raise ConfigurationError(
            "the batch engine cannot emit per-request trace spans; "
            "run cells solo with engine='scalar' when tracing"
        )
    prepared = []
    for sim, n_requests, offered_gbps, read_fraction in points:
        sim._validate(n_requests, offered_gbps, read_fraction)
        inp, applied = sim._prepare_with_faults(
            n_requests, offered_gbps, read_fraction
        )
        prepared.append((sim, inp, applied, offered_gbps, read_fraction))

    timelines: List = []
    inputs = [inp for _, inp, _, _, _ in prepared]
    for lo, hi in batch_chunks(
        [inp.n for inp in inputs], [inp.n_banks for inp in inputs]
    ):
        timelines.extend(batch_timeline(inputs[lo:hi]))

    return [
        sim._publish(
            inp, applied,
            timeline.latencies_ns,
            timeline.bank_conflicts,
            timeline.refresh_collisions,
            0,
            offered_gbps, read_fraction, "batch",
        )
        for (sim, inp, applied, offered_gbps, read_fraction), timeline
        in zip(prepared, timelines)
    ]
