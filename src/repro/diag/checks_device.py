"""Device / memory-controller invariants: latency floors, queue sanity,
throughput ceilings, and Table 1 calibration fidelity.

These encode what Figure 3a and Table 1 guarantee about real devices:
loaded latency never dips below the unloaded floor and grows monotonically
with injected bandwidth up to the saturation wall; a device never serves
more than its link or backend can carry; and the white-box latency
breakdown must conserve the calibrated idle latency (nothing unattributed,
nothing counted twice).
"""

from __future__ import annotations

from typing import Iterator

from repro.diag.context import DiagContext
from repro.diag.registry import invariant, subjects
from repro.diag.report import Violation

_UTIL_GRID = tuple(i / 10.0 for i in range(11))


@invariant(
    name="latency-floor",
    layer="device",
    description="loaded latency never drops below the unloaded latency "
    "(queueing and tails only ever add)",
)
def check_latency_floor(ctx: DiagContext) -> Iterator[Violation]:
    """Loaded latency stays at or above the unloaded floor."""
    targets = ctx.targets
    subjects(check_latency_floor, len(targets))
    for target in targets:
        floor = target.mean_latency_ns(0.0)
        for load in ctx.load_grid(target):
            loaded = target.mean_latency_ns(load)
            if loaded < floor * (1.0 - ctx.rel_tol):
                yield Violation(
                    layer="device",
                    check="latency-floor",
                    subject=target.name,
                    message="loaded latency below the unloaded floor",
                    context={
                        "load_gbps": load,
                        "loaded_ns": loaded,
                        "floor_ns": floor,
                    },
                )


@invariant(
    name="latency-monotone",
    layer="device",
    description="mean loaded latency is non-decreasing in injected "
    "bandwidth (Figure 3a curve shape)",
)
def check_latency_monotone(ctx: DiagContext) -> Iterator[Violation]:
    """Loaded latency never falls as injected bandwidth rises."""
    targets = ctx.targets
    subjects(check_latency_monotone, len(targets))
    for target in targets:
        grid = ctx.load_grid(target)
        latencies = [target.mean_latency_ns(load) for load in grid]
        for (lo_load, lo_ns), (hi_load, hi_ns) in zip(
            zip(grid, latencies), zip(grid[1:], latencies[1:])
        ):
            if hi_ns < lo_ns * (1.0 - ctx.rel_tol):
                yield Violation(
                    layer="device",
                    check="latency-monotone",
                    subject=target.name,
                    message="latency decreased as injected bandwidth rose",
                    context={
                        "load_lo_gbps": lo_load,
                        "load_hi_gbps": hi_load,
                        "latency_lo_ns": lo_ns,
                        "latency_hi_ns": hi_ns,
                    },
                )


@invariant(
    name="throughput-ceiling",
    layer="device",
    description="achievable throughput never exceeds the link payload "
    "ceiling or the DRAM backend",
)
def check_throughput_ceiling(ctx: DiagContext) -> Iterator[Violation]:
    """Served throughput respects link and backend capacities."""
    devices = ctx.cxl_devices()
    subjects(check_throughput_ceiling, len(devices))
    for device in devices:
        profile = device.profile
        link_ceiling = profile.link.effective_gbps_per_direction
        read_peak = device.peak_bandwidth_gbps(1.0)
        if read_peak > link_ceiling * (1.0 + ctx.rel_tol):
            yield Violation(
                layer="device",
                check="throughput-ceiling",
                subject=device.name,
                message="read throughput exceeds the link payload ceiling",
                context={
                    "read_peak_gbps": read_peak,
                    "link_ceiling_gbps": link_ceiling,
                },
            )
        _, best_total = device.bandwidth_model().best_mix()
        backend = profile.backend_gbps
        if best_total > backend * (1.0 + ctx.rel_tol):
            yield Violation(
                layer="device",
                check="throughput-ceiling",
                subject=device.name,
                message="total throughput exceeds the DRAM backend capacity",
                context={
                    "best_total_gbps": best_total,
                    "backend_gbps": backend,
                },
            )


@invariant(
    name="queue-sanity",
    layer="device",
    description="queueing delay is zero below onset, monotone in "
    "utilization, and capped by the full-queue delay",
)
def check_queue_sanity(ctx: DiagContext) -> Iterator[Violation]:
    """Queueing delay is zero at idle, monotone, and capped."""
    targets = ctx.targets
    subjects(check_queue_sanity, len(targets))
    for target in targets:
        queue = target.queue_model()
        if queue.delay_ns(0.0) != 0.0:
            yield Violation(
                layer="device",
                check="queue-sanity",
                subject=target.name,
                message="non-zero queueing delay at zero utilization",
                context={"delay_at_zero_ns": queue.delay_ns(0.0)},
            )
        previous = 0.0
        for util in _UTIL_GRID:
            delay = queue.delay_ns(util)
            if delay < previous - ctx.rel_tol * max(previous, 1.0):
                yield Violation(
                    layer="device",
                    check="queue-sanity",
                    subject=target.name,
                    message="queueing delay decreased with utilization",
                    context={
                        "util": util,
                        "delay_ns": delay,
                        "previous_ns": previous,
                    },
                )
            if delay > queue.max_delay_ns * (1.0 + ctx.rel_tol):
                yield Violation(
                    layer="device",
                    check="queue-sanity",
                    subject=target.name,
                    message="queueing delay exceeds the full-queue cap",
                    context={
                        "util": util,
                        "delay_ns": delay,
                        "max_delay_ns": queue.max_delay_ns,
                    },
                )
            previous = delay


@invariant(
    name="breakdown-conservation",
    layer="device",
    description="the white-box latency breakdown has non-negative "
    "components that sum to the calibrated idle latency",
)
def check_breakdown_conservation(ctx: DiagContext) -> Iterator[Violation]:
    """Latency breakdown components are non-negative and conserve the total."""
    devices = ctx.cxl_devices()
    subjects(check_breakdown_conservation, len(devices))
    for device in devices:
        breakdown = device.latency_breakdown_ns()
        for component, value in breakdown.items():
            if value < 0:
                yield Violation(
                    layer="device",
                    check="breakdown-conservation",
                    subject=device.name,
                    message=f"negative {component!r} latency component",
                    context={component: value},
                )
        total = sum(breakdown.values())
        calibrated = device.profile.idle_latency_ns
        if abs(total - calibrated) > ctx.rel_tol * calibrated:
            yield Violation(
                layer="device",
                check="breakdown-conservation",
                subject=device.name,
                message="breakdown components do not sum to the calibrated "
                "idle latency",
                context={"sum_ns": total, "calibrated_ns": calibrated},
            )


_ENGINE_CHECK_REQUESTS = 600
_ENGINE_CHECK_POINTS = (
    # (load as a fraction of read peak, read fraction)
    (0.35, 1.0),
    (0.7, 0.7),
)


@invariant(
    name="eventsim-engine-identity",
    layer="device",
    description="the fused event-simulation kernel, on a batch of one, is "
    "bit-identical to the scalar reference loop (latencies and all event "
    "counters)",
)
def check_eventsim_engine_identity(ctx: DiagContext) -> Iterator[Violation]:
    """The scalar loop and the fused kernel (``engine="vector"``, a batch
    of one) agree bit-for-bit on every device."""
    import numpy as np

    from repro.hw.cxl.eventdevice import EventDrivenDevice

    devices = ctx.cxl_devices()
    subjects(
        check_eventsim_engine_identity,
        len(devices) * len(_ENGINE_CHECK_POINTS),
    )
    for device in devices:
        sim = EventDrivenDevice(device, seed=ctx.seed)
        peak = device.peak_bandwidth_gbps(1.0)
        for load_fraction, read_fraction in _ENGINE_CHECK_POINTS:
            load = load_fraction * peak
            scalar = sim.simulate(
                _ENGINE_CHECK_REQUESTS, load,
                read_fraction=read_fraction, engine="scalar",
            )
            vector = sim.simulate(
                _ENGINE_CHECK_REQUESTS, load,
                read_fraction=read_fraction, engine="vector",
            )
            subject = f"{device.name}@{load_fraction:.2f}/rf{read_fraction}"
            if not np.array_equal(scalar.latencies_ns, vector.latencies_ns):
                diff = np.abs(scalar.latencies_ns - vector.latencies_ns)
                yield Violation(
                    layer="device",
                    check="eventsim-engine-identity",
                    subject=subject,
                    message="vector engine latencies diverge from the "
                    "scalar reference",
                    context={
                        "diverging_requests": int(
                            np.count_nonzero(diff > 0.0)
                        ),
                        "max_abs_diff_ns": float(diff.max()),
                    },
                )
            counters = {
                "bank_conflicts": (
                    scalar.bank_conflicts, vector.bank_conflicts
                ),
                "refresh_collisions": (
                    scalar.refresh_collisions, vector.refresh_collisions
                ),
                "link_retries": (scalar.link_retries, vector.link_retries),
            }
            mismatched = {
                name: {"scalar": s, "vector": v}
                for name, (s, v) in counters.items()
                if s != v
            }
            if mismatched:
                yield Violation(
                    layer="device",
                    check="eventsim-engine-identity",
                    subject=subject,
                    message="vector engine event counters diverge from the "
                    "scalar reference",
                    context=mismatched,
                )


@invariant(
    name="eventsim-batch-identity",
    layer="device",
    description="one fused batch over many cells returns byte-identical "
    "results to running each cell alone, including under fault plans",
)
def check_eventsim_batch_identity(ctx: DiagContext) -> Iterator[Violation]:
    """Batched execution is indistinguishable from solo, cell by cell.

    One heterogeneous batch fuses every device at every operating point;
    a second batch runs under a fault plan exercising the per-cell RNG
    streams (retry storm mutates the retry draws, a thermal window
    applies ``service_scale``).  A divergence anywhere means the
    engine's batch-or-serial choice could leak into figures.
    """
    import numpy as np

    from repro.faults.plan import FaultEpisode, FaultPlan, fault_injection
    from repro.hw.cxl.eventdevice import EventDrivenDevice, simulate_batch

    devices = ctx.cxl_devices()
    sims = [EventDrivenDevice(device, seed=ctx.seed) for device in devices]
    points = [
        (
            sim,
            _ENGINE_CHECK_REQUESTS,
            load_fraction * sim.device.peak_bandwidth_gbps(1.0),
            read_fraction,
        )
        for sim in sims
        for load_fraction, read_fraction in _ENGINE_CHECK_POINTS
    ]
    plan = FaultPlan(
        name="diag-batch-identity",
        episodes=(
            FaultEpisode(
                kind="link_retry_storm", start_ns=2_000, duration_ns=30_000
            ),
            FaultEpisode(
                kind="thermal_throttle", start_ns=10_000, duration_ns=40_000
            ),
        ),
    )
    subjects(check_eventsim_batch_identity, 2 * len(points))

    def sweep(label):
        solo = [
            sim.simulate(n, load, read_fraction=rf, engine="vector")
            for sim, n, load, rf in points
        ]
        batched = simulate_batch(points)
        for (sim, _, load, rf), s, b in zip(points, solo, batched):
            subject = f"{sim.device.name}@{load:.1f}gbps/rf{rf}{label}"
            if not np.array_equal(s.latencies_ns, b.latencies_ns):
                diff = np.abs(s.latencies_ns - b.latencies_ns)
                yield Violation(
                    layer="device",
                    check="eventsim-batch-identity",
                    subject=subject,
                    message="batched latencies diverge from solo execution",
                    context={
                        "diverging_requests": int(
                            np.count_nonzero(diff > 0.0)
                        ),
                        "max_abs_diff_ns": float(diff.max()),
                    },
                )
            mismatched = {
                name: {"solo": sv, "batch": bv}
                for name, (sv, bv) in {
                    "bank_conflicts": (s.bank_conflicts, b.bank_conflicts),
                    "refresh_collisions": (
                        s.refresh_collisions, b.refresh_collisions
                    ),
                    "link_retries": (s.link_retries, b.link_retries),
                    "injected_retries": (
                        s.injected_retries, b.injected_retries
                    ),
                    "throttled_requests": (
                        s.throttled_requests, b.throttled_requests
                    ),
                }.items()
                if sv != bv
            }
            if mismatched:
                yield Violation(
                    layer="device",
                    check="eventsim-batch-identity",
                    subject=subject,
                    message="batched event counters diverge from solo "
                    "execution",
                    context=mismatched,
                )

    yield from sweep("")
    with fault_injection(plan):
        yield from sweep("/faulted")


_THREAD_CHECK_REQUESTS = (2_000, 1_500)
_THREAD_CHECK_THREADS = 4
_THREAD_CHECK_ROUNDS = 3


@invariant(
    name="eventsim-thread-identity",
    layer="device",
    description="simulations running on concurrent threads (one cell per "
    "call and one fused batch) return byte-identical results to serial runs",
)
def check_eventsim_thread_identity(ctx: DiagContext) -> Iterator[Violation]:
    """The kernels share no mutable state across threads.

    ``repro serve`` computes cold queries on a thread pool, so every job
    -- one single-cell simulation per operating point, plus one fused
    batch over all of them -- runs several times on concurrent threads
    and must match its serial run bit for bit.
    """
    from concurrent.futures import ThreadPoolExecutor

    import numpy as np

    from repro.hw.cxl.eventdevice import EventDrivenDevice, simulate_batch

    points = []
    for device in ctx.cxl_devices():
        sim = EventDrivenDevice(device, seed=ctx.seed)
        peak = device.peak_bandwidth_gbps(1.0)
        for n, (load_fraction, read_fraction) in zip(
            _THREAD_CHECK_REQUESTS, _ENGINE_CHECK_POINTS
        ):
            points.append((sim, n, load_fraction * peak, read_fraction))
    jobs = {
        f"{sim.device.name}@{load:.1f}gbps/rf{rf}/vector": (
            lambda sim=sim, n=n, load=load, rf=rf: [
                sim.simulate(n, load, read_fraction=rf, engine="vector")
            ]
        )
        for sim, n, load, rf in points
    }
    jobs["all-devices/batch"] = lambda: simulate_batch(points)
    subjects(check_eventsim_thread_identity, len(jobs))

    serial = {name: job() for name, job in jobs.items()}
    names = list(jobs) * _THREAD_CHECK_ROUNDS
    with ThreadPoolExecutor(max_workers=_THREAD_CHECK_THREADS) as pool:
        concurrent = list(pool.map(lambda name: jobs[name](), names))

    def counters(r):
        return (r.bank_conflicts, r.refresh_collisions, r.link_retries)

    diverged = {}
    for name, results in zip(names, concurrent):
        for expected, got in zip(serial[name], results):
            if not np.array_equal(expected.latencies_ns, got.latencies_ns) \
                    or counters(expected) != counters(got):
                diverged[name] = diverged.get(name, 0) + 1
    for name, count in diverged.items():
        yield Violation(
            layer="device",
            check="eventsim-thread-identity",
            subject=name,
            message="a concurrent run diverges from the serial run",
            context={"diverging_results": count},
        )


@invariant(
    name="table1-calibration",
    layer="device",
    description="instantiated devices reproduce their Table 1 operating "
    "point (idle latency, read bandwidth) exactly",
)
def check_table1_calibration(ctx: DiagContext) -> Iterator[Violation]:
    """Devices reproduce their Table 1 calibration exactly."""
    devices = ctx.cxl_devices()
    subjects(check_table1_calibration, len(devices))
    for device in devices:
        profile = device.profile
        idle = device.idle_latency_ns()
        if abs(idle - profile.idle_latency_ns) > ctx.rel_tol * profile.idle_latency_ns:
            yield Violation(
                layer="device",
                check="table1-calibration",
                subject=device.name,
                message="idle latency drifted from the Table 1 calibration",
                context={
                    "idle_ns": idle,
                    "table1_ns": profile.idle_latency_ns,
                },
            )
        read_peak = device.peak_bandwidth_gbps(1.0)
        expected = min(profile.read_gbps, profile.backend_gbps)
        if abs(read_peak - expected) > ctx.rel_tol * expected:
            yield Violation(
                layer="device",
                check="table1-calibration",
                subject=device.name,
                message="read bandwidth drifted from the Table 1 calibration",
                context={"read_peak_gbps": read_peak, "table1_gbps": expected},
            )
