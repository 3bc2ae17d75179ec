"""Obs-layer invariants: instrumentation observes, never participates.

The whole point of :mod:`repro.obs` is to measure the measurement system
without perturbing it.  These checks enforce that contract on the shipped
models:

* **span accounting** -- on a fully traced event simulation, each
  request's span durations sum exactly (to numerical tolerance) to the
  latency the simulator reported for it.  A span model that drops, double
  counts, or misattributes a pipeline stage fails here.
* **trace noninterference** -- tracing on vs. off produces bit-identical
  latencies and identical event counters.  Since the untraced run resolves
  ``engine="auto"`` to the fused kernel while the traced run takes
  the scalar reference loop, this doubles as an end-to-end cross-engine
  comparison (the ``device`` layer checks the engines against each other
  directly).
* **metrics noninterference** -- running the pipeline with a live metrics
  registry installed produces bit-identical run observables.
* **export wellformedness** -- a populated registry round-trips through
  JSON with self-consistent histogram accounting and emits parseable
  Prometheus text.
* **serve event noninterference** -- executing a characterization query
  under the full serve observability pipeline (wide-event logger firing
  per cell, flight recorder, per-thread trace buffer) renders the exact
  same response bytes as a bare run, and every emitted event is
  schema-valid ndjson.
"""

from __future__ import annotations

import json
import re
from typing import Iterator

import numpy as np

from repro.diag.context import DiagContext
from repro.diag.registry import invariant, subjects
from repro.diag.report import Violation

SPAN_CHECK_REQUESTS = 400
"""Requests per device in the fully traced accounting simulation."""

SPAN_CHECK_LOAD_FRACTION = 0.4
"""Offered load as a fraction of device peak (deep enough for queueing)."""


def _sim_load(device) -> float:
    return SPAN_CHECK_LOAD_FRACTION * device.peak_bandwidth_gbps(1.0)


@invariant(
    name="span-accounting",
    layer="obs",
    description="per-request trace span durations sum to the request's "
    "reported latency",
)
def check_span_accounting(ctx: DiagContext) -> Iterator[Violation]:
    """Each traced request's spans tile its latency exactly."""
    from repro.hw.cxl.eventdevice import EventDrivenDevice
    from repro.obs.trace import TraceBuffer

    devices = ctx.cxl_devices()
    subjects(check_span_accounting, len(devices) * SPAN_CHECK_REQUESTS)
    for device in devices:
        buffer = TraceBuffer(sample_every=1)
        result = EventDrivenDevice(device, seed=ctx.seed).simulate(
            SPAN_CHECK_REQUESTS, _sim_load(device), trace=buffer
        )
        tracks = buffer.tracks()
        if len(tracks) != SPAN_CHECK_REQUESTS:
            yield Violation(
                layer="obs",
                check="span-accounting",
                subject=device.name,
                message="fully sampled trace is missing request tracks",
                context={
                    "expected": SPAN_CHECK_REQUESTS,
                    "traced": len(tracks),
                },
            )
            continue
        for track in tracks:
            span_sum = buffer.span_sum_ns(track)
            latency = float(result.latencies_ns[track])
            if abs(span_sum - latency) > 1e-6 + 1e-9 * latency:
                yield Violation(
                    layer="obs",
                    check="span-accounting",
                    subject=f"{device.name}/req{track}",
                    message="span durations do not sum to the reported "
                    "latency",
                    context={
                        "span_sum_ns": span_sum,
                        "latency_ns": latency,
                        "gap_ns": span_sum - latency,
                    },
                )


@invariant(
    name="trace-noninterference",
    layer="obs",
    description="tracing on vs. off yields bit-identical simulated "
    "latencies and event counters",
)
def check_trace_noninterference(ctx: DiagContext) -> Iterator[Violation]:
    """Tracing must not perturb the simulated timeline."""
    from repro.hw.cxl.eventdevice import EventDrivenDevice
    from repro.obs.trace import TraceBuffer

    devices = ctx.cxl_devices()
    subjects(check_trace_noninterference, len(devices))
    for device in devices:
        sim = EventDrivenDevice(device, seed=ctx.seed)
        load = _sim_load(device)
        plain = sim.simulate(SPAN_CHECK_REQUESTS, load)
        traced = sim.simulate(
            SPAN_CHECK_REQUESTS, load, trace=TraceBuffer(sample_every=3)
        )
        if not np.array_equal(plain.latencies_ns, traced.latencies_ns):
            yield Violation(
                layer="obs",
                check="trace-noninterference",
                subject=device.name,
                message="tracing changed per-request latencies",
                context={
                    "max_abs_diff_ns": float(
                        np.max(np.abs(plain.latencies_ns - traced.latencies_ns))
                    ),
                },
            )
        observed = (
            traced.bank_conflicts, traced.refresh_collisions,
            traced.link_retries,
        )
        expected = (
            plain.bank_conflicts, plain.refresh_collisions,
            plain.link_retries,
        )
        if observed != expected:
            yield Violation(
                layer="obs",
                check="trace-noninterference",
                subject=device.name,
                message="tracing changed simulator event counters",
                context={"plain": str(expected), "traced": str(observed)},
            )


@invariant(
    name="metrics-noninterference",
    layer="obs",
    description="running the pipeline with a live metrics registry yields "
    "bit-identical run observables",
)
def check_metrics_noninterference(ctx: DiagContext) -> Iterator[Violation]:
    """Metrics collection must not perturb pipeline results."""
    from repro.cpu.pipeline import PipelineConfig, run_workload
    from repro.obs.metrics import MetricsRegistry, use_registry
    from repro.runtime.serialize import run_result_to_dict

    platform = next(
        (p for p in ctx.platforms if getattr(p, "name", "") == "EMR2S"),
        ctx.platforms[0],
    )
    devices = ctx.cxl_devices()
    target = devices[0] if devices else ctx.targets[0]
    config = PipelineConfig(seed=ctx.seed)
    workloads = ctx.sampled_workloads()
    subjects(check_metrics_noninterference, len(workloads))
    for workload in workloads:
        reference = run_result_to_dict(
            run_workload(workload, platform, target, config)
        )
        registry = MetricsRegistry()
        with use_registry(registry):
            observed = run_result_to_dict(
                run_workload(workload, platform, target, config)
            )
        if observed != reference:
            yield Violation(
                layer="obs",
                check="metrics-noninterference",
                subject=workload.name,
                message="a live metrics registry changed run observables",
                context={"instruments": len(registry)},
            )


_PROM_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.e+-]+(inf)?$"
)


@invariant(
    name="export-wellformed",
    layer="obs",
    description="a populated registry exports self-consistent JSON and "
    "parseable Prometheus text",
)
def check_export_wellformed(ctx: DiagContext) -> Iterator[Violation]:
    """Registry exports stay machine-readable and internally consistent."""
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    registry.counter("demo.requests", device="CXL-A").inc(7)
    registry.gauge("demo.hit_rate").set(0.5)
    histogram = registry.histogram("demo.latency_ns", buckets=(100.0, 500.0))
    for value in (50.0, 120.0, 5000.0, 130.0):
        histogram.observe(value)
    subjects(check_export_wellformed, len(registry))

    try:
        snapshot = json.loads(registry.to_json())
    except ValueError as exc:
        yield Violation(
            layer="obs",
            check="export-wellformed",
            subject="json",
            message=f"JSON export does not parse: {exc}",
        )
        return
    for section in ("counters", "gauges", "histograms"):
        if section not in snapshot:
            yield Violation(
                layer="obs",
                check="export-wellformed",
                subject="json",
                message=f"export is missing its {section!r} section",
            )
    for name, data in snapshot.get("histograms", {}).items():
        if sum(data["counts"]) != data["count"]:
            yield Violation(
                layer="obs",
                check="export-wellformed",
                subject=name,
                message="histogram bucket counts do not sum to its count",
                context={
                    "bucket_sum": sum(data["counts"]),
                    "count": data["count"],
                },
            )

    for line in registry.to_prometheus().strip().splitlines():
        if line.startswith("#") or not line:
            continue
        if not _PROM_SAMPLE.match(line):
            yield Violation(
                layer="obs",
                check="export-wellformed",
                subject="prometheus",
                message="sample line does not match the exposition format",
                context={"line": line},
            )


EVENT_CHECK_QUERY = {
    "device": "cxl-a",
    "points": [{"offered_gbps": 2.0}, {"offered_gbps": 5.0}],
    "n_requests": 3_000,
}
"""The small characterization query the serve-event check executes twice."""


@invariant(
    name="serve-event-noninterference",
    layer="obs",
    description="the serve observability pipeline (wide events, flight "
    "recorder, per-thread tracing) leaves response bytes unchanged and "
    "emits only schema-valid events",
)
def check_serve_event_noninterference(ctx: DiagContext) -> Iterator[Violation]:
    """The serve pipeline's instrumentation must be invisible in results.

    Runs the same query bare and then under everything ``repro serve``
    hangs off a request -- an :class:`EventLogger` firing one ``cell``
    event per point, a :class:`FlightRecorder` holding the wide event,
    and a per-thread :class:`TraceBuffer` (which, as in the server's
    worker threads, forces the scalar reference engine) -- and demands
    byte-identical rendered documents plus schema-valid ndjson output.
    """
    from io import StringIO

    from repro.obs.events import EventLogger, build_event, validate_event
    from repro.obs.flight import FlightRecorder
    from repro.obs.trace import TraceBuffer, thread_tracing
    from repro.serve.query import (
        build_engine,
        execute_query,
        parse_query,
        render_document,
    )

    query = parse_query(dict(EVENT_CHECK_QUERY, seed=ctx.seed))
    subjects(check_serve_event_noninterference, len(query.points))
    baseline = render_document(execute_query(query, build_engine()))

    sink = StringIO()
    logger = EventLogger(sink, level="debug")
    recorder = FlightRecorder(capacity=4)
    buffer = TraceBuffer(sample_every=1)

    def on_point(index: int, doc) -> None:
        logger.emit(
            "cell", level="debug", device=query.device,
            index=index, ok="error" not in doc,
        )

    with thread_tracing(buffer):
        document = execute_query(query, build_engine(), on_point=on_point)
    observed = render_document(document)
    recorder.record(
        build_event("request", level="info", request_id="diag-req",
                    status=200, query_key=query.key()),
        [],
    )

    if observed != baseline:
        yield Violation(
            layer="obs",
            check="serve-event-noninterference",
            subject=query.device,
            message="the observability pipeline changed the rendered "
            "response document",
            context={
                "baseline_bytes": len(baseline),
                "observed_bytes": len(observed),
            },
        )
    if logger.stats()["emitted"] != len(query.points):
        yield Violation(
            layer="obs",
            check="serve-event-noninterference",
            subject=query.device,
            message="the event logger did not emit one event per cell",
            context={
                "expected": len(query.points),
                "stats": str(logger.stats()),
            },
        )
    for line in sink.getvalue().splitlines():
        try:
            record = json.loads(line)
        except ValueError as exc:
            yield Violation(
                layer="obs",
                check="serve-event-noninterference",
                subject="ndjson",
                message=f"emitted event line does not parse: {exc}",
                context={"line": line},
            )
            continue
        problems = validate_event(record)
        if problems:
            yield Violation(
                layer="obs",
                check="serve-event-noninterference",
                subject="ndjson",
                message="emitted event fails schema validation",
                context={"problems": str(problems), "line": line},
            )
    if recorder.lookup("diag-req") is None:
        yield Violation(
            layer="obs",
            check="serve-event-noninterference",
            subject="flight",
            message="flight recorder lost the recorded request",
            context={"stats": str(recorder.stats())},
        )
