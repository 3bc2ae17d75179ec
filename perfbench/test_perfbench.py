"""Self-tests of the benchmark's own arithmetic and contract.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import json
import random
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from spans import (
    METRIC_NAME,
    Span,
    SpanRecorder,
    attribute,
    highest_percentile,
    percentile,
)

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- the percentile rule ----------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_highest_percentile_keeps_ten_samples_beyond(n, expected):
    assert highest_percentile(n) == expected


def test_percentile_matches_numpy():
    rng = random.Random(7)
    values = [rng.expovariate(1.0) for _ in range(257)]
    for p in (0.0, 12.5, 50.0, 90.0, 99.9, 100.0):
        assert percentile(values, p) == pytest.approx(
            float(np.percentile(values, p)), rel=1e-12
        )


# -- self-time arithmetic ---------------------------------------------------

def _span(span_id, start, end, thread="main", parent=0, wait=False):
    return Span(span_id, f"s{span_id}", "layer", start, end, parent, thread,
                "", wait)


def test_self_time_is_duration_minus_children():
    spans = [_span(1, 0.0, 10.0), _span(2, 2.0, 5.0, parent=1),
             _span(3, 3.0, 4.0, parent=2)]
    self_time, unattributed = attribute(spans, [(0.0, 10.0)])
    assert self_time == pytest.approx({1: 7.0, 2: 2.0, 3: 1.0})
    assert unattributed == 0.0


def test_time_outside_spans_is_unattributed_and_windows_clip():
    spans = [_span(1, 1.0, 3.0), _span(2, 5.0, 9.0)]
    self_time, unattributed = attribute(spans, [(0.0, 4.0), (6.0, 8.0)])
    assert self_time == pytest.approx({1: 2.0, 2: 2.0})
    assert unattributed == pytest.approx(2.0)


def test_working_threads_share_time_and_waits_fill_gaps():
    spans = [_span(1, 0.0, 4.0, "a"), _span(2, 2.0, 6.0, "b"),
             _span(3, 0.0, 8.0, "c", wait=True)]
    self_time, unattributed = attribute(spans, [(0.0, 10.0)])
    assert self_time == pytest.approx({1: 3.0, 2: 3.0, 3: 2.0})
    assert unattributed == pytest.approx(2.0)


def test_self_times_and_unattributed_add_up_to_the_windows():
    rng = random.Random(11)
    spans = []
    ids = iter(range(1, 10_000))

    def nest(thread, lo, hi, parent, depth):
        t = lo
        while t < hi and depth < 4:
            start = t + rng.uniform(0.0, (hi - t) / 3)
            end = start + rng.uniform(0.0, hi - start)
            span_id = next(ids)
            spans.append(_span(span_id, start, end, thread, parent,
                               wait=rng.random() < 0.2))
            nest(thread, start, end, span_id, depth + 1)
            t = end + rng.uniform(0.0, 1.0)

    for thread in ("a", "b", "c"):
        nest(thread, 0.0, 100.0, 0, 0)
    windows = [(5.0, 40.0), (45.0, 97.0)]
    self_time, unattributed = attribute(spans, windows)
    assert sum(self_time.values()) + unattributed == pytest.approx(87.0)


def test_recorder_nests_spans_per_thread():
    recorder = SpanRecorder()
    outer = recorder.begin()
    inner = recorder.begin()
    recorder.end(inner, "inner", "x")
    recorder.end(outer, "outer", "y")
    first, second = recorder.spans
    assert first.parent == second.span_id and second.parent == 0


# -- metric names and BENCHMARK.json ---------------------------------------

@pytest.mark.parametrize("name", [
    "wall_s", "sim.p50_ns.CXL-A", "dist.unit_rtt_ms", "9lives", "a" * 64,
])
def test_metric_name_pattern_accepts(name):
    assert METRIC_NAME.match(name)


@pytest.mark.parametrize("name", ["", "-x", ".x", "a b", "a/b", "a" * 65])
def test_metric_name_pattern_rejects(name):
    assert not METRIC_NAME.match(name)


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(METRIC_NAME.match(name) for name in names)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["per_layer"]) <= 128


def test_every_per_layer_metric_has_a_producer():
    sys.path.insert(0, str(ROOT / "src"))
    from run import OPTIONAL_LAYER_METRICS
    from tracing import layer_metrics

    produced, _ = layer_metrics(SpanRecorder(), [(0.0, 1.0)])
    produced = set(produced) | set(OPTIONAL_LAYER_METRICS) | {
        "iterations", "error_rate", "trace.overhead_frac", "cache.json_bytes",
        "store.segment_bytes", "store.manifest_bytes",
    }
    for metric in SPEC["per_layer"]:
        name = metric["name"]
        assert name in produced or name.startswith(("serve.", "sim.")), name


# -- the tracer -------------------------------------------------------------

def test_tracer_reconciles_and_restores_the_library():
    sys.path.insert(0, str(ROOT / "src"))
    from repro.runtime.cache import RunCache
    from repro.runtime.executor import CampaignEngine, SimCell
    from tracing import LayerTracer, layer_metrics

    original = CampaignEngine.run_cells
    recorder = SpanRecorder()
    cells = [SimCell(device="CXL-A", n_requests=200, offered_gbps=g)
             for g in (2.0, 4.0, 6.0)]
    with LayerTracer(recorder):
        recorder.active = True
        start = time.perf_counter()
        CampaignEngine(cache=RunCache()).run_cells(cells)
        end = time.perf_counter()
    assert CampaignEngine.run_cells is original
    found, self_time = layer_metrics(recorder, [(start, end)])
    assert found["eventsim.requests"] == 600
    assert found["executor.cells_run"] == 3
    layers = sum(value for name, value in found.items()
                 if name.endswith(".self_s"))
    assert layers + found["trace.unattributed_s"] == pytest.approx(
        found["trace.wall_s"], rel=1e-9
    )


# -- the speed probe and the run's disk hygiene -----------------------------

def test_speed_factor_is_the_mean_inverse_tick_before_and_in_a_phase():
    from speed import PAD_S, TICK_NOMINAL_S, SpeedProbe

    probe = SpeedProbe()
    probe.stamps = [0.0, 1.0, 2.0, 3.0]
    probe.ticks = [TICK_NOMINAL_S * k for k in (1.0, 2.0, 4.0, 1.0)]
    assert probe.factor(1.0 + PAD_S, 2.5) == pytest.approx((0.5 + 0.25) / 2)
    assert probe.factor(2.5, 2.6) == pytest.approx(0.25)
    with pytest.raises(RuntimeError):
        SpeedProbe().factor(0.0, 1.0)


def test_speed_probe_ticks_while_active_and_restores_the_handler():
    import signal

    from speed import SpeedProbe

    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.3:
            sum(range(1000))
        end = time.perf_counter()
    assert len(probe.ticks) >= 2
    assert probe.factor(start, end) > 0.0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_release_space_truncates_and_keeps_the_files(tmp_path):
    from run import release_space

    for name in ("a.json", "sub/b.f64"):
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"x" * 100)
    release_space(tmp_path)
    assert sorted(p.stat().st_size for p in tmp_path.rglob("*")
                  if p.is_file()) == [0, 0]
