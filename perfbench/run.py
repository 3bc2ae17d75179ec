"""The repository's benchmark: one workload, timed, checked and reported.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``NAME`` is one of ``campaign``, ``campaign_dist``, ``simgrid`` and
``serve`` (see ``perfbench/README.md``).  The run

1. times set-up in fresh processes (``setup_probe.py``, median of 7);
2. repeats untraced iterations of the workload until ``--seconds`` have
   passed (at least three), checking every output; times are normalized
   by the speed probe (``speed.py``);
3. with ``--trace 1``, runs one more iteration with every layer's entry
   points wrapped in spans, writes its Chrome trace, and attributes the
   traced wall time to the layers.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  A run record (machine, seed, sample counts, every
metric) lands in ``.perfbench/records/``.  The exit code is 0 only when
every check passed; 2 when the directory is not a checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from serveload import ServeWorkload
from spans import METRIC_NAME, SpanRecorder, median, write_chrome_trace
from speed import SpeedProbe
from workloads import (
    CampaignDistWorkload,
    CampaignWorkload,
    SimgridWorkload,
)

WORKLOADS = {
    workload.name: workload
    for workload in (CampaignWorkload, CampaignDistWorkload,
                     SimgridWorkload, ServeWorkload)
}
REQUIRED = (
    "BENCHMARK.json",
    "src/repro/__init__.py",
    "data/emr_campaign.csv",
    "data/emr_campaign.json",
)
MIN_ITERATIONS = 3
"""Also the iterations behind ``peak_rss_mb``: the high-water mark after a
fixed amount of work, since it creeps up with every iteration a run fits."""
SETUP_PROBES = 7
OPTIONAL_LAYER_METRICS = (
    "sim_mreq_per_s", "query_p50_ms", "query_samples", "req_p50_ms",
    "req_p90_ms", "req_samples", "goodput_qps", "dist.leases_granted",
    "dist.leases_expired", "dist.duplicate_commits",
)
"""Per-layer metrics only some workloads produce; 0 on the others, as
are the ``serve.*`` and ``sim.*`` figures."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_seconds(name: str, seed: int, workdir: Path) -> List[List[float]]:
    """[host, normalized] set-up seconds of ``SETUP_PROBES`` processes."""
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    times = []
    for index in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(probe), name, str(seed),
             str(workdir / f"probe{index}")],
            capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        times.append([float(word) for word in done.stdout.split()[-2:]])
    return times


def release_space(workdir: Path) -> None:
    """Truncate every file the run wrote to zero bytes, keeping the inodes.

    Deleting them would be simpler, but on ext4 without a journal every
    file creation skips, one check at a time, each inode of its block
    group freed in the last 60 s (360 s while the inode table block is
    dirty): creating a run cache was measured 10x slower after a run
    deleted its files, a slowdown that grew over consecutive runs.  Delete
    ``.perfbench/`` after a benchmarking session.
    """
    for path in workdir.rglob("*"):
        if path.is_file() and not path.is_symlink():
            os.truncate(path, 0)


def machine() -> Dict[str, object]:
    """What the numbers were measured on."""
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
    }


def measure(args, root: Path, workdir: Path) -> Dict[str, object]:
    """Run the workload; returns the run record."""
    from tracing import layer_metrics, LayerTracer

    setups = setup_seconds(args.workload, args.seed, workdir)
    workload = WORKLOADS[args.workload](args.seed, workdir, root)
    workload.prepare()
    probe = workload.probe = SpeedProbe()
    iterations = []
    with probe:
        began = time.perf_counter()
        while (len(iterations) < MIN_ITERATIONS
               or time.perf_counter() - began < args.seconds):
            iterations.append(workload.iteration())
            if len(iterations) == MIN_ITERATIONS:
                peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            recorder = SpanRecorder()
            workload.recorder = recorder
            with LayerTracer(recorder):
                traced = workload.iteration()
            workload.recorder = None
    pooled: Dict[str, List[float]] = {}
    for it in iterations:
        for name, values in it.samples.items():
            pooled.setdefault(name, []).extend(values)
    walls = [it.wall_s for it in iterations]
    found = workload.summarize(pooled)
    found.update(
        setup_s=median([normalized for _, normalized in setups]),
        wall_s=median(walls),
        peak_rss_mb=peak_rss_mb,
        iterations=len(iterations),
    )
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "speed_ticks": len(probe.ticks),
        "samples": {
            "setup_s": len(setups),
            "wall_s": len(walls),
            **{name: len(values) for name, values in pooled.items()},
        },
        "raw": {"setup_s": setups, "wall_s": walls, **pooled},
        "phases": [[(name, end - start, factor)
                    for name, start, end, factor in it.phases]
                   for it in iterations],
    }
    if args.trace:
        layers, self_time = layer_metrics(recorder, traced.windows)
        found.update(layers)
        found["trace.overhead_frac"] = traced.wall_s / found["wall_s"] - 1.0
        found.update(getattr(workload, "layer_extras", dict)())
        trace_dir = root / ".perfbench" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_path = trace_dir / f"{args.workload}-seed{args.seed}.json"
        write_chrome_trace(str(trace_path), recorder.spans, self_time)
        record["trace_file"] = str(trace_path.relative_to(root))
    found["cache.json_bytes"] = workload.disk.get("json", 0)
    found["store.segment_bytes"] = workload.disk.get("segments", 0)
    found["store.manifest_bytes"] = workload.disk.get("manifests", 0)
    tally = workload.tally
    found["error_rate"] = tally.failed / max(tally.attempted, 1)
    record.update(attempted=tally.attempted, failed=tally.failed,
                  failures=tally.notes[:20], found=found)
    return record


def select(found: Dict[str, float], spec: Dict, trace: int):
    """The metrics this mode prints, with the units BENCHMARK.json gives."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if not METRIC_NAME.match(name):
            raise ValueError(f"bad metric name {name!r}")
        value = found.get(name)
        if value is None:
            optional = trace and (
                name in OPTIONAL_LAYER_METRICS
                or name.startswith(("serve.", "sim."))
            )
            if not optional:
                raise KeyError(f"metric {name!r} was not measured")
            value = 0.0
        metrics[name] = {"value": value, "unit": metric["unit"]}
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    missing = [path for path in REQUIRED if not (root / path).is_file()]
    if missing:
        print(f"perfbench: run from a repository checkout; missing "
              f"{', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    spec = json.loads((root / "BENCHMARK.json").read_text())
    workdir = root / ".perfbench" / f"work-{os.getpid()}"
    try:
        record = measure(args, root, workdir)
    finally:
        release_space(workdir)
    metrics = select(record["found"], spec, args.trace)
    correct = record["failed"] == 0
    record_dir = root / ".perfbench" / "records"
    record_dir.mkdir(parents=True, exist_ok=True)
    (record_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
     ".json").write_text(json.dumps(record, indent=2, sort_keys=True))
    for note in record["failures"]:
        print(f"perfbench: check failed: {note}", file=sys.stderr)
    print(f"perfbench {args.workload} seed={args.seed} "
          f"iterations={record['found']['iterations']} "
          f"machine={json.dumps(record['machine'], sort_keys=True)}")
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
