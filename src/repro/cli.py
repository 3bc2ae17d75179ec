"""Command-line interface: ``python -m repro <command>``.

Exposes the main Melody workflows without writing any Python:

* ``characterize`` -- device-level measurement battery (MLC + MIO + CPMU)
* ``campaign``     -- run a slowdown campaign and export the dataset
* ``coordinate``   -- serve a campaign to remote lease-based workers
* ``worker``       -- execute leased cells for a coordinator
* ``query``        -- scan the columnar result store across campaigns
* ``spa``          -- Spa breakdown of one workload on one target
* ``figures``      -- regenerate paper tables/figures by id
* ``serve``        -- characterization-as-a-service HTTP server
* ``validate``     -- run the repro.diag invariant suite over the models
* ``stats``        -- render a ``--metrics`` export file
* ``tail``         -- follow/validate a serve ndjson wide-event log
* ``slo``          -- render a server's rolling-window SLO snapshot
* ``workloads``    -- list the 265-workload population

``campaign``, ``spa``, and ``figures`` accept ``--strict``, which promotes
any invariant violation in the produced results to an error (exit 2).

Observability (``characterize``, ``campaign``, ``figures``): ``--metrics
PATH`` writes a metrics snapshot on completion (Prometheus text when PATH
ends in ``.prom``, JSON otherwise -- the JSON is what ``repro stats``
reads); ``--trace PATH`` writes a Chrome ``trace_event`` JSON viewable in
Perfetto, sampling every ``--trace-sample`` N-th simulated request.
Instrumentation never changes results: figures are byte-identical with the
flags on or off.

Resilience (``campaign``): ``--cell-retries N`` alone retries failing
cells in-process and quarantines the ones that exhaust N attempts instead
of aborting (warning + exit 0; exit 3 under ``--strict-cells``).
``--cell-timeout S`` runs the campaign on a local coordinator fleet (see
below; needs ``--cache-dir``) with S-second leases, so a cell that crashes
or hangs its worker costs one attempt and a replacement worker carries
on.  Under ``--cache-dir`` every cell persists the moment it finishes,
so an interrupted campaign reruns only what was in flight; ``--resume``
also restores the quarantine ledger from the campaign's checkpoint.
``--fault-plan PATH`` injects a deterministic CXL RAS fault schedule
(see :mod:`repro.faults`) into every simulated cell.

Scale (``campaign``): ``--coordinator [HOST:]PORT`` runs the campaign
through the fault-tolerant lease-based coordinator with a supervised
fleet (:mod:`repro.dist.fleet`) of ``--dist-workers`` worker processes
sharing ``--cache-dir``, then assembles the final dataset
byte-identically to a single-process run, surviving worker death, hangs
and network chaos.  ``--shards N`` is
shorthand for a loopback coordinator with N workers, and so is
``--cell-timeout`` (with ``--dist-workers`` workers).  ``repro
coordinate`` and ``repro worker`` are the standalone halves for real
multi-host fleets.
With ``--cache-dir``, every finished analytic cell is appended to the
columnar store under ``<cache-dir>/store/`` as it finishes, under the
campaign's fingerprint; ``repro query`` scans it across campaigns.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ConfigurationError, MelodyError


def _configure_runtime(args):
    """Apply --cache-dir (and any resilience flags) to the engine."""
    from repro.runtime import configure_runtime

    return configure_runtime(
        cache_dir=args.cache_dir, policy=_retry_policy(args)
    )


def _retry_policy(args):
    """Build the engine's RetryPolicy from --cell-retries, if given.

    Without it the engine stays fail-fast (first cell error aborts),
    which is the right default for interactive use.
    """
    from repro.runtime import RetryPolicy

    retries = getattr(args, "cell_retries", None)
    if retries is None:
        return None
    return RetryPolicy(max_attempts=retries)


def _install_fault_plan(args):
    """Install --fault-plan process-wide; returns a restore callable."""
    from repro.faults import clear_fault_plan, install_fault_plan, load_plan

    path = getattr(args, "fault_plan", None)
    if not path:
        return lambda: None
    plan = install_fault_plan(load_plan(path))
    label = "enabled" if plan.enabled else "empty (disabled)"
    print(f"fault plan {plan.name!r} [{plan.key()[:12]}]: "
          f"{len(plan.episodes)} episode(s), {label}")
    return clear_fault_plan


def _configure_obs(args):
    """Enable metrics/tracing per the CLI flags; returns a ``finish()``.

    The returned callable writes the collected artifacts (and restores the
    zero-overhead defaults) once the command's real work is done, so the
    export reflects the whole command.
    """
    from repro import obs

    metrics_path = getattr(args, "metrics", None)
    trace_path = getattr(args, "trace", None)
    if metrics_path:
        obs.enable_metrics()
    buffer = None
    if trace_path:
        sample = getattr(args, "trace_sample", None) or 1
        buffer = obs.enable_tracing(sample_every=sample)

    def finish() -> None:
        """Write metrics/trace files and disable collection."""
        if metrics_path:
            registry = obs.metrics()
            if metrics_path.endswith(".prom"):
                text = registry.to_prometheus()
            else:
                text = registry.to_json() + "\n"
            with open(metrics_path, "w") as handle:
                handle.write(text)
            obs.disable_metrics()
            print(f"wrote metrics ({len(registry)} instruments) "
                  f"to {metrics_path}")
        if trace_path:
            buffer.write(trace_path)
            obs.disable_tracing()
            print(f"wrote {len(buffer)} trace spans to {trace_path}")

    return finish


def _target_by_name(name: str, platform):
    from repro.dist.spec import resolve_target

    return resolve_target(name, platform)


def cmd_characterize(args) -> int:
    """Run the device measurement battery."""
    from repro.hw.cxl import device_by_name
    from repro.hw.cxl.cpmu import Cpmu
    from repro.tools.mio import MioBenchmark
    from repro.tools.mlc import MemoryLatencyChecker

    finish = _configure_obs(args)
    device = device_by_name(args.device.upper())
    mlc = MemoryLatencyChecker()
    print(f"== {device.name} ({device.profile.spec}, "
          f"{'FPGA' if device.is_fpga else 'ASIC'}) ==")
    print(f"idle latency  : {device.idle_latency_ns():.0f} ns")
    print(f"read bandwidth: {mlc.peak_bandwidth(device):.1f} GB/s")
    ratios = mlc.peak_bandwidth_by_ratio(device)
    best = max(ratios, key=lambda k: ratios[k])
    print(f"peak bandwidth: {ratios[best]:.1f} GB/s at {best}")
    mio = MioBenchmark(device, samples=args.samples)
    result = mio.measure()
    print(f"p50/p99/p99.9 : {result.percentile(50):.0f} / "
          f"{result.percentile(99):.0f} / {result.percentile(99.9):.0f} ns")
    print(f"tail gap      : {result.tail_gap_ns():.0f} ns (p99.9 - p50)")
    print()
    print(Cpmu(device).latency_report(load_gbps=args.load))
    if args.trace or args.metrics or args.fault_plan:
        # Request-level spans and sim.* counters come from the event-driven
        # simulator; run one battery at the CPMU operating load so the
        # export has per-request pipeline data.  A --fault-plan applies to
        # this battery (RAS counters land in the metrics export).
        from repro.hw.cxl.eventdevice import EventDrivenDevice

        restore_plan = _install_fault_plan(args)
        try:
            sim = EventDrivenDevice(device).simulate(
                args.samples, args.load, read_fraction=0.75,
                engine=args.engine,
            )
        finally:
            restore_plan()
        if sim.fault_plan is not None:
            print(f"faults injected: {sim.injected_retries} retries, "
                  f"{sim.poisoned_reads} poisoned reads, "
                  f"{sim.ecc_corrected} ECC-corrected, "
                  f"{sim.throttled_requests} throttled "
                  f"(p99.9 {sim.percentile(99.9):.0f} ns)")
    finish()
    return 0


def cmd_campaign(args) -> int:
    """Run a slowdown campaign and optionally export it.

    Exit codes: 0 on success -- including when some cells were quarantined
    by the retry policy (they are reported as a warning summary and
    recorded in the checkpoint); 3 when cells were quarantined *and*
    ``--strict-cells`` was given; 2 on configuration/runtime errors.
    """
    from repro.core.dataset import export_csv, export_json
    from repro.core.melody import Campaign
    from repro.experiments.common import campaign_melody, set_strict
    from repro.hw.platform import platform_by_name
    from repro.workloads import all_workloads, workloads_by_suite

    if args.resume and not args.cache_dir:
        raise MelodyError(
            "--resume requires --cache-dir (checkpoints live in the "
            "cache directory)"
        )
    if args.shards is not None and args.shards < 1:
        raise MelodyError(f"--shards must be >= 1, got {args.shards}")
    if args.coordinator and args.shards:
        raise MelodyError(
            "--coordinator is mutually exclusive with --shards"
        )
    # --shards N (N > 1) and --cell-timeout are thin aliases for a
    # loopback coordinator with local workers.
    if args.shards and args.shards > 1:
        fleet_flag = "--shards"
    elif args.cell_timeout is not None and not args.coordinator:
        fleet_flag = "--cell-timeout"
    else:
        fleet_flag = "--coordinator" if args.coordinator else None
    if fleet_flag:
        if not args.cache_dir:
            raise MelodyError(
                f"{fleet_flag} requires --cache-dir (workers' results "
                "commit into the shared run cache)"
            )
        args.coordinator = args.coordinator or "127.0.0.1:0"
        if args.shards:
            args.dist_workers = args.shards
        if args.dist_workers < 1:
            raise MelodyError(
                f"--dist-workers must be >= 1, got {args.dist_workers}"
            )
    engine = _configure_runtime(args)
    finish = _configure_obs(args)
    restore_plan = _install_fault_plan(args)
    set_strict(args.strict)
    try:
        platform = platform_by_name(args.platform)
        workloads = (
            workloads_by_suite(args.suite) if args.suite else all_workloads()
        )
        if args.sample > 1:
            workloads = workloads[:: args.sample]
        targets = tuple(_target_by_name(t, platform) for t in args.targets)
        campaign = Campaign(
            name="cli", platform=platform, targets=targets,
            workloads=tuple(workloads),
        )
        if args.coordinator:
            # The lease-based coordinator commits every worker result
            # (and the final checkpoint) into --cache-dir; the warm
            # pass below then assembles records and exports
            # byte-identically to a single-process run -- that
            # equivalence is the contract.
            code = _run_dist_fleet(args, campaign)
            if code != 0:
                return code
            args.resume = True  # adopt the fleet's progress + quarantine
        checkpointer = _attach_checkpointer(args, engine, campaign)
        result = campaign_melody().run(campaign)
        if checkpointer is not None:
            checkpointer.finalize(engine.failed)
        from repro.analysis.report import format_cdf_row

        print(f"{len(result.records)} records "
              f"({len(result.skipped)} skipped for capacity)")
        print(engine.stats.summary())
        for target in result.target_names():
            print("  " + format_cdf_row(target, result.slowdowns(target)))
        if args.csv:
            rows = export_csv(result, args.csv)
            print(f"wrote {rows} rows to {args.csv}")
        if args.json:
            rows = export_json(result, args.json)
            print(f"wrote {rows} records to {args.json}")
        finish()
    finally:
        try:
            engine.cache.close()
        finally:
            restore_plan()
    return _report_failed_cells(result.failed, args.strict_cells)


def _attach_checkpointer(args, engine, campaign):
    """Create/resume the campaign's quarantine checkpoint (``--cache-dir``).

    Finished cells need no checkpoint: the run cache already holds each
    one, as a store row named (like the checkpoint) by the campaign
    fingerprint and ``--job-id``.  ``--resume`` restores the quarantine
    ledger, and ``--job-id`` scopes the checkpoint document to one job,
    so concurrent runs of the same campaign do not clobber each other.
    """
    if not args.cache_dir:
        return None
    from repro.runtime import (
        Checkpointer,
        campaign_fingerprint,
        load_checkpoint,
    )

    fingerprint = campaign_fingerprint(campaign)
    job_id = getattr(args, "job_id", None) or ""
    engine.cache.name_rows(fingerprint, job_id)
    if args.resume:
        state = load_checkpoint(args.cache_dir, fingerprint, job_id)
        if state is None:
            print(f"no checkpoint for campaign {fingerprint[:12]}; "
                  "finished cells still come from the cache")
        else:
            engine.restore_quarantine(state.failed)
            print(f"resuming campaign {fingerprint[:12]}: "
                  f"{len(state.failed)} quarantined")
    checkpointer = Checkpointer(
        cache_dir=args.cache_dir,
        fingerprint=fingerprint,
        name=campaign.name,
        job_id=job_id,
    )
    engine.checkpointer = checkpointer
    return checkpointer


def _parse_endpoint(text: str, default_host: str = "127.0.0.1"):
    """Parse ``[HOST:]PORT`` into (host, port)."""
    host, _, port_text = text.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        raise MelodyError(
            f"endpoint must be [HOST:]PORT, got {text!r}"
        )
    if not 0 <= port < 65536:
        raise MelodyError(f"port must be in 0..65535, got {port}")
    return host or default_host, port


def _run_dist_fleet(args, campaign) -> int:
    """Drive ``--coordinator``: in-process coordinator + worker children.

    ``--dist-workers`` ``repro worker`` subprocesses (a supervised
    :class:`~repro.dist.fleet.Fleet`) dial the coordinator, optionally
    through the seeded ``--dist-net-chaos`` transport.
    ``--cell-timeout`` is the lease length, granted one unit at a time
    so it bounds every cell, and ``--cell-retries`` the attempt budget
    per unit.  Success leaves every cell warm in ``--cache-dir``, so the
    caller's resume pass exports byte-identically to a solo run.  Exit
    code 2 on commit conflicts, or when the deadline elapses or every
    child exits before every unit settled.
    """
    from repro.dist import Coordinator
    from repro.dist.coordinator import DEFAULT_LEASE_S, MAX_GRANT
    from repro.dist.fleet import Fleet, subprocess_spawner
    from repro.dist.spec import CampaignSpec

    host, port = _parse_endpoint(args.coordinator)
    spec = CampaignSpec.from_args(args)
    per_cell = args.cell_timeout is not None
    coordinator = Coordinator(
        spec,
        cache_dir=args.cache_dir,
        host=host,
        port=port,
        lease_s=args.cell_timeout if per_cell else DEFAULT_LEASE_S,
        # Unset: the lease table's default budget (5 attempts).
        policy=_retry_policy(args),
        max_grant=1 if per_cell else MAX_GRANT,
    )
    bound = coordinator.start()
    # A campaign the cache already holds is settled: start no worker.
    workers = 0 if coordinator.table.done else args.dist_workers
    print(f"dist campaign {coordinator.fingerprint[:12]}: "
          f"{len(coordinator.table)} units on {host}:{bound}, "
          f"{workers} worker(s)")
    endpoint = f"{host}:{bound}"
    try:
        with Fleet(coordinator, subprocess_spawner(
            lambda index: _fleet_worker_argv(args, endpoint, index)
        )) as fleet:
            for _ in range(workers):
                fleet.launch()
            summary = fleet.run(timeout=args.dist_deadline)
            exit_codes = [handle.poll() for handle in fleet.handles]
    finally:
        coordinator.stop()
    print(summary.render())
    if summary.conflicts:
        print(f"error: {len(summary.conflicts)} commit conflict(s); "
              "a worker delivered divergent results", file=sys.stderr)
        return 2
    if not summary.complete:
        if exit_codes and None not in exit_codes:
            codes = ", ".join(f"dw{i}={c}" for i, c in enumerate(exit_codes))
            print(f"error: every dist worker exited before every unit "
                  f"settled (exit codes: {codes})", file=sys.stderr)
        else:
            print("error: dist campaign deadline elapsed before every "
                  "unit settled", file=sys.stderr)
        return 2
    return 0


def _fleet_worker_argv(args, endpoint: str, index: int) -> list:
    """The command line of local fleet worker ``dw<index>``."""
    argv = [
        sys.executable, "-m", "repro", "worker",
        "--connect", endpoint,
        "--name", f"dw{index}",
    ]
    if args.dist_net_chaos is not None:
        argv += ["--net-chaos", str(args.dist_net_chaos + index)]
    return argv


def cmd_coordinate(args) -> int:
    """Serve one campaign to remote ``repro worker`` processes.

    Exit codes mirror ``campaign``: 0 on success (quarantined cells are
    a warning; 3 under ``--strict-cells``), 2 on commit conflicts, on a
    deadline expiring with unsettled units, or on configuration errors.
    """
    from repro.dist import Coordinator
    from repro.dist.spec import CampaignSpec
    from repro.runtime import RetryPolicy

    restore_events = lambda: None  # noqa: E731 - conditional below
    if args.event_log:
        from repro.obs.events import EventLogger, disable_events, \
            enable_events

        sink = open(args.event_log, "w", encoding="utf-8")
        enable_events(EventLogger(sink=sink, level="info"))

        def restore_events() -> None:
            disable_events()
            sink.close()

    spec = CampaignSpec.from_args(args)
    coordinator = Coordinator(
        spec,
        cache_dir=args.cache_dir,
        host=args.host,
        port=args.port,
        lease_s=args.lease,
        policy=RetryPolicy(max_attempts=args.unit_retries),
    )
    try:
        port = coordinator.start()
        print(f"coordinating campaign {coordinator.fingerprint[:12]}: "
              f"{len(coordinator.table)} units on {args.host}:{port} "
              f"(lease {args.lease:.0f}s)")
        summary = coordinator.run(timeout=args.deadline)
    finally:
        coordinator.stop()
        restore_events()
    print(summary.render())
    if summary.conflicts or not summary.complete:
        return 2
    return _report_failed_cells(summary.quarantined, args.strict_cells)


def cmd_worker(args) -> int:
    """Execute leased campaign cells for a ``repro coordinate`` process."""
    from repro.dist import Worker

    host, port = _parse_endpoint(args.connect)
    net_chaos = None
    if args.net_chaos is not None:
        from repro.faults import NetChaosPolicy

        net_chaos = NetChaosPolicy.from_seed(args.net_chaos)
    cell_chaos = None
    if args.chaos_error or args.chaos_kill:
        from repro.faults import ChaosPolicy

        cell_chaos = ChaosPolicy(
            kill_prob=args.chaos_kill,
            error_prob=args.chaos_error,
            seed=args.chaos_seed,
        )
    worker = Worker(
        host=host,
        port=port,
        name=args.name,
        net_chaos=net_chaos,
        cell_chaos=cell_chaos,
        die_after=args.die_after,
        hard_exit=True,
        reconnect_attempts=args.reconnect,
    )
    code = worker.run()
    print(f"worker {worker.name}: {worker.units_executed} cell(s) "
          f"executed, {worker.units_delivered} delivered (exit {code})")
    return code


def _report_failed_cells(failed, strict_cells: bool) -> int:
    """Print the quarantine warning summary; pick the exit code."""
    if not failed:
        return 0
    print(f"warning: {len(failed)} cell(s) quarantined after retries:",
          file=sys.stderr)
    for record in failed[:10]:
        detail = f" -- {record.message}" if record.message else ""
        print(f"  {record.workload} on {record.target}: {record.reason} "
              f"after {record.attempts} attempt(s){detail}", file=sys.stderr)
    if len(failed) > 10:
        print(f"  ... and {len(failed) - 10} more", file=sys.stderr)
    return 3 if strict_cells else 0


def cmd_query(args) -> int:
    """Scan the columnar result store across campaigns.

    Filters run as vectorized predicate scans over the store's mmap'd
    manifests -- no run documents are parsed unless a row's latency
    percentiles are actually requested.  Exit 1 when nothing matched,
    2 on bad arguments.
    """
    import json
    import math
    from pathlib import Path

    from repro.store import ResultStore

    store = ResultStore(Path(args.cache_dir) / "store")
    fault_plan = args.fault_plan
    if fault_plan == "none":
        fault_plan = ""  # explicit fault-free rows only
    try:
        percentiles = [
            float(p) for p in args.percentiles.split(",") if p.strip()
        ]
    except ValueError:
        raise MelodyError(
            f"--percentiles must be a comma list of numbers, "
            f"got {args.percentiles!r}"
        )
    rows = store.query_rows(
        kind=args.kind,
        device=args.device,
        workload=args.workload,
        target=args.target,
        fault_plan=fault_plan,
        min_gbps=args.min_gbps,
        max_gbps=args.max_gbps,
        fingerprint=args.fingerprint,
        percentiles=tuple(percentiles),
        limit=args.limit,
    )

    def jsonable(row: dict) -> dict:
        return {
            k: (None if isinstance(v, float) and math.isnan(v) else v)
            for k, v in row.items()
        }

    if args.format == "json":
        print(json.dumps([jsonable(r) for r in rows], indent=2))
    elif args.format == "ndjson":
        for row in rows:
            print(json.dumps(jsonable(row), sort_keys=True,
                             separators=(",", ":")))
    else:
        columns = ["kind", "device", "workload", "target", "fault_plan",
                   "offered_gbps", "n", "mean_ns"]
        columns += [f"p{p:g}_ns" for p in percentiles]

        def fmt(row: dict, column: str) -> str:
            value = row.get(column)
            if value is None or value == "":
                return "-"
            if isinstance(value, float):
                return "-" if math.isnan(value) else f"{value:.1f}"
            return str(value)

        table = [[fmt(r, c) for c in columns] for r in rows]
        widths = [
            max(len(c), *(len(t[i]) for t in table)) if table else len(c)
            for i, c in enumerate(columns)
        ]
        print("  ".join(c.ljust(w) for c, w in zip(columns, widths)))
        for cells in table:
            print("  ".join(v.ljust(w) for v, w in zip(cells, widths)))
        print(f"{len(rows)} row(s) of {len(store)} stored results")
    return 0 if rows else 1


def cmd_spa(args) -> int:
    """Spa breakdown of one workload on one target."""
    from repro.core.spa import spa_analyze
    from repro.cpu.pipeline import run_workload
    from repro.hw.platform import platform_by_name
    from repro.workloads import workload_by_name

    platform = platform_by_name(args.platform)
    workload = workload_by_name(args.workload)
    target = _target_by_name(args.target, platform)
    base = run_workload(workload, platform, platform.local_target())
    run = run_workload(workload, platform, target)
    if args.strict:
        from repro.diag import validate_run_results
        from repro.errors import DiagnosticError

        report = validate_run_results((base, run), label="spa runs")
        if not report.ok:
            raise DiagnosticError(report, context=f"spa {workload.name}")
    breakdown = spa_analyze(base, run)
    print(f"{workload.name} on {target.name} (vs {platform.name} local):")
    print(f"  actual slowdown   : {breakdown.estimates.actual:6.1f}%")
    print(f"  Spa (Δs_Memory)   : {breakdown.estimates.from_memory:6.1f}%")
    for source, value in sorted(
        breakdown.components.items(), key=lambda kv: -kv[1]
    ):
        print(f"    {source:6s} {value:6.1f}%")
    print(f"    core   {breakdown.core:6.1f}%")
    print(f"    other  {breakdown.other:6.1f}%")
    print(f"  dominant source   : {breakdown.dominant()}")
    return 0


def cmd_figures(args) -> int:
    """Regenerate paper tables/figures."""
    from pathlib import Path

    from repro.experiments import ALL_EXPERIMENTS
    from repro.experiments.common import experiment_timer, set_strict

    engine = _configure_runtime(args)
    finish = _configure_obs(args)
    set_strict(args.strict)
    out_dir = Path(args.output) if args.output else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    wanted = set(args.ids)
    ran = 0
    try:
        for module in ALL_EXPERIMENTS:
            name = module.__name__.split(".")[-1]
            if wanted and not any(w in name for w in wanted):
                continue
            with experiment_timer(name, "run"):
                result = module.run(fast=not args.full)
            with experiment_timer(name, "render"):
                text = module.render(result)
            print(text)
            print()
            if out_dir:
                (out_dir / f"{name}.txt").write_text(text + "\n")
            ran += 1
    finally:
        engine.cache.close()
    if ran == 0:
        names = [m.__name__.split(".")[-1] for m in ALL_EXPERIMENTS]
        print(f"no experiment matches {sorted(wanted)}; "
              f"available: {', '.join(names)}")
        return 1
    if out_dir:
        print(f"wrote {ran} figure files to {out_dir}")
    print(engine.stats.summary())
    finish()
    return 0


def cmd_fit(args) -> int:
    """Fit device models from measurement CSVs."""
    import csv
    from pathlib import Path

    import numpy as np

    from repro.hw.fitting import fit_device, fit_queue_model, fit_tail_model

    samples = np.loadtxt(args.latency_samples, ndmin=1)
    curve = []
    with Path(args.loaded_curve).open() as handle:
        for row in csv.reader(handle):
            if not row or row[0].startswith("#"):
                continue
            curve.append((float(row[0]), float(row[1])))

    tail_fit = fit_tail_model(samples)
    queue, peak = fit_queue_model(curve)
    print(f"fitted device from {len(samples)} latency samples and "
          f"{len(curve)} curve points:")
    print(f"  base latency : {tail_fit.base_ns:.1f} ns")
    print(f"  jitter       : {tail_fit.tail.jitter_ns:.1f} ns "
          f"(shape {tail_fit.tail.jitter_shape:.1f})")
    print(f"  excursions   : p={tail_fit.tail.tail_prob_idle:.4f}, "
          f"scale={tail_fit.tail.tail_scale_idle_ns:.0f} ns")
    print(f"  queue onset  : {queue.onset_util * 100:.0f}% utilization")
    print(f"  peak BW      : {peak:.1f} GB/s")

    if args.workload:
        from repro.cpu.pipeline import run_workload
        from repro.hw.platform import platform_by_name
        from repro.workloads import workload_by_name

        platform = platform_by_name(args.platform)
        target = fit_device("fitted-device", samples, curve)
        workload = workload_by_name(args.workload)
        base = run_workload(workload, platform, platform.local_target())
        run = run_workload(workload, platform, target)
        print(f"  {workload.name} slowdown on the fitted device: "
              f"{run.slowdown_vs(base):.1f}%")
    return 0


def cmd_validate(args) -> int:
    """Run the repro.diag invariant suite across all registered models."""
    from repro.diag import run_checks

    report = run_checks(layers=args.layer or None)
    if args.json:
        print(report.to_json())
    else:
        print(report.render())
    return 0 if report.ok else 1


def cmd_stats(args) -> int:
    """Render a ``--metrics`` JSON export as a summary (or raw JSON)."""
    import json
    from pathlib import Path

    path = Path(args.metrics_file)
    if not path.exists():
        print(f"error: metrics file {path} does not exist", file=sys.stderr)
        return 1
    try:
        snapshot = json.loads(path.read_text())
    except ValueError as exc:
        print(f"error: {path} is not valid JSON: {exc}", file=sys.stderr)
        return 1
    sections = ("counters", "gauges", "histograms")
    if not isinstance(snapshot, dict) or any(
        s not in snapshot for s in sections
    ):
        print(f"error: {path} is not a repro metrics export "
              f"(expected sections {', '.join(sections)})", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
        return 0
    total = sum(len(snapshot[s]) for s in sections)
    print(f"{path}: {total} instruments "
          f"({len(snapshot['counters'])} counters, "
          f"{len(snapshot['gauges'])} gauges, "
          f"{len(snapshot['histograms'])} histograms)")
    for name, value in sorted(snapshot["counters"].items()):
        print(f"  counter   {name:48s} {value:g}")
    for name, value in sorted(snapshot["gauges"].items()):
        print(f"  gauge     {name:48s} {value:g}")
    for name, data in sorted(snapshot["histograms"].items()):
        count = data.get("count", 0)
        mean = data["sum"] / count if count else 0.0
        print(f"  histogram {name:48s} count={count:g} mean={mean:g}")
    return 0


def cmd_serve(args) -> int:
    """Run the characterization service (or one query with --oneshot).

    ``--oneshot PATH`` bypasses the network entirely: it parses,
    executes and renders the query file through exactly the code path a
    server job uses, and prints the resulting bytes to stdout.  The
    serve tests and the CI smoke use it as the byte-identity comparator
    for coalesced responses.
    """
    from repro.serve import ServeApp, ServeConfig, run_oneshot

    if args.oneshot:
        try:
            with open(args.oneshot, "rb") as handle:
                data = handle.read()
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read query file {args.oneshot!r}: {exc}"
            )
        body = run_oneshot(
            data,
            cache_dir=args.cache_dir,
            allow_chaos=args.allow_chaos,
            retries=args.cell_retries,
        )
        sys.stdout.buffer.write(body)
        sys.stdout.buffer.flush()
        return 0
    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        per_tenant=args.per_tenant,
        cell_retries=args.cell_retries,
        cache_dir=args.cache_dir,
        allow_chaos=args.allow_chaos,
        drain_s=args.drain,
        log_level=args.log_level,
        event_log=args.event_log,
        event_sample=args.event_sample,
        trace_path=args.trace,
        trace_sample=args.trace_sample,
        flight_capacity=args.flight,
        slo_window_s=args.slo_window,
    )
    return ServeApp(config).run()


def _render_event_line(record: dict) -> str:
    """One human-readable line for a wide event (``repro tail``)."""
    import datetime

    ts = record.get("ts")
    if isinstance(ts, (int, float)):
        stamp = datetime.datetime.fromtimestamp(ts).strftime(
            "%H:%M:%S.%f"
        )[:-3]
    else:
        stamp = "--:--:--.---"
    level = str(record.get("level", "?")).upper()
    event = str(record.get("event", "?"))
    shown = {"schema", "ts", "level", "event"}
    lead = ""
    if event == "request":
        lead = (
            f"{record.get('method', '?')} {record.get('path', '?')} "
            f"{record.get('status', '?')} {record.get('role', '-')} "
            f"{record.get('total_s', '?')}s"
        )
        shown |= {"method", "path", "status", "role", "total_s"}
    rest = " ".join(
        f"{key}={record[key]}"
        for key in sorted(record)
        if key not in shown and record[key] not in (None, "", {})
    )
    return f"{stamp} {level:5s} {event:14s} {lead} {rest}".rstrip()


def cmd_tail(args) -> int:
    """Follow (or validate) a serve ndjson wide-event log.

    Exit code 1 when any line failed to parse or violated the event
    schema -- which makes ``repro tail LOG --json`` double as the CI's
    event-log validator.
    """
    import json
    import time

    from repro.obs.events import LEVELS, validate_event

    try:
        handle = open(args.event_log, encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read {args.event_log!r}: {exc}",
              file=sys.stderr)
        return 1
    threshold = LEVELS[args.level]
    invalid = 0
    try:
        with handle:
            while True:
                line = handle.readline()
                if not line:
                    if not args.follow:
                        break
                    time.sleep(0.2)
                    continue
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    invalid += 1
                    print(f"invalid json: {line[:120]}", file=sys.stderr)
                    continue
                problems = validate_event(record)
                if problems:
                    invalid += 1
                    print(f"invalid event ({'; '.join(problems)}): "
                          f"{line[:120]}", file=sys.stderr)
                    continue
                if LEVELS.get(str(record.get("level")), 20) < threshold:
                    continue
                if args.json:
                    print(json.dumps(
                        record, sort_keys=True, separators=(",", ":")
                    ))
                else:
                    print(_render_event_line(record))
    except KeyboardInterrupt:
        pass
    if invalid:
        print(f"{invalid} invalid line(s)", file=sys.stderr)
        return 1
    return 0


def cmd_slo(args) -> int:
    """Render a server's rolling-window SLO snapshot.

    ``source`` is either a server base URL (``http://host:port`` -- the
    command fetches ``/stats``) or a path to a saved ``/stats`` JSON
    document.  Exit 1 when the document has no SLO data.
    """
    import asyncio
    import json
    from urllib.parse import urlsplit

    source = args.source
    if source.startswith(("http://", "https://")):
        from repro.serve import fetch

        split = urlsplit(source)
        host = split.hostname or "127.0.0.1"
        port = split.port or 80
        response = asyncio.run(fetch(host, port, "GET", "/stats"))
        if response.status != 200:
            print(f"error: {source}/stats answered {response.status}",
                  file=sys.stderr)
            return 1
        document = response.json()
    else:
        try:
            with open(source, encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read stats from {source!r}: {exc}",
                  file=sys.stderr)
            return 1
    slo = document.get("slo") if isinstance(document, dict) else None
    if not isinstance(slo, dict) or not slo:
        print("no SLO data (is the server serving requests?)",
              file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(slo, indent=2, sort_keys=True))
        return 0
    window = next(iter(slo.values())).get("window_s", 0)
    print(f"rolling window: {window:g}s")
    header = (f"{'key':36s} {'requests':>8s} {'errors':>6s} "
              f"{'budget':>8s} {'p50':>9s} {'p95':>9s} {'p99':>9s}")
    print(header)
    for key in sorted(slo):
        entry = slo[key]
        latency = entry.get("latency", {})
        print(f"{key:36s} {entry.get('requests', 0):>8d} "
              f"{entry.get('errors', 0):>6d} "
              f"{entry.get('error_budget_remaining', 0.0):>+8.2f} "
              f"{latency.get('p50', 0.0):>8.3f}s "
              f"{latency.get('p95', 0.0):>8.3f}s "
              f"{latency.get('p99', 0.0):>8.3f}s")
    return 0


def cmd_workloads(args) -> int:
    """List the workload population."""
    from collections import Counter

    from repro.workloads import all_workloads

    population = all_workloads()
    if args.suite:
        population = [w for w in population if w.suite == args.suite]
    if args.verbose:
        for w in population:
            print(f"{w.name:40s} {w.suite:14s} {w.latency_class:10s} "
                  f"l3={w.l3_mpki:5.1f}mpki ws={w.working_set_gb:5.1f}GB")
    else:
        counts = Counter(w.suite for w in population)
        for suite, count in sorted(counts.items()):
            print(f"{suite:16s} {count}")
        print(f"{'total':16s} {len(population)}")
    return 0


def _add_obs_flags(p: argparse.ArgumentParser) -> None:
    """Attach the shared --metrics/--trace/--trace-sample flags."""
    p.add_argument("--metrics", default=None, metavar="PATH",
                   help="write a metrics snapshot on completion "
                        "(.prom = Prometheus text, otherwise JSON)")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="write a Chrome trace_event JSON (open in Perfetto)")
    p.add_argument("--trace-sample", type=int, default=1, metavar="N",
                   help="trace every Nth simulated request (default: 1)")


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Melody: CXL characterization and Spa analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("characterize", help="device measurement battery")
    p.add_argument("device", help="CXL-A..CXL-D (case-insensitive)")
    p.add_argument("--samples", type=int, default=50_000)
    p.add_argument("--load", type=float, default=5.0,
                   help="CPMU operating load in GB/s")
    p.add_argument("--engine", default="auto",
                   choices=["auto", "scalar", "vector"],
                   help="event-simulation engine for the sim battery "
                   "(auto = vector unless tracing)")
    p.add_argument("--fault-plan", default=None, metavar="PATH",
                   help="JSON FaultPlan to inject into the sim battery")
    _add_obs_flags(p)
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("campaign", help="run a slowdown campaign")
    p.add_argument("--platform", default="EMR2S")
    p.add_argument("--targets", nargs="+", default=["numa", "cxl-a"],
                   help="local|numa|cxl-a..d|cxl-X+numa")
    p.add_argument("--suite", default=None, help="restrict to one suite")
    p.add_argument("--sample", type=int, default=1,
                   help="run every Nth workload")
    p.add_argument("--csv", default=None, help="export dataset CSV")
    p.add_argument("--json", default=None, help="export dataset JSON")
    p.add_argument("--cache-dir", default=None,
                   help="on-disk run cache shared across invocations")
    p.add_argument("--strict", action="store_true",
                   help="promote invariant violations in results to errors")
    p.add_argument("--fault-plan", default=None, metavar="PATH",
                   help="JSON FaultPlan injected into every simulated cell "
                        "(results land under a fault-keyed cache entry)")
    p.add_argument("--cell-timeout", "--dist-lease", type=float,
                   default=None, metavar="S",
                   help="lease length per cell attempt: runs the campaign "
                        "on a local coordinator fleet (--dist-workers "
                        "workers; needs --cache-dir), where a worker that "
                        "crashes or overruns its lease is replaced "
                        "(default on a fleet: 30)")
    p.add_argument("--cell-retries", "--dist-unit-retries", type=int,
                   default=None, metavar="N",
                   help="attempts per cell before quarantine: retried "
                        "in-process without a fleet, the lease budget "
                        "on one (default: fail fast; 5 on a fleet)")
    p.add_argument("--resume", action="store_true",
                   help="restore an interrupted campaign's quarantine "
                        "ledger from its checkpoint in --cache-dir "
                        "(finished cells always come from the cache)")
    p.add_argument("--strict-cells", action="store_true",
                   help="exit 3 when any cell was quarantined "
                        "(default: warn and exit 0)")
    p.add_argument("--job-id", default=None, metavar="ID",
                   help="scope the checkpoint file to this job so "
                        "concurrent runs of the same campaign do not "
                        "clobber each other ([A-Za-z0-9._-], <= 64 chars)")
    p.add_argument("--shards", type=int, default=None, metavar="N",
                   help="fan the campaign out over N local worker "
                        "processes: shorthand for --coordinator "
                        "127.0.0.1:0 --dist-workers N (needs "
                        "--cache-dir; 1 = a plain solo run unless "
                        "--cell-timeout is given)")
    p.add_argument("--coordinator", default=None, metavar="[HOST:]PORT",
                   help="run the campaign through an in-process "
                        "lease-based coordinator on this endpoint with "
                        "--dist-workers subprocess workers, then "
                        "assemble the (byte-identical) dataset from "
                        "warm cells")
    p.add_argument("--dist-workers", type=int, default=2, metavar="N",
                   help="worker subprocesses for --coordinator and "
                        "--cell-timeout (default: 2)")
    p.add_argument("--dist-net-chaos", type=int, default=None,
                   metavar="SEED",
                   help="give --coordinator workers a seeded chaos "
                        "transport (worker i uses SEED+i)")
    p.add_argument("--dist-deadline", type=float, default=None,
                   metavar="S",
                   help="abort the dist campaign if not settled in S "
                        "seconds (default: wait forever)")
    _add_obs_flags(p)
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser(
        "coordinate",
        help="serve one campaign to remote 'repro worker' processes",
    )
    p.add_argument("--platform", default="EMR2S")
    p.add_argument("--targets", nargs="+", default=["numa", "cxl-a"],
                   help="local numa cxl-a..cxl-d cxl-X+numa")
    p.add_argument("--suite", default=None, help="restrict to one suite")
    p.add_argument("--sample", type=int, default=1,
                   help="take every N-th workload")
    p.add_argument("--fault-plan", default=None, metavar="PATH",
                   help="JSON fault plan injected into every cell "
                        "(workers receive it in the campaign spec)")
    p.add_argument("--cache-dir", required=True,
                   help="shared cache directory results commit into")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port to listen on (default: ephemeral)")
    p.add_argument("--lease", type=float, default=30.0, metavar="S",
                   help="lease duration per work unit (default: 30)")
    p.add_argument("--unit-retries", type=int, default=5, metavar="N",
                   help="attempts per unit before quarantine "
                        "(default: 5)")
    p.add_argument("--deadline", type=float, default=None, metavar="S",
                   help="give up if the campaign has not settled in S "
                        "seconds (default: wait forever)")
    p.add_argument("--strict-cells", action="store_true",
                   help="exit 3 when any unit was quarantined")
    p.add_argument("--event-log", default=None, metavar="PATH",
                   help="write lease/commit wide events as ndjson")
    p.set_defaults(func=cmd_coordinate)

    p = sub.add_parser(
        "worker",
        help="execute leased cells for a 'repro coordinate' process",
    )
    p.add_argument("--connect", required=True, metavar="[HOST:]PORT",
                   help="coordinator endpoint to dial")
    p.add_argument("--name", default="",
                   help="worker name in coordinator logs "
                        "(default: worker-<pid>)")
    p.add_argument("--net-chaos", type=int, default=None, metavar="SEED",
                   help="sabotage this worker's outgoing frames with "
                        "the seeded chaos transport")
    p.add_argument("--chaos-error", type=float, default=0.0,
                   metavar="P",
                   help="probability a cell attempt raises (host chaos)")
    p.add_argument("--chaos-kill", type=float, default=0.0, metavar="P",
                   help="probability a cell attempt kills this worker "
                        "(os._exit, SIGKILL semantics)")
    p.add_argument("--chaos-seed", type=int, default=0,
                   help="seed for --chaos-error/--chaos-kill draws")
    p.add_argument("--die-after", type=int, default=None, metavar="N",
                   help="abandon the socket mid-lease after serving N "
                        "leases (exit 9; chaos harnesses)")
    p.add_argument("--reconnect", type=int, default=8, metavar="N",
                   help="consecutive failed connection attempts before "
                        "giving up (default: 8)")
    p.set_defaults(func=cmd_worker)

    p = sub.add_parser(
        "query", help="scan the columnar result store across campaigns"
    )
    p.add_argument("--cache-dir", required=True,
                   help="cache directory holding the store/ tier")
    p.add_argument("--kind", default=None,
                   choices=["eventsim", "analytic"],
                   help="restrict to one result kind")
    p.add_argument("--device", default=None,
                   help="device/target name (e.g. CXL-A)")
    p.add_argument("--workload", default=None,
                   help="workload name (analytic rows)")
    p.add_argument("--target", default=None,
                   help="memory target name (analytic rows)")
    p.add_argument("--fault-plan", default=None, metavar="KEY",
                   help="fault plan key prefix; 'none' = fault-free rows")
    p.add_argument("--fingerprint", default=None, metavar="FP",
                   help="restrict to one campaign fingerprint (prefix ok)")
    p.add_argument("--min-gbps", type=float, default=None,
                   help="minimum offered load (eventsim rows)")
    p.add_argument("--max-gbps", type=float, default=None,
                   help="maximum offered load (eventsim rows)")
    p.add_argument("--percentiles", default="50,99,99.9", metavar="LIST",
                   help="latency percentiles per eventsim row "
                        "(default: 50,99,99.9)")
    p.add_argument("--format", default="table",
                   choices=["table", "json", "ndjson"])
    p.add_argument("--limit", type=int, default=None, metavar="N",
                   help="print at most N rows (after sorting)")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("spa", help="Spa breakdown of one workload")
    p.add_argument("workload")
    p.add_argument("--target", default="cxl-a")
    p.add_argument("--platform", default="EMR2S")
    p.add_argument("--strict", action="store_true",
                   help="promote invariant violations in results to errors")
    p.set_defaults(func=cmd_spa)

    p = sub.add_parser("figures", help="regenerate paper tables/figures")
    p.add_argument("ids", nargs="*",
                   help="substring filters (e.g. fig08 tab01); empty = all")
    p.add_argument("--full", action="store_true",
                   help="full 265-workload population")
    p.add_argument("--output", default=None,
                   help="directory to write <experiment>.txt files into")
    p.add_argument("--cache-dir", default=None,
                   help="on-disk run cache shared across invocations")
    p.add_argument("--strict", action="store_true",
                   help="promote invariant violations in results to errors")
    _add_obs_flags(p)
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser(
        "validate", help="run the simulation invariant suite (repro.diag)"
    )
    p.add_argument("--layer", nargs="*", default=None,
                   choices=["link", "device", "counters", "workloads",
                            "runtime", "obs", "faults", "store", "dist"],
                   help="restrict to these layers (default: all)")
    p.add_argument("--json", action="store_true",
                   help="emit the structured DiagReport as JSON")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("fit", help="fit device models from measurements")
    p.add_argument("latency_samples",
                   help="file of per-request idle latencies (ns, one/line)")
    p.add_argument("loaded_curve",
                   help="CSV of bandwidth_gbps,latency_ns curve points")
    p.add_argument("--workload", default=None,
                   help="also predict this workload's slowdown on the fit")
    p.add_argument("--platform", default="EMR2S")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("stats", help="render a --metrics export file")
    p.add_argument("metrics_file",
                   help="JSON metrics export written by --metrics")
    p.add_argument("--json", action="store_true",
                   help="re-emit the validated export as sorted JSON")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "serve", help="characterization-as-a-service HTTP server"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080,
                   help="TCP port (0 = ephemeral; the banner prints it)")
    p.add_argument("--workers", type=int, default=4,
                   help="worker threads executing jobs (default: 4)")
    p.add_argument("--max-inflight", type=int, default=0, metavar="N",
                   help="leader jobs executing at once "
                        "(default: same as --workers)")
    p.add_argument("--max-queue", type=int, default=32, metavar="N",
                   help="leaders allowed to wait for a slot before new "
                        "requests get 429 (default: 32)")
    p.add_argument("--per-tenant", type=int, default=16, metavar="N",
                   help="open requests allowed per x-repro-tenant "
                        "(default: 16)")
    p.add_argument("--cell-retries", type=int, default=2, metavar="N",
                   help="attempts per cell before its point degrades to "
                        "an error object (default: 2)")
    p.add_argument("--cache-dir", default=None,
                   help="on-disk run cache shared across jobs and with "
                        "the CLI")
    p.add_argument("--allow-chaos", action="store_true",
                   help="accept error-only 'chaos' objects in queries "
                        "(resilience drills; never kill/hang)")
    p.add_argument("--drain", type=float, default=5.0, metavar="S",
                   help="seconds to let in-flight jobs finish on "
                        "shutdown (default: 5)")
    p.add_argument("--oneshot", default=None, metavar="QUERY.json",
                   help="execute one query file locally, print the "
                        "exact bytes the server would serve, and exit")
    p.add_argument("--log-level", default="info",
                   choices=["debug", "info", "warn", "error", "off"],
                   help="wide-event ndjson log threshold (default: info; "
                        "off disables the log, not the flight recorder)")
    p.add_argument("--event-log", default=None, metavar="PATH",
                   help="append the ndjson event log to PATH instead of "
                        "stdout (follow it with 'repro tail')")
    p.add_argument("--event-sample", type=int, default=1, metavar="N",
                   help="keep every Nth request wide event (default: 1; "
                        "lifecycle events are always kept)")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="write one merged Chrome trace_event JSON on "
                        "shutdown: serve, runtime and simulator spans "
                        "of every request on a shared timeline")
    p.add_argument("--trace-sample", type=int, default=1, metavar="N",
                   help="trace every Nth simulated request per job "
                        "(default: 1)")
    p.add_argument("--flight", type=int, default=256, metavar="N",
                   help="requests the /debug/requests flight recorder "
                        "remembers (default: 256)")
    p.add_argument("--slo-window", type=float, default=300.0, metavar="S",
                   help="rolling SLO window in seconds (default: 300)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "tail", help="follow/validate a serve ndjson wide-event log"
    )
    p.add_argument("event_log", help="ndjson event log written by "
                                     "'repro serve --event-log'")
    p.add_argument("--json", action="store_true",
                   help="re-emit validated events as compact JSON lines")
    p.add_argument("--follow", "-f", action="store_true",
                   help="keep reading as the file grows (Ctrl-C to stop)")
    p.add_argument("--level", default="debug",
                   choices=["debug", "info", "warn", "error"],
                   help="hide events below this level (default: debug)")
    p.set_defaults(func=cmd_tail)

    p = sub.add_parser(
        "slo", help="render a server's rolling-window SLO snapshot"
    )
    p.add_argument("source",
                   help="server base URL (http://host:port) or a saved "
                        "/stats JSON file")
    p.add_argument("--json", action="store_true",
                   help="emit the raw SLO section as JSON")
    p.set_defaults(func=cmd_slo)

    p = sub.add_parser("workloads", help="list the population")
    p.add_argument("--suite", default=None)
    p.add_argument("--verbose", "-v", action="store_true")
    p.set_defaults(func=cmd_workloads)

    return parser


def main(argv=None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MelodyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # Ctrl-C, or a SIGTERM that a worker fleet remapped (its exit
        # has already stopped the workers).
        print("error: interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # stdout went away (e.g. `repro stats ... | head`); exit quietly
        # instead of tracebacking, and keep the interpreter from crashing
        # again when it flushes stdout at shutdown.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
