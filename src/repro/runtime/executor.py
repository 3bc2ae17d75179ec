"""The cache-aware, fault-tolerant campaign executor.

:class:`CampaignEngine` takes a flat list of :class:`Cell` objects -- the
(workload, platform, target, config) grid of a campaign -- and returns one
:class:`~repro.cpu.pipeline.RunResult` per cell **in cell order**, so the
way cells were executed never shows in downstream figures.

The engine executes two kinds of cells: analytic :class:`Cell` objects
(workload x platform x target through the CPU pipeline) and
:class:`SimCell` objects (event-driven device simulations).  Both kinds
fuse: many analytic cells share one batched fixed point per target
group (:func:`repro.cpu.pipeline.run_workloads`), and many sim cells
share single kernel invocations
(:func:`repro.hw.cxl.eventdevice.simulate_batch`), instead of running
one by one.

Execution strategy per batch:

1. resolve every cell against the :class:`~repro.runtime.cache.RunCache`
   (and against the engine's quarantine ledger -- a cell that already
   failed repeatedly resolves to ``None`` instead of re-running);
2. deduplicate the misses by content key (submission order preserved, so
   callers that put baseline cells first get baseline-first scheduling and
   dependent cells hit the cache);
3. run the unique misses under the one batching rule: in ``auto`` mode
   the set splits by kind -- analytic cells run fused in chunks of
   :data:`ANALYTIC_CHUNK_CELLS`, sim cells as one fused **batch** when
   every one is batchable -- and anything else (``serial`` mode, a sim
   set holding a pinned or traced cell) runs **serial**ly, caching each
   result the moment it exists;
4. assemble the per-cell list by key lookup.

A cell's result is byte-identical whether it ran serially or batched (the
``eventsim-batch-identity`` and ``analytic-batch-identity`` diag checks
and the benchmark's pre-timing assertion enforce this), so the strategy
is pure policy -- it can never change campaign output.  The engine never
spreads a batch over processes: a campaign reaches more cores only
through the lease coordinator (:mod:`repro.dist`, the CLI's ``--shards
N`` / ``--coordinator``).

Genuine run errors propagate -- unless a :class:`RetryPolicy` is
installed, which switches the engine into its **resilient mode**: each
cell attempt runs in-process, failures retry with seeded exponential
backoff + jitter (the sleep function is injectable, so tests use a fake
clock), and cells that exhaust their attempts are quarantined into
structured :class:`FailedCell` records instead of aborting the campaign.
Crashes and hangs are not this module's business: a cell that kills or
wedges its process is bounded by lease expiry on the coordinator
(:mod:`repro.dist`, the CLI's ``--cell-timeout``).

The run cache is the campaign's progress record: a serial cell is cached
(and its store row flushed) as soon as it returns and a fused chunk as
soon as the chunk returns, so an error or a kill costs at most the cell
or chunk in flight and a rerun over the same cache skips everything that
finished.  The quarantine
ledger is the one thing the cache cannot hold; an attached
``checkpointer`` (see :mod:`repro.runtime.checkpoint`) persists it
whenever a cell is quarantined.

Observability: every batch feeds the process-wide metrics registry
(:mod:`repro.obs`) -- cells requested/run/cached/deduped, batch wall-time
histogram, cache hit rate, serial-vs-batch split and the resilience
counters (retries, quarantines) -- and, when tracing is on,
emits one wall-clock span per batch.  Instrumentation only observes wall
time and counts; it cannot change which cells run or what they return.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.cpu.pipeline import (
    PipelineConfig,
    RunResult,
    run_workload,
    run_workloads,
)
from repro.errors import ConfigurationError
from repro.faults.chaos import active_chaos
from repro.faults.plan import active_fault_plan
from repro.hw.platform import Platform
from repro.hw.target import MemoryTarget
from repro.obs.metrics import metrics
from repro.obs.trace import CLOCK_WALL, tracing
from repro.rng import DEFAULT_SEED, generator_for
from repro.runtime.cache import RunCache, run_key
from repro.runtime.serialize import FORMAT_VERSION
from repro.workloads.base import WorkloadSpec

ENGINE_MODES = ("auto", "serial")
"""Accepted ``CampaignEngine.mode`` values: ``auto`` runs analytic cells
and batchable sim cells fused, ``serial`` never batches (the reference
the batch-identity checks compare against)."""

ANALYTIC_CHUNK_CELLS = 512
"""Analytic cells per fused :func:`~repro.cpu.pipeline.run_workloads`
call.  Each chunk is cached as soon as it returns, so the bound is what a
raise or a kill can cost; the shipped 1325-cell campaign runs as three
chunks."""


@dataclass(frozen=True)
class Cell:
    """One unit of campaign work: run a workload on one (platform, target)."""

    workload: WorkloadSpec
    platform: Platform
    target: MemoryTarget
    config: PipelineConfig = PipelineConfig()

    def key(self) -> str:
        """Content-addressed identity of this cell."""
        return run_key(self.workload, self.platform, self.target, self.config)


@dataclass(frozen=True)
class SimCell:
    """One event-simulation campaign cell: a device at an operating point.

    The engine fuses many sim cells into single kernel invocations.
    ``engine`` is a per-cell preference (``auto`` lets the cell join a
    batch; ``scalar``/``vector`` force a solo engine and opt the cell out
    of batching); it is excluded
    from :meth:`key` because every engine returns byte-identical results,
    so all of them collapse onto one cache entry.
    """

    device: str
    n_requests: int
    offered_gbps: float
    read_fraction: float = 1.0
    engine: str = "auto"
    seed: int = DEFAULT_SEED

    def key(self) -> str:
        """Content-addressed identity (engine deliberately excluded)."""
        parts = [
            "simcell",
            str(FORMAT_VERSION),
            self.device,
            str(self.n_requests),
            f"{self.offered_gbps:.6f}",
            f"{self.read_fraction:.6f}",
            str(self.seed),
        ]
        # An active fault plan changes what the simulation computes, so it
        # joins the key exactly as it does for analytic cells.
        plan = active_fault_plan()
        if plan is not None and plan.enabled:
            parts.append(f"fault-plan:{plan.key()}")
        return hashlib.sha256("\x1f".join(parts).encode("utf-8")).hexdigest()

    @property
    def batchable(self) -> bool:
        """Whether this cell may join a fused batch."""
        return self.engine == "auto" and tracing() is None

    def run(self):
        """Run this cell solo (the serial and resilient paths)."""
        return _simulator_for(self.device, self.seed).simulate(
            self.n_requests,
            self.offered_gbps,
            read_fraction=self.read_fraction,
            engine=self.engine,
        )


AnyCell = Union[Cell, SimCell]

_SIMULATORS: Dict[Tuple[str, int], object] = {}
_SIMULATORS_LOCK = threading.Lock()


def _simulator_for(device_name: str, seed: int):
    """Per-process simulator cache (device construction is not free).

    Lock-protected: ``repro serve`` resolves simulators from many worker
    threads at once, and every caller must share one instance so the
    per-device timing-constant memo warms exactly once.
    """
    cache_key = (device_name, seed)
    sim = _SIMULATORS.get(cache_key)
    if sim is None:
        from repro.hw.cxl import CXL_DEVICES
        from repro.hw.cxl.eventdevice import EventDrivenDevice

        with _SIMULATORS_LOCK:
            sim = _SIMULATORS.get(cache_key)
            if sim is None:
                sim = EventDrivenDevice(
                    CXL_DEVICES[device_name](), seed=seed
                )
                _SIMULATORS[cache_key] = sim
    return sim


def _cell_names(cell: AnyCell) -> Tuple[str, str, str]:
    """(workload, platform, target) display names for failure records."""
    if isinstance(cell, SimCell):
        return ("eventsim", cell.device, f"{cell.offered_gbps:.3f}gbps")
    return (cell.workload.name, cell.platform.name, cell.target.name)


def _execute_cell(cell: AnyCell):
    """Run one cell of either kind."""
    if isinstance(cell, SimCell):
        return cell.run()
    return run_workload(cell.workload, cell.platform, cell.target, cell.config)


def _execute_cell_attempt(cell: Cell, attempt: int = 1) -> RunResult:
    """Run one cell under the (optional) chaos policy.

    Chaos sabotage -- worker kill, hang, injected error -- happens
    *before* the real run, keyed by (cell, attempt), so a sabotaged
    attempt is reproducible and a later attempt can succeed.
    """
    chaos = active_chaos()
    if chaos is not None:
        chaos.apply(cell.key(), attempt)
    return _execute_cell(cell)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry schedule for resilient cell execution.

    ``backoff_s`` is a pure function of (cell key, attempt): the jitter
    comes from a seeded RNG keyed by both, so two runs of one campaign
    sleep identical schedules and tests can assert them exactly.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 2.0
    jitter_frac: float = 0.25
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if self.backoff_base_s < 0:
            raise ConfigurationError("backoff_base_s must be >= 0")
        if self.backoff_factor < 1.0:
            raise ConfigurationError("backoff_factor must be >= 1")
        if self.backoff_max_s < self.backoff_base_s:
            raise ConfigurationError("backoff_max_s must be >= the base")
        if not 0.0 <= self.jitter_frac <= 1.0:
            raise ConfigurationError("jitter_frac must be in [0, 1]")

    def backoff_s(self, cell_key: str, attempt: int) -> float:
        """Delay before re-running ``cell_key`` after failed ``attempt``."""
        base = min(
            self.backoff_base_s * self.backoff_factor ** (attempt - 1),
            self.backoff_max_s,
        )
        if base <= 0.0 or self.jitter_frac <= 0.0:
            return base
        draw = generator_for(
            self.seed, "backoff", cell_key, str(attempt)
        ).random()
        return base * (1.0 + self.jitter_frac * (2.0 * draw - 1.0))


@dataclass(frozen=True)
class FailedCell:
    """Structured record of a quarantined cell (campaign kept going)."""

    key: str
    workload: str
    platform: str
    target: str
    attempts: int
    reason: str  # "error" | "crash" | "timeout"
    message: str = ""

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation (checkpoints, exports)."""
        return {
            "key": self.key,
            "workload": self.workload,
            "platform": self.platform,
            "target": self.target,
            "attempts": self.attempts,
            "reason": self.reason,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FailedCell":
        """Inverse of :meth:`to_dict`."""
        return cls(
            key=str(data["key"]),
            workload=str(data.get("workload", "")),
            platform=str(data.get("platform", "")),
            target=str(data.get("target", "")),
            attempts=int(data.get("attempts", 0)),
            reason=str(data.get("reason", "error")),
            message=str(data.get("message", "")),
        )


@dataclass
class EngineStats:
    """Cumulative execution statistics of one engine."""

    cells_requested: int = 0
    cells_run: int = 0
    cells_cached: int = 0
    cells_from_store: int = 0
    """Cache hits served by the columnar store tier (a subset of
    ``cells_cached``); event-sim JSON documents served the rest of the
    disk hits.
    Counted as the cache's ``store_hits`` delta across each batch's
    resolution loop, so on a cache shared by concurrent engines the
    split is approximate -- the per-engine total never exceeds the
    cache-wide truth."""
    cells_deduped: int = 0
    cells_serial: int = 0
    elapsed_s: float = 0.0
    batches: int = 0
    cells_retried: int = 0
    """Failed attempts that were re-queued under a RetryPolicy."""
    cells_quarantined: int = 0
    """Cells resolved as FailedCell (including checkpoint-restored ones)."""
    cells_batched: int = 0
    """Cells executed through the fused batch kernels."""
    planner_serial: int = 0
    """Pending sets executed serially.  The ``planner_*`` names predate
    the one batch rule; ``perfbench/tracing.py`` reads them as its
    ``executor.plan.*`` counters."""
    planner_pool: int = 0
    """Always 0: the engine has no process pool.  Kept because the
    benchmark harness (``perfbench/tracing.py``) reads it through
    ``getattr`` as its ``executor.plan.pool`` counter, and ``perfbench/``
    changes only in a benchmark change of its own; drop both together."""
    planner_batch: int = 0
    """Pending sets executed as one fused batch."""
    last_plan: str = ""
    """How the most recent pending set ran: ``batch`` or ``serial``."""

    def runs_per_second(self) -> float:
        """Executed-cell throughput (0 when nothing ran)."""
        return self.cells_run / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def cached_per_second(self) -> float:
        """Cache-hit (plus dedupe) service throughput."""
        return (
            self.cells_cached / self.elapsed_s if self.elapsed_s > 0 else 0.0
        )

    def hit_rate(self) -> float:
        """Fraction of requested cells served without executing them."""
        return (
            self.cells_cached / self.cells_requested
            if self.cells_requested > 0
            else 0.0
        )

    def dedupe_ratio(self) -> float:
        """Fraction of requested cells collapsed onto an in-batch twin."""
        return (
            self.cells_deduped / self.cells_requested
            if self.cells_requested > 0
            else 0.0
        )

    def summary(self) -> str:
        """The CLI's one-line report.

        An all-cache-hit batch used to report a misleading ``0.0 runs/s``;
        when nothing ran but cells were served, the throughput shown is
        the cache-service rate instead, and the hit rate is always shown.
        """
        if self.cells_run == 0 and self.cells_cached > 0:
            throughput = f"{self.cached_per_second():.1f} cached/s"
        else:
            throughput = f"{self.runs_per_second():.1f} runs/s"
        provenance = f"{self.cells_run} run, {self.cells_cached} cached"
        if self.cells_from_store:
            provenance += f", {self.cells_from_store} store"
        line = (
            f"runtime: {self.cells_requested} cells "
            f"({provenance}) "
            f"in {self.elapsed_s:.2f}s "
            f"({throughput}, {self.hit_rate() * 100.0:.0f}% hit rate)"
        )
        if self.cells_quarantined:
            line += f" [{self.cells_quarantined} quarantined]"
        if self.last_plan:
            line += f" [plan: {self.last_plan}]"
        return line


@dataclass
class CampaignEngine:
    """Memoized executor shared by campaigns, experiments and the CLI.

    With ``policy=None`` (the default) execution is fail-fast, exactly as
    historical callers expect.  Installing a :class:`RetryPolicy` switches
    failed-cell handling to retry/quarantine; ``failed`` then
    accumulates one :class:`FailedCell` per quarantined cell and
    ``run_cells`` returns ``None`` in that cell's slot.
    """

    cache: RunCache = field(default_factory=RunCache)
    stats: EngineStats = field(default_factory=EngineStats)
    policy: Optional[RetryPolicy] = None
    checkpointer: Optional[object] = None
    """A :class:`~repro.runtime.checkpoint.Checkpointer`, written on
    every quarantine."""
    failed: List[FailedCell] = field(default_factory=list)
    sleep_fn: Callable[[float], None] = time.sleep
    mode: str = "auto"
    """Execution strategy: one of :data:`ENGINE_MODES`."""
    _quarantined: Dict[str, FailedCell] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.mode not in ENGINE_MODES:
            raise ConfigurationError(
                f"unknown engine mode {self.mode!r}; "
                f"expected one of {ENGINE_MODES}"
            )

    def restore_quarantine(self, records: Iterable[FailedCell]) -> int:
        """Seed the quarantine ledger (``--resume`` from a checkpoint).

        Restored cells resolve to ``None`` without re-executing, and each
        batch that requests one re-reports its :class:`FailedCell`.
        """
        count = 0
        for record in records:
            self._quarantined[record.key] = record
            count += 1
        return count

    def run_cells(self, cells: Sequence[Cell]) -> List[Optional[RunResult]]:
        """Execute a batch of cells; results are returned in cell order.

        Slots are ``None`` only for quarantined cells (resilient mode).
        """
        start = time.perf_counter()
        store_hits_before = self.cache.store_hits
        keys = [cell.key() for cell in cells]
        resolved: Dict[str, Optional[RunResult]] = {}
        pending: List[Cell] = []
        pending_keys: List[str] = []
        dupes = 0
        quarantine_hits = 0
        for cell, key in zip(cells, keys):
            if key in resolved:
                dupes += 1
                continue
            restored = self._quarantined.get(key)
            if restored is not None:
                resolved[key] = None
                self.failed.append(restored)
                self.stats.cells_quarantined += 1
                metrics().counter("runtime.cells_quarantined").inc()
                quarantine_hits += 1
                continue
            hit = self.cache.get(key)
            if hit is not None:
                resolved[key] = hit
                continue
            resolved[key] = None  # claimed; dedupe within the batch
            pending.append(cell)
            pending_keys.append(key)

        if self.policy is not None:
            ran = self._execute_resilient(pending, pending_keys, resolved)
        else:
            ran = self._execute(pending, pending_keys, resolved)

        elapsed = time.perf_counter() - start
        cached = len(cells) - len(pending) - dupes - quarantine_hits
        from_store = self.cache.store_hits - store_hits_before
        self.stats.cells_requested += len(cells)
        self.stats.cells_run += ran
        self.stats.cells_cached += cached + dupes
        self.stats.cells_from_store += max(from_store, 0)
        self.stats.cells_deduped += dupes
        self.stats.elapsed_s += elapsed
        self.stats.batches += 1
        self._observe_batch(len(cells), ran, cached, dupes, start, elapsed)
        return [resolved[key] for key in keys]

    def _observe_batch(
        self,
        requested: int,
        ran: int,
        cached: int,
        dupes: int,
        start: float,
        elapsed: float,
    ) -> None:
        """Publish one batch's numbers to the metrics registry and tracer."""
        registry = metrics()
        if registry.enabled:
            registry.counter("runtime.cells_requested").inc(requested)
            registry.counter("runtime.cells_run").inc(ran)
            registry.counter("runtime.cells_cached").inc(cached)
            registry.counter("runtime.cells_deduped").inc(dupes)
            registry.counter("runtime.batches").inc()
            registry.histogram("runtime.batch_seconds").observe(elapsed)
            registry.gauge("runtime.cache_hit_rate").set(
                self.stats.hit_rate()
            )
            registry.gauge("runtime.dedupe_ratio").set(
                self.stats.dedupe_ratio()
            )
            registry.gauge("runtime.store_hits").set(
                self.cache.store_hits
            )
        buffer = tracing()
        if buffer is not None:
            buffer.add(
                f"batch[{requested}]",
                "runtime",
                start_ns=start * 1e9,
                dur_ns=elapsed * 1e9,
                clock=CLOCK_WALL,
                cells_requested=requested,
                cells_run=ran,
            )

    def run_one(
        self,
        workload: WorkloadSpec,
        platform: Platform,
        target: MemoryTarget,
        config: PipelineConfig = PipelineConfig(),
    ) -> Optional[RunResult]:
        """Run (or recall) a single cell."""
        return self.run_cells([Cell(workload, platform, target, config)])[0]

    # -- execution backends ------------------------------------------------

    def _execute(
        self,
        pending: List[AnyCell],
        pending_keys: List[str],
        resolved: Dict[str, Optional[RunResult]],
    ) -> int:
        """Fail-fast execution under the one batching rule.

        In ``auto`` mode a pending set splits by kind: analytic cells run
        fused through :func:`~repro.cpu.pipeline.run_workloads`, in chunks
        of :data:`ANALYTIC_CHUNK_CELLS`, and sim cells through one
        :meth:`_execute_batch` when every one of them may join it.  A sim
        cell pinned to ``scalar``/``vector`` (or running under a tracer)
        asked for solo semantics, so then the set's sim cells run one by
        one; ``serial`` mode runs every cell one by one.  Every result is
        cached the moment it exists -- a serial cell as soon as it
        returns, a fused chunk as soon as the chunk returns -- so a raise
        or a kill costs at most the cell or chunk in flight.
        """
        if not pending:
            return 0
        items = list(zip(pending, pending_keys))
        analytic: List[Tuple[AnyCell, str]] = []
        sims: List[Tuple[AnyCell, str]] = []
        serial = items
        if self.mode == "auto":
            analytic = [item for item in items if isinstance(item[0], Cell)]
            sims = [item for item in items if isinstance(item[0], SimCell)]
            serial = []
            if not all(cell.batchable for cell, _ in sims):
                serial, sims = sims, []
        fused = len(analytic) + len(sims)
        self.stats.last_plan = "batch" if fused else "serial"
        metrics().counter(
            "runtime.planner_choice", choice=self.stats.last_plan
        ).inc()
        if fused:
            self.stats.planner_batch += 1
        else:
            self.stats.planner_serial += 1
        for lo in range(0, len(analytic), ANALYTIC_CHUNK_CELLS):
            chunk = analytic[lo:lo + ANALYTIC_CHUNK_CELLS]
            self._commit(chunk, run_workloads([
                (cell.workload, cell.platform, cell.target, cell.config)
                for cell, _ in chunk
            ]), resolved, batched=True)
        if sims:
            self._commit(
                sims, self._execute_batch([cell for cell, _ in sims]),
                resolved, batched=True,
            )
        if serial:
            self.stats.cells_serial += len(serial)
            metrics().counter("runtime.cells_serial").inc(len(serial))
            for item in serial:  # each cell is stored before the next runs
                self._commit([item], (_execute_cell(item[0]),), resolved)
        return len(pending)

    def _commit(
        self,
        items: Sequence[Tuple[AnyCell, str]],
        results: Iterable[object],
        resolved: Dict[str, Optional[RunResult]],
        batched: bool = False,
    ) -> None:
        """Cache and resolve ``items``' results, then make them durable.

        A :class:`RunResult` goes through :meth:`RunCache.put`, which
        appends its store row, and the one :meth:`RunCache.flush` after
        the loop makes every row of the chunk or cell durable at once.
        An :class:`EventSimResult` goes through
        :meth:`RunCache.put_memory`, which writes its ``to_dict``
        document to the JSON tier at once; :meth:`RunCache.promote_store`
        later stores it as a row.
        """
        for (_, key), result in zip(items, results):
            if isinstance(result, RunResult):
                self.cache.put(key, result)
            else:
                self.cache.put_memory(key, result)
            resolved[key] = result
        self.cache.flush()
        if batched:
            self.stats.cells_batched += len(items)
            metrics().counter("runtime.cells_batched").inc(len(items))

    def _execute_batch(self, pending: List[SimCell]) -> List[object]:
        """Fused execution: all pending sim cells through one batch call.

        ``simulate_batch`` auto-chunks internally, so a campaign-sized
        pending set becomes a handful of cache-resident kernel
        invocations rather than one per cell.
        """
        from repro.hw.cxl.eventdevice import simulate_batch

        points = [
            (
                _simulator_for(cell.device, cell.seed),
                cell.n_requests,
                cell.offered_gbps,
                cell.read_fraction,
            )
            for cell in pending
        ]
        return simulate_batch(points)

    # -- resilient mode ----------------------------------------------------

    def _execute_resilient(
        self,
        pending: List[Cell],
        pending_keys: List[str],
        resolved: Dict[str, Optional[RunResult]],
    ) -> int:
        """Retry/quarantine execution under ``self.policy``.

        Cells run one in-process attempt at a time; an exception is an
        ``error``.  There is no fork and no timeout here: ``repro serve``
        worker threads run this path (forking from a thread while other
        threads hold locks risks deadlocking the child), and a CLI
        campaign that must survive crashes or hangs runs on the lease
        coordinator instead.  Resilient mode never runs a fused batch:
        one poisoned cell would take its whole chunk down.  Backoff
        sleeps happen just before a retry runs, via the injectable
        ``sleep_fn``.
        """
        policy = self.policy
        queue: Deque[Tuple[Cell, str, int]] = deque(
            (cell, key, 1) for cell, key in zip(pending, pending_keys)
        )
        ok = 0
        while queue:
            cell, key, attempt = queue.popleft()
            if attempt > 1:
                delay = policy.backoff_s(key, attempt - 1)
                if delay > 0:
                    self.sleep_fn(delay)
            try:
                result = _execute_cell_attempt(cell, attempt)
            except Exception as exc:  # noqa: BLE001 -- becomes a FailedCell
                message = f"{type(exc).__name__}: {exc}"
            else:
                self._commit([(cell, key)], (result,), resolved)
                self.stats.cells_serial += 1
                ok += 1
                continue
            if attempt >= policy.max_attempts:
                self._quarantine(cell, key, attempt, "error", message)
            else:
                self.stats.cells_retried += 1
                metrics().counter("runtime.cells_retried").inc()
                queue.append((cell, key, attempt + 1))
        return ok

    def _quarantine(
        self, cell: AnyCell, key: str, attempts: int, reason: str,
        message: str,
    ) -> None:
        """Give up on a cell: record it, never cache it, keep going.

        The quarantine ledger is the one piece of progress the run cache
        cannot hold, so an attached checkpointer persists it at once.
        """
        workload, platform, target = _cell_names(cell)
        record = FailedCell(
            key=key,
            workload=workload,
            platform=platform,
            target=target,
            attempts=attempts,
            reason=reason,
            message=message,
        )
        self.failed.append(record)
        self._quarantined[key] = record
        self.stats.cells_quarantined += 1
        metrics().counter("runtime.cells_quarantined").inc()
        if self.checkpointer is not None:
            self.checkpointer.write(self.failed)
