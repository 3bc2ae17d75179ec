"""The batch workloads: ``campaign``, ``campaign_dist`` and ``simgrid``.

Each workload object prepares its inputs from the seed, then runs timed
iterations.  An iteration returns its timed phases and its samples; the
runner pools the samples of the untraced iterations and asks the
workload to summarize them.  Every output check runs outside the timed
phases and lands in the workload's :class:`Tally`.
"""

from __future__ import annotations

import gc
import io
import random
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from spans import SpanRecorder, median
from speed import SpeedProbe

CAMPAIGN_ARGV = ("campaign", "--targets", "numa", "cxl-a", "cxl-b", "cxl-d")
"""The shipped dataset command (``data/README.md``), minus its outputs."""
CAMPAIGN_CELLS = 1325
"""265 baselines plus 1060 slowdown cells of the shipped campaign."""
WARM_PASSES = 2
"""Fresh-open warm passes per iteration (each one a ``warm_s`` sample)."""


@dataclass
class Tally:
    """Checked operations and failures of one run."""

    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str, count: int = 1) -> None:
        """Count ``count`` operations, all failed unless ``ok``."""
        self.attempted += count
        if not ok:
            self.failed += count
            self.notes.append(what)


@dataclass
class Iteration:
    """One timed iteration: its phases and its samples.

    A phase is (name, start, end, factor): host start and end, and the
    normalized seconds per host second the speed probe measured over it
    (1.0 without a probe, i.e. host seconds).
    """

    recorder: Optional[SpanRecorder] = None
    """Set on a traced iteration: spans count only inside phases."""
    probe: Optional[SpeedProbe] = None
    phases: List[Tuple[str, float, float, float]] = field(
        default_factory=list)
    samples: Dict[str, List[float]] = field(default_factory=dict)

    @contextmanager
    def phase(self, name: str):
        """Time one phase.  Garbage is collected first, outside the timing."""
        gc.collect()
        if self.recorder is not None:
            self.recorder.op = name
            self.recorder.active = True
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            if self.recorder is not None:
                self.recorder.active = False
        factor = 1.0 if self.probe is None else self.probe.factor(start, end)
        self.phases.append((name, start, end, factor))

    def durations(self, name: str) -> List[float]:
        """Normalized seconds of every phase called ``name``."""
        return [(end - start) * factor
                for n, start, end, factor in self.phases if n == name]

    def duration(self, name: str) -> float:
        """Summed normalized seconds of the phases called ``name``."""
        return sum(self.durations(name))

    @property
    def wall_s(self) -> float:
        """Normalized seconds of the timed work."""
        return sum((end - start) * factor
                   for _, start, end, factor in self.phases)

    @property
    def windows(self) -> List[Tuple[float, float]]:
        return [(start, end) for _, start, end, _ in self.phases]

    def add(self, name: str, *values: float) -> None:
        """Append samples under ``name``."""
        self.samples.setdefault(name, []).extend(values)


def new_dir(parent: Path, stem: str) -> str:
    """A new, empty directory ``<parent>/<stem><n>``.

    Nothing is deleted until the run ends (``run.py`` removes the whole
    work dir): on ext4 file creation right after a large delete was
    measured up to 10x slower, which would leak the previous
    iteration's clean-up into the next cold pass.
    """
    index = 0
    while (parent / f"{stem}{index}").exists():
        index += 1
    path = parent / f"{stem}{index}"
    path.mkdir(parents=True)
    return str(path)


def tier_bytes(cache_dir: str) -> Dict[str, int]:
    """On-disk bytes of the JSON tier, store segments and manifests."""
    root = Path(cache_dir)
    store = root / "store"
    sizes = {"json": 0, "segments": 0, "manifests": 0}
    for path in root.rglob("*"):
        if not path.is_file():
            continue
        if store in path.parents:
            part = "segments" if path.suffix == ".f64" else "manifests"
        elif path.suffix == ".json" and path.parent.name != "checkpoints":
            part = "json"
        else:
            continue
        sizes[part] += path.stat().st_size
    return sizes


def run_cli(argv: Sequence[str]) -> Tuple[int, str]:
    """``repro <argv>`` in this process; returns (exit code, output)."""
    import repro.cli

    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(out):
        code = repro.cli.main(list(argv))
    return code, out.getvalue()


class CampaignWorkload:
    """The shipped dataset command, cold into an empty cache, then warm."""

    name = "campaign"

    def __init__(self, seed: int, workdir: Path, root: Path):
        self.seed = seed
        self.workdir = workdir
        self.expected = {
            "csv": (root / "data" / "emr_campaign.csv").read_bytes(),
            "json": (root / "data" / "emr_campaign.json").read_bytes(),
        }
        self.tally = Tally()
        self.disk: Dict[str, int] = {}
        self.recorder: Optional[SpanRecorder] = None
        self.probe: Optional[SpeedProbe] = None

    def probe_setup(self) -> None:
        """Set-up a fresh process pays: build the campaign's cell grid."""
        from repro.core.melody import campaign_cells
        from repro.dist.spec import CampaignSpec

        campaign_cells(CampaignSpec(
            platform="EMR2S", targets=tuple(CAMPAIGN_ARGV[2:]), name="cli",
        ).build_campaign())

    def prepare(self) -> None:
        """Finish lazy imports with a small campaign, outside timing."""
        code, out = run_cli(list(CAMPAIGN_ARGV) + [
            "--sample", "53", "--cache-dir",
            new_dir(self.workdir, "warmup"),
        ])
        if code != 0:
            raise RuntimeError(f"warm-up campaign failed:\n{out}")

    def _cold(self, it: Iteration, cache_dir: str) -> int:
        """The cold pass; returns the number of cells computed."""
        from repro.runtime import get_engine

        with it.phase("cold"):
            code, out = run_cli(list(CAMPAIGN_ARGV)
                                + ["--cache-dir", cache_dir])
        stats = get_engine().stats
        self.tally.check(code == 0, f"cold campaign exited {code}")
        self.tally.check(stats.cells_quarantined == 0,
                         "quarantined cells", CAMPAIGN_CELLS)
        return stats.cells_run

    def _warm(self, it: Iteration, cache_dir: str) -> None:
        """Fresh-open reassembly and exports, as a second CLI call."""
        from repro.runtime import get_engine

        out_dir = Path(new_dir(self.workdir, "out"))
        csv_path = out_dir / "campaign.csv"
        json_path = out_dir / "campaign.json"
        with it.phase("warm"):
            code, out = run_cli(list(CAMPAIGN_ARGV) + [
                "--cache-dir", cache_dir,
                "--csv", str(csv_path), "--json", str(json_path),
            ])
        self.tally.check(code == 0, f"warm campaign exited {code}")
        self.tally.check(get_engine().stats.cells_run == 0,
                         "warm pass recomputed cells")
        for kind, path in (("csv", csv_path), ("json", json_path)):
            self.tally.check(
                path.read_bytes() == self.expected[kind],
                f"{kind} export differs from data/emr_campaign.{kind}",
            )

    def iteration(self) -> Iteration:
        """One cold pass and one warm pass into a fresh cache dir."""
        it = Iteration(self.recorder, self.probe)
        cache_dir = new_dir(self.workdir, "cache")
        cells = self._cold(it, cache_dir)
        self.tally.check(cells == CAMPAIGN_CELLS,
                         f"cold pass computed {cells} cells")
        for _ in range(WARM_PASSES):
            self._warm(it, cache_dir)
        self.disk = tier_bytes(cache_dir)
        it.add("cold_s", it.duration("cold"))
        it.add("warm_s", *it.durations("warm"))
        it.add("cells_per_s", cells / it.duration("cold"))
        return it

    def summarize(self, pooled: Dict[str, List[float]]) -> Dict[str, float]:
        """Medians of the pooled samples."""
        return {name: median(values) for name, values in pooled.items()}


class CampaignDistWorkload(CampaignWorkload):
    """The same campaign through a coordinator and one loopback worker."""

    name = "campaign_dist"

    def __init__(self, seed: int, workdir: Path, root: Path):
        super().__init__(seed, workdir, root)
        from repro.dist.spec import CampaignSpec

        self.spec = CampaignSpec(
            platform="EMR2S", targets=tuple(CAMPAIGN_ARGV[2:]), name="cli",
        )
        self.summary = None

    def probe_setup(self) -> None:
        """Build the grid, then start and stop a coordinator on it."""
        from repro.dist.coordinator import Coordinator

        super().probe_setup()
        coordinator = Coordinator(
            self.spec, cache_dir=new_dir(self.workdir, "probe")
        )
        coordinator.start()
        coordinator.stop()

    def prepare(self) -> None:
        """Warm the dist code paths on the harness's smoke campaign."""
        from repro.dist import harness

        super().prepare()
        outcome = harness.run_dist_campaign(
            new_dir(self.workdir, "warmup-dist"),
            workers=(harness.WorkerPlan(name="w0"),),
        )
        if not outcome.summary.complete:
            raise RuntimeError("warm-up dist campaign did not complete")

    def _cold(self, it: Iteration, cache_dir: str) -> int:
        from repro.dist import harness

        with it.phase("cold"):
            outcome = harness.run_dist_campaign(
                cache_dir, spec=self.spec,
                workers=(harness.WorkerPlan(name="w0"),),
            )
        summary = outcome.summary
        self.summary = summary
        self.tally.check(summary.complete, "dist campaign incomplete")
        self.tally.check(not summary.conflicts, "dist commit conflicts")
        self.tally.check(not summary.quarantined, "quarantined cells",
                         CAMPAIGN_CELLS)
        self.tally.check(summary.committed == CAMPAIGN_CELLS,
                         f"{summary.committed} units committed")
        return sum(worker.units_executed for worker in outcome.workers)

    def layer_extras(self) -> Dict[str, float]:
        """Lease counters of the last dist campaign."""
        summary = self.summary
        return {
            "dist.leases_granted": summary.counters.get("granted", 0),
            "dist.leases_expired": summary.expired,
            "dist.duplicate_commits": summary.duplicates,
        }


SIM_DEVICES = ("CXL-A", "CXL-B", "CXL-C", "CXL-D")
READ_FRACTIONS = (1.0, 0.7, 0.0)
LOADS_PER_DEVICE = 12
MIN_GBPS, MAX_GBPS = 1.0, 24.0
FAULT_LOADS_PER_DEVICE = 4
SIM_REQUESTS = 2000
QUERIES = 24
CHECK_SAMPLE = 6
FP_CLEAN = "b" * 32
FP_FAULT = "c" * 32


class SimgridWorkload:
    """Seeded event-simulation grid, store promotion, queries, warm read."""

    name = "simgrid"

    def __init__(self, seed: int, workdir: Path, root: Path):
        self.seed = seed
        self.workdir = workdir
        self.tally = Tally()
        self.disk: Dict[str, int] = {}
        self.recorder: Optional[SpanRecorder] = None
        self.probe: Optional[SpeedProbe] = None
        self.sim_outputs: Dict[str, float] = {}

    def probe_setup(self) -> None:
        """Input generation and the simulators' lazy set-up."""
        self.prepare()

    def prepare(self) -> None:
        """Generate the grid, fault plan and query series from the seed."""
        from repro.faults import FaultEpisode, FaultPlan, fault_injection
        from repro.runtime.executor import SimCell

        rng = random.Random(self.seed)
        sim_seed = rng.randrange(1, 2 ** 31)
        bin_gbps = (MAX_GBPS - MIN_GBPS) / LOADS_PER_DEVICE
        self.clean_cells = []
        self.fault_cells = []
        for device in SIM_DEVICES:
            # One load drawn in each of LOADS_PER_DEVICE equal bins: every
            # seed offers the same load profile, so the grid's cost does
            # not swing with the seed.
            loads = [round(MIN_GBPS + bin_gbps * (k + rng.random()), 3)
                     for k in range(LOADS_PER_DEVICE)]
            for load in loads:
                for fraction in READ_FRACTIONS:
                    self.clean_cells.append(SimCell(
                        device=device, n_requests=SIM_REQUESTS,
                        offered_gbps=load, read_fraction=fraction,
                        seed=sim_seed,
                    ))
            for load in rng.sample(loads, FAULT_LOADS_PER_DEVICE):
                self.fault_cells.append(SimCell(
                    device=device, n_requests=SIM_REQUESTS,
                    offered_gbps=load, seed=sim_seed,
                ))
        self.plan = FaultPlan(
            name="perfbench", seed=sim_seed,
            episodes=(
                FaultEpisode(kind="link_retry_storm",
                             start_ns=rng.uniform(0.0, 2e4),
                             duration_ns=2e4, retry_multiplier=100.0),
                FaultEpisode(kind="thermal_throttle",
                             start_ns=rng.uniform(0.0, 4e4),
                             duration_ns=3e4, temperature_c=97.0),
                FaultEpisode(kind="ecc", duration_ns=1e9,
                             ecc_single_prob=1e-3),
            ),
        )
        self.clean_keys = [cell.key() for cell in self.clean_cells]
        with fault_injection(self.plan):
            self.fault_keys = [cell.key() for cell in self.fault_cells]
        self.loads = {
            key: (cell.device, cell.offered_gbps)
            for key, cell in zip(self.clean_keys + self.fault_keys,
                                 self.clean_cells + self.fault_cells)
        }
        self.queries = []
        for _ in range(QUERIES):
            lo = round(rng.uniform(1.0, 20.0), 3)
            self.queries.append({
                "kind": "eventsim",
                "device": rng.choice(SIM_DEVICES + (None,)),
                "min_gbps": lo,
                "max_gbps": round(lo + rng.uniform(2.0, 12.0), 3),
                "percentiles": (50.0, 99.0, 99.9),
            })
        self.check_rng = random.Random(rng.random())
        # Lazy set-up (simulator construction, kernel scratch) before timing.
        from repro.runtime.cache import RunCache
        from repro.runtime.executor import CampaignEngine

        CampaignEngine(cache=RunCache()).run_cells(
            self.clean_cells[::LOADS_PER_DEVICE]
        )

    def iteration(self) -> Iteration:
        """Cold grid into an empty cache dir, promote, query, warm read."""
        from repro.faults import fault_injection
        from repro.runtime.cache import RunCache
        from repro.runtime.executor import CampaignEngine

        it = Iteration(self.recorder, self.probe)
        cache_dir = new_dir(self.workdir, "simgrid")
        engine = CampaignEngine(cache=RunCache(cache_dir))
        with it.phase("cold"):
            clean = engine.run_cells(self.clean_cells)
            with fault_injection(self.plan):
                faulted = engine.run_cells(self.fault_cells)
            engine.cache.promote_store(FP_CLEAN, keys=self.clean_keys)
            with fault_injection(self.plan):
                engine.cache.promote_store(FP_FAULT, keys=self.fault_keys)
        results = dict(zip(self.clean_keys + self.fault_keys,
                           clean + faulted))
        store = engine.cache.store
        rows_of = []
        query_ms = []
        with it.phase("query"):
            for query in self.queries:
                start = time.perf_counter()
                rows = store.query_rows(**query)
                query_ms.append((time.perf_counter() - start) * 1e3)
                rows_of.append(rows)
        keys = list(results)
        for _ in range(WARM_PASSES + 1):
            warm = RunCache(cache_dir)
            with it.phase("warm"):
                opened = len(warm.store)
                recalled = [warm.get(key) for key in keys]
        self._check(results, rows_of, recalled, opened, cache_dir)
        if not self.sim_outputs:
            self.sim_outputs = _sim_outputs(clean, faulted)
        self.disk = tier_bytes(cache_dir)
        cells = len(keys)
        cold_s = it.duration("cold")
        it.add("cold_s", cold_s)
        it.add("warm_s", *it.durations("warm"))
        it.add("cells_per_s", cells / cold_s)
        it.add("sim_mreq_per_s", cells * SIM_REQUESTS / cold_s / 1e6)
        it.add("query_ms", *query_ms)
        return it

    def _check(self, results, rows_of, recalled, opened, cache_dir) -> None:
        """Identity checks, outside the timed phases."""
        from repro.faults import fault_injection
        from repro.runtime.cache import RunCache
        from repro.runtime.executor import CampaignEngine
        from repro.store import ResultStore, canonical_document

        tally = self.tally
        tally.check(all(r is not None for r in results.values()),
                    "cold cells missing", len(results))
        tally.check(opened == len(results),
                    f"store holds {opened} of {len(results)} cells")
        tally.check(all(r is not None for r in recalled),
                    "warm read missed cells", len(recalled))
        for query, rows in zip(self.queries, rows_of):
            expected = sorted(
                key for key, (device, load) in self.loads.items()
                if query["device"] in (None, device)
                and query["min_gbps"] <= load <= query["max_gbps"]
            )
            ok = sorted(row["key"] for row in rows) == expected
            for row in rows:
                result = results[row["key"]]
                for p in query["percentiles"]:
                    ok = ok and row[f"p{p:g}_ns"] == result.percentile(p)
            tally.check(ok, f"query rows wrong for {query}")
        sample = self.check_rng.sample(range(len(self.clean_cells)),
                                       CHECK_SAMPLE)
        cells = [self.clean_cells[i] for i in sample]
        serial = CampaignEngine(cache=RunCache(), mode="serial")
        for cell, result in zip(cells, serial.run_cells(cells)):
            tally.check(_same_result(result, results[cell.key()]),
                        f"serial and batch differ on {cell}")
        faulted = self.fault_cells[:2]
        with fault_injection(self.plan):
            keys = [cell.key() for cell in faulted]
            runs = CampaignEngine(cache=RunCache(), mode="serial") \
                .run_cells(faulted)
        for key, result in zip(keys, runs):
            tally.check(_same_result(result, results[key]),
                        f"serial and batch differ on faulted {key}")
        store = ResultStore(Path(cache_dir) / "store")
        json_tier = RunCache(cache_dir, store_tier=False)
        for key in [self.clean_keys[i] for i in sample] + keys:
            tally.check(
                canonical_document(store.get(key))
                == canonical_document(json_tier.get(key).to_dict()),
                f"store and JSON tiers differ on {key}",
            )

    def summarize(self, pooled: Dict[str, List[float]]) -> Dict[str, float]:
        """Medians, the query median and the simulated outputs."""
        out = {
            name: median(values) for name, values in pooled.items()
            if name != "query_ms"
        }
        out["query_p50_ms"] = median(pooled["query_ms"])
        out["query_samples"] = len(pooled["query_ms"])
        out.update(self.sim_outputs)
        return out


def _same_result(one, other) -> bool:
    """Bit-identical simulation outputs (the engine name may differ)."""
    first, second = one.to_dict(), other.to_dict()
    first.pop("engine")
    second.pop("engine")
    return first == second


def _sim_outputs(clean, faulted) -> Dict[str, float]:
    """Simulated statistics; they repeat exactly for one seed."""
    import numpy as np

    out: Dict[str, float] = {}
    for device in SIM_DEVICES:
        latencies = np.concatenate([
            r.latencies_ns for r in clean if r.device == device
        ])
        out[f"sim.p50_ns.{device}"] = float(np.percentile(latencies, 50))
        out[f"sim.p999_ns.{device}"] = float(np.percentile(latencies, 99.9))
    everything = list(clean) + list(faulted)
    out["sim.bank_conflicts"] = sum(r.bank_conflicts for r in everything)
    out["sim.link_retries"] = sum(r.link_retries for r in everything)
    return out
