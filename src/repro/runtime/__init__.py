"""The campaign execution runtime: memoized cell execution.

Every (workload, platform, target, config) *cell* a campaign or experiment
wants to run is routed through a process-wide :class:`CampaignEngine`,
which consults a content-addressed :class:`RunCache` (in-memory tier shared
across all experiments of one process, optional on-disk tier shared across
processes) and runs uncached cells serially or as fused batches.  Fanning
a campaign out over processes is the lease coordinator's job
(:mod:`repro.dist`).

Runs are bit-deterministic -- the pipeline derives every RNG from stable
string keys (:mod:`repro.rng`) -- so memoization and distribution are both
safe: a cached or worker-computed :class:`~repro.cpu.pipeline.RunResult`
is bit-identical to the one a fresh serial call would produce.
"""

from repro.runtime.cache import RunCache, run_key
from repro.runtime.checkpoint import (
    Checkpointer,
    CheckpointState,
    campaign_fingerprint,
    load_checkpoint,
)
from repro.runtime.context import (
    configure_runtime,
    get_engine,
    reset_runtime,
    runtime_stats,
)
from repro.runtime.executor import (
    ENGINE_MODES,
    CampaignEngine,
    Cell,
    EngineStats,
    ExecutionPlan,
    ExecutionPlanner,
    FailedCell,
    PlannerCosts,
    RetryPolicy,
    SimCell,
)
from repro.runtime.serialize import (
    run_result_from_dict,
    run_result_to_dict,
)

__all__ = [
    "CampaignEngine",
    "Cell",
    "Checkpointer",
    "CheckpointState",
    "ENGINE_MODES",
    "EngineStats",
    "ExecutionPlan",
    "ExecutionPlanner",
    "FailedCell",
    "PlannerCosts",
    "RetryPolicy",
    "RunCache",
    "SimCell",
    "campaign_fingerprint",
    "configure_runtime",
    "get_engine",
    "load_checkpoint",
    "reset_runtime",
    "run_key",
    "run_result_from_dict",
    "run_result_to_dict",
    "runtime_stats",
]
