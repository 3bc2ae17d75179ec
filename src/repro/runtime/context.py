"""The process-wide default engine.

Campaign users (Melody, the experiment drivers, the CLI) share one
:class:`~repro.runtime.executor.CampaignEngine` per process so that runs
memoize *across* experiments: the Figure 8a device campaign populates the
cache that Figures 11/12/14/15 then read.

The default engine is memory-only.  ``configure_runtime`` replaces it
(the CLI calls this for ``--cache-dir`` and the resilience flags); the
``REPRO_CACHE_DIR`` environment variable seeds the default for embedders
that never touch the CLI.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.runtime.cache import RunCache
from repro.runtime.executor import CampaignEngine, EngineStats, RetryPolicy

_engine: Optional[CampaignEngine] = None


def get_engine() -> CampaignEngine:
    """The shared engine, created on first use."""
    global _engine
    if _engine is None:
        cache_dir = os.environ.get("REPRO_CACHE_DIR") or None
        _engine = CampaignEngine(cache=RunCache(cache_dir))
    return _engine


def configure_runtime(
    cache_dir: Optional[str] = None,
    policy: Optional["RetryPolicy"] = None,
) -> CampaignEngine:
    """Replace the shared engine with one using the given settings.

    A ``cache_dir`` left as ``None`` keeps the current engine's;
    ``policy`` always takes the given value (passing ``None`` returns to
    fail-fast execution).  The in-memory cache always starts fresh (the
    disk tier, if any, persists).
    """
    global _engine
    current = get_engine()
    _engine = CampaignEngine(
        cache=RunCache(cache_dir if cache_dir is not None
                       else (str(current.cache.cache_dir)
                             if current.cache.cache_dir else None)),
        policy=policy,
    )
    return _engine


def reset_runtime() -> None:
    """Forget the shared engine (tests use this for isolation)."""
    global _engine
    _engine = None


def runtime_stats() -> EngineStats:
    """Statistics of the shared engine."""
    return get_engine().stats
