"""Deterministic, content-addressable CXL RAS fault plans.

The paper's scale argument cuts both ways: hundreds of devices mean the
campaign *will* observe RAS events -- link CRC retry storms, transient
device dropouts (hot-remove returning poisoned reads), memory-controller
thermal-throttle windows, and ECC single/multi-bit events.  This module
describes those events as **pure data**: a :class:`FaultPlan` is a named,
seeded set of :class:`FaultEpisode` windows on the simulated timeline.

Design rules (enforced across the subsystem):

* A plan is *content-addressable*: :meth:`FaultPlan.key` hashes the
  canonical JSON of its behaviour-determining fields (episodes + seed,
  not the display name), so the run cache can key on it and two runs
  under the same plan collapse onto one cache entry.
* A plan with **no episodes is disabled** and must be indistinguishable
  from no plan at all -- same RNG draws, same cache keys, byte-identical
  results (the ``faults`` diag layer enforces this).
* All fault randomness comes from a *separate* RNG stream keyed by the
  plan, never from the simulator's own stream, so installing a plan can
  never perturb the fault-free draws.

Plans install process-wide (mirroring :mod:`repro.obs`): the event-driven
simulator consults :func:`active_fault_plan` on every run, and the
:func:`fault_injection` context manager scopes a plan to a block.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.rng import DEFAULT_SEED

EPISODE_KINDS = (
    "link_retry_storm",
    "device_dropout",
    "thermal_throttle",
    "ecc",
)
"""Fault mechanisms a :class:`FaultEpisode` can schedule."""


@dataclass(frozen=True)
class FaultEpisode:
    """One scheduled fault window on the simulated timeline.

    ``start_ns``/``duration_ns`` bound the window in *arrival* time;
    requests arriving inside it are exposed to the episode's mechanism.
    Kind-specific knobs (only the ones matching ``kind`` matter):

    * ``link_retry_storm`` -- ``retry_multiplier`` scales the link's
      per-flit CRC-failure probability (a burst of marginal-signal CRC
      errors); retries flow through the existing retry accounting, so
      both engines and all counters see them identically.
    * ``thermal_throttle`` -- ``temperature_c`` drives the MC's thermal
      model; bank service inside the window is derated by the same
      multiplier the analytic queue model uses.
    * ``device_dropout`` -- the device stops answering; reads in the
      window complete at ``dropout_latency_ns`` (the host's poisoned-
      completion path) instead of their simulated latency.
    * ``ecc`` -- per-request single-bit corrections (adding
      ``ecc_correction_ns``) and multi-bit events (counted as poisoned
      reads) at the given probabilities.
    """

    kind: str
    start_ns: float = 0.0
    duration_ns: float = 1e6
    retry_multiplier: float = 200.0
    temperature_c: float = 95.0
    dropout_latency_ns: float = 350.0
    ecc_single_prob: float = 1e-4
    ecc_multi_prob: float = 0.0
    ecc_correction_ns: float = 60.0

    def __post_init__(self) -> None:
        if self.kind not in EPISODE_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {EPISODE_KINDS}"
            )
        if self.start_ns < 0:
            raise ConfigurationError("episode start must be >= 0")
        if self.duration_ns <= 0:
            raise ConfigurationError("episode duration must be positive")
        if self.retry_multiplier <= 0:
            raise ConfigurationError("retry multiplier must be positive")
        if self.dropout_latency_ns <= 0:
            raise ConfigurationError("dropout latency must be positive")
        if not 0.0 <= self.ecc_single_prob <= 1.0:
            raise ConfigurationError("ecc_single_prob must be in [0, 1]")
        if not 0.0 <= self.ecc_multi_prob <= 1.0:
            raise ConfigurationError("ecc_multi_prob must be in [0, 1]")
        if self.ecc_correction_ns < 0:
            raise ConfigurationError("ecc_correction_ns must be >= 0")

    @property
    def end_ns(self) -> float:
        """Exclusive end of the window."""
        return self.start_ns + self.duration_ns

    def window_mask(self, arrivals_ns: np.ndarray) -> np.ndarray:
        """Boolean mask of requests arriving inside the window."""
        return (arrivals_ns >= self.start_ns) & (arrivals_ns < self.end_ns)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation."""
        return {
            "kind": self.kind,
            "start_ns": self.start_ns,
            "duration_ns": self.duration_ns,
            "retry_multiplier": self.retry_multiplier,
            "temperature_c": self.temperature_c,
            "dropout_latency_ns": self.dropout_latency_ns,
            "ecc_single_prob": self.ecc_single_prob,
            "ecc_multi_prob": self.ecc_multi_prob,
            "ecc_correction_ns": self.ecc_correction_ns,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultEpisode":
        """Inverse of :meth:`to_dict`; rejects unknown fields."""
        known = {
            "kind", "start_ns", "duration_ns", "retry_multiplier",
            "temperature_c", "dropout_latency_ns", "ecc_single_prob",
            "ecc_multi_prob", "ecc_correction_ns",
        }
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown fault episode field(s): {sorted(unknown)}"
            )
        return cls(**data)


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded schedule of fault episodes (pure data).

    The display ``name`` is excluded from :meth:`key`: two plans with the
    same episodes and seed inject byte-identical faults, so they share
    cache entries regardless of what a campaign calls them.
    """

    name: str
    episodes: Tuple[FaultEpisode, ...] = ()
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("fault plan needs a name")
        object.__setattr__(self, "episodes", tuple(self.episodes))
        for episode in self.episodes:
            if not isinstance(episode, FaultEpisode):
                raise ConfigurationError(
                    f"plan episodes must be FaultEpisode, got {episode!r}"
                )

    @property
    def enabled(self) -> bool:
        """A plan without episodes injects nothing and keys nothing."""
        return bool(self.episodes)

    def key(self) -> str:
        """Content hash of the behaviour-determining fields."""
        payload = {
            "seed": self.seed,
            "episodes": [e.to_dict() for e in self.episodes],
        }
        text = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]

    def episodes_of(self, kind: str) -> Tuple[FaultEpisode, ...]:
        """The plan's episodes of one kind, in schedule order."""
        return tuple(e for e in self.episodes if e.kind == kind)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation (round-trips through ``from_dict``)."""
        return {
            "name": self.name,
            "seed": self.seed,
            "episodes": [e.to_dict() for e in self.episodes],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultPlan":
        """Inverse of :meth:`to_dict`."""
        if not isinstance(data, dict):
            raise ConfigurationError("fault plan document must be an object")
        episodes = data.get("episodes", [])
        if not isinstance(episodes, list):
            raise ConfigurationError("plan 'episodes' must be a list")
        return cls(
            name=str(data.get("name", "")),
            seed=int(data.get("seed", DEFAULT_SEED)),
            episodes=tuple(FaultEpisode.from_dict(e) for e in episodes),
        )


def load_plan(path: str) -> FaultPlan:
    """Load a :class:`FaultPlan` from a JSON file."""
    try:
        with open(path, "r") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigurationError(f"cannot read fault plan {path!r}: {exc}")
    except ValueError as exc:
        raise ConfigurationError(f"fault plan {path!r} is not JSON: {exc}")
    return FaultPlan.from_dict(data)


def retry_storm_plan(
    start_ns: float,
    duration_ns: float,
    multiplier: float = 200.0,
    name: str = "retry-storm",
    seed: int = DEFAULT_SEED,
) -> FaultPlan:
    """A one-episode CRC retry-storm plan (the common case)."""
    return FaultPlan(
        name=name,
        seed=seed,
        episodes=(
            FaultEpisode(
                kind="link_retry_storm",
                start_ns=start_ns,
                duration_ns=duration_ns,
                retry_multiplier=multiplier,
            ),
        ),
    )


# -- installation (context-scoped; mirrors repro.obs) ----------------------
#
# The active plan lives in a ContextVar, not a module global: each thread
# (and asyncio task) sees its own installation, so concurrent ``repro
# serve`` jobs can run different fault plans without racing -- a race
# here would silently mis-key cache entries.  Single-threaded CLI flows
# are unchanged (install and execution share one context), and forked
# isolated cell attempts inherit the forking thread's context with the
# process image, exactly as they inherited the old global.

_ACTIVE: ContextVar[Optional[FaultPlan]] = ContextVar(
    "repro_fault_plan", default=None
)


def install_fault_plan(plan: FaultPlan) -> FaultPlan:
    """Install ``plan`` for the current context; returns it for chaining."""
    if not isinstance(plan, FaultPlan):
        raise ConfigurationError(f"expected a FaultPlan, got {plan!r}")
    _ACTIVE.set(plan)
    return plan


def active_fault_plan() -> Optional[FaultPlan]:
    """The installed plan, or ``None`` (faults disabled)."""
    return _ACTIVE.get()


def clear_fault_plan() -> None:
    """Remove the installed plan (back to fault-free)."""
    _ACTIVE.set(None)


@contextmanager
def fault_injection(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Scope a fault plan to a block, restoring the previous one after."""
    if not isinstance(plan, FaultPlan):
        raise ConfigurationError(f"expected a FaultPlan, got {plan!r}")
    token = _ACTIVE.set(plan)
    try:
        yield plan
    finally:
        _ACTIVE.reset(token)
