"""Seeded chaos: sabotage campaign cells and the dist wire, deterministically.

Where :mod:`repro.faults.plan` injects *device* faults into the simulated
timeline, this module injects *host* faults into the campaign runtime,
in two flavors that share one decision rule:

* :class:`ChaosPolicy` sabotages campaign **cells**: worker processes
  that die mid-cell (SIGKILL-style ``os._exit``), cells that raise, and
  cells that hang.  The resilient engine retries and quarantines raised
  errors in-process; kills and hangs are survived by the lease
  coordinator (:mod:`repro.dist`), which charges the lost attempt when
  the worker's connection drops or its lease expires -- a
  :class:`~repro.dist.fleet.Fleet` kills its worker that overruns a
  lease -- and hands the unit to a live or replacement worker.
* :class:`NetChaosPolicy` sabotages the **wire** between a dist worker
  and its coordinator: connections that drop before a send, latency
  spikes, and writes that stall halfway through a frame (then either
  complete or take the connection down).

Every decision is one seeded uniform draw split across the action
probabilities (:func:`_split_draw`), keyed by ``(seed, cell key,
attempt)`` for cells and ``(seed, stream, frame index)`` for frames.  A
cell killed on attempt 1 is killed again on every replay of attempt 1,
while its attempt 2 draws fresh, and ``max_sabotaged_attempt`` bounds
how deep the sabotage reaches, so a campaign terminates.  Keys listed in
``doomed`` fail every attempt: they exercise the quarantine path end to
end.  ``stream`` names one connection attempt (worker name + reconnect
count), so a replayed campaign sabotages byte-for-byte the same sends.

Net chaos never *silently* loses a frame: ``drop`` and the dropping half
of ``partial`` kill the whole connection (the peer sees EOF or a
truncated frame; leases release; the worker reconnects), while
``delay`` and a completing ``partial`` keep every frame alive.  Nor does
it duplicate or reorder one, which TCP never does within a connection;
redelivery across reconnects is absorbed by the at-most-once commit.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

from repro.errors import MelodyError
from repro.rng import generator_for

NET_ACTIONS = ("drop", "delay", "partial", "none")
"""Everything :meth:`NetChaosPolicy.action` can decide for one frame."""


def _check_probabilities(what: str, probs: Sequence[float]) -> None:
    """Action probabilities must be non-negative and sum to at most 1."""
    if min(probs) < 0 or sum(probs) > 1.0:
        raise MelodyError(
            f"{what} probabilities must be >= 0 and sum to <= 1"
        )


def _split_draw(
    seed: int, key: Sequence[str], actions: Sequence[Tuple[str, float]]
) -> str:
    """Split one seeded uniform draw across ``(action, probability)``.

    The probabilities partition [0, 1) in order; a draw past their sum
    is ``"none"``.
    """
    r = generator_for(seed, *key).random()
    threshold = 0.0
    for name, prob in actions:
        threshold += prob
        if r < threshold:
            return name
    return "none"


class ChaosError(MelodyError):
    """The injected cell failure (raised inside sabotaged workers)."""


@dataclass(frozen=True)
class ChaosPolicy:
    """Seeded sabotage schedule for campaign cell execution.

    ``kill_prob``/``hang_prob``/``error_prob`` partition a single uniform
    draw per (cell, attempt); a hang sleeps ``hang_s`` (long enough to
    overrun a short lease, short enough to terminate without one).
    """

    kill_prob: float = 0.0
    hang_prob: float = 0.0
    error_prob: float = 0.0
    hang_s: float = 30.0
    max_sabotaged_attempt: int = 1
    doomed: Tuple[str, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        _check_probabilities(
            "chaos", (self.kill_prob, self.hang_prob, self.error_prob)
        )
        if self.hang_s <= 0:
            raise MelodyError("hang_s must be positive")
        if self.max_sabotaged_attempt < 0:
            raise MelodyError("max_sabotaged_attempt must be >= 0")

    def action(self, cell_key: str, attempt: int) -> str:
        """The sabotage for one (cell, attempt): kill/hang/error/none."""
        if cell_key in self.doomed:
            return "error"
        if attempt > self.max_sabotaged_attempt:
            return "none"
        return _split_draw(
            self.seed, ("chaos", cell_key, str(attempt)),
            (("kill", self.kill_prob), ("hang", self.hang_prob),
             ("error", self.error_prob)),
        )

    def apply(self, cell_key: str, attempt: int) -> None:
        """Execute the sabotage inside a worker (call before the run)."""
        action = self.action(cell_key, attempt)
        if action == "kill":
            # SIGKILL semantics: no exception, no cleanup, no result.
            os._exit(17)
        if action == "hang":
            time.sleep(self.hang_s)
        elif action == "error":
            raise ChaosError(
                f"injected failure (cell {cell_key[:12]}, "
                f"attempt {attempt})"
            )


@dataclass(frozen=True)
class NetChaosPolicy:
    """Seeded per-frame sabotage schedule for one worker's connections."""

    drop_prob: float = 0.0
    delay_prob: float = 0.0
    partial_prob: float = 0.0
    delay_s: float = 0.02
    seed: int = 0

    def __post_init__(self) -> None:
        _check_probabilities("net chaos", (
            self.drop_prob, self.delay_prob, self.partial_prob,
        ))
        if self.delay_s < 0:
            raise MelodyError("delay_s must be >= 0")

    @classmethod
    def from_seed(cls, seed: int) -> "NetChaosPolicy":
        """The standard drill mix (the CLI's ``--net-chaos SEED``).

        Latency spikes and stalled writes with a real but modest rate
        of connection loss, so a drilled campaign exercises reconnection
        and lease recovery without spending most of its wall time
        reconnecting.
        """
        return cls(
            drop_prob=0.04,
            delay_prob=0.08,
            partial_prob=0.06,
            seed=seed,
        )

    def action(self, stream: str, index: int) -> str:
        """The sabotage for frame ``index`` of connection ``stream``."""
        return _split_draw(
            self.seed, ("netchaos", stream, str(index)),
            (("drop", self.drop_prob), ("delay", self.delay_prob),
             ("partial", self.partial_prob)),
        )

    def partial_completes(self, stream: str, index: int) -> bool:
        """Whether a partial write finishes (vs dropping the link).

        A separate keyed draw so the completion choice does not perturb
        the action sequence of later frames.
        """
        return generator_for(
            self.seed, "netchaos-partial", stream, str(index)
        ).random() < 0.5


# -- installation (context-scoped) -----------------------------------------
#
# Like the fault plan, the active chaos policy is a ContextVar so that
# concurrent server jobs can sabotage their own cells (the smoke tests'
# "poisoned query") without dooming anybody else's.

_ACTIVE: ContextVar[Optional[ChaosPolicy]] = ContextVar(
    "repro_chaos_policy", default=None
)


def install_chaos(policy: ChaosPolicy) -> ChaosPolicy:
    """Install ``policy`` for the current context; returns it."""
    _ACTIVE.set(policy)
    return policy


def active_chaos() -> Optional[ChaosPolicy]:
    """The installed policy, or ``None`` (no sabotage)."""
    return _ACTIVE.get()


def clear_chaos() -> None:
    """Remove the installed policy."""
    _ACTIVE.set(None)


@contextmanager
def chaos_injection(
    policy: Optional[ChaosPolicy],
) -> Iterator[Optional[ChaosPolicy]]:
    """Scope a chaos policy (or none) to a block, restoring the previous."""
    token = _ACTIVE.set(policy)
    try:
        yield policy
    finally:
        _ACTIVE.reset(token)
