"""Machine-speed sampling: turns host seconds into normalized seconds.

A host that shares its CPUs drifts in speed.  On a shared 2-CPU x86
virtual machine each vCPU was measured switching, every few seconds and
independently of the other, between two states 1.7x apart in speed, for
Python loops, JSON encoding and NumPy kernels alike.  No repetition inside
a 15-second run averages that out, so the end-to-end times are normalized.
While a :class:`SpeedProbe` is active, a timer signal every ``INTERVAL_S``
makes the main thread time a fixed tick of work (``_tick``); a timed
phase (or one ``serve`` request) then reports

    normalized seconds = host seconds x mean(TICK_NOMINAL_S / tick seconds)

over the ticks taken while it ran -- its time on a machine where one tick
takes ``TICK_NOMINAL_S``.  The mean of the inverse weights each tick by the
speed it saw, so a tick stretched by a context switch barely counts.  A
slower library moves the phases and not the ticks; a slower machine moves
both.  The ticks cost about 1% of the phase time, which the normalized
times include.
"""

from __future__ import annotations

import bisect
import json
import signal
import time
from typing import List

TICK_NOMINAL_S = 0.00035
"""Tick duration that defines one normalized second (roughly the tick's
host time on a 2-CPU x86 virtual machine in its fast state)."""
INTERVAL_S = 0.05
PAD_S = 0.25
"""Ticks this long before a phase also count, so that a phase shorter
than the interval still has some."""


def _tick() -> int:
    text = json.dumps([i * 1.000001 for i in range(300)])
    values = json.loads(text)
    total = 0
    for i in range(2500):
        total += i ^ 7
    return total + len(sorted(values, reverse=True))


class SpeedProbe:
    """Times ``_tick`` every ``INTERVAL_S`` while active (main thread only).

    The handler is installed with ``SA_RESTART`` semantics, so the timer
    signal interrupts no system call of the library under test.
    """

    def __init__(self) -> None:
        self.stamps: List[float] = []
        self.ticks: List[float] = []
        self._previous = None

    def _on_timer(self, signum, frame) -> None:
        start = time.perf_counter()
        _tick()
        self.stamps.append(start)
        self.ticks.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        _tick()  # the first call pays one-time allocation
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start: float, end: float) -> float:
        """Normalized seconds per host second over ``[start - PAD_S, end]``.

        Falls back to the latest earlier tick when none lies in the span.
        """
        lo = bisect.bisect_left(self.stamps, start - PAD_S)
        hi = bisect.bisect_right(self.stamps, end)
        ticks = self.ticks[lo:hi] or self.ticks[max(hi - 1, 0):hi]
        if not ticks:
            raise RuntimeError("no speed sample before the phase ended")
        return sum(TICK_NOMINAL_S / tick for tick in ticks) / len(ticks)
