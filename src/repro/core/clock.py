"""The live service's clocks.

Everything in the Jockey control loop is expressed in *virtual seconds* —
the time base of the job profiles, deadlines, and C(p, a) tables.  In
batch simulation virtual time is :attr:`Simulator.now`; in live service
mode it is wall time divided by a compression factor, so a profile whose
tasks take tens of virtual seconds can be replayed against real worker
processes in milliseconds without retraining the model.

* :class:`WallClock` — monotonic wall time mapped into virtual seconds
  through ``time_scale`` (wall seconds per virtual second).
* :class:`ManualClock` — a settable clock for deterministic tests.

Only :class:`~repro.service.server.ClusterService` reads one (as
``ClusterService.now()``).  The controller reads no clock: the caller
tells it the job's elapsed time on every decision.
"""

from __future__ import annotations

import math
import time


class ClockError(ValueError):
    """Raised for invalid clock configuration."""


class WallClock:
    """Monotonic wall clock mapped into virtual seconds.

    ``time_scale`` is wall seconds per virtual second: 1.0 runs in real
    time, 0.01 replays a profile 100x faster than it was recorded.  The
    epoch is captured at construction, so a fresh ``WallClock`` reads
    ~0.0 and only ever moves forward.
    """

    def __init__(self, *, time_scale: float = 1.0):
        if not 0 < time_scale < math.inf:
            raise ClockError(f"time_scale must be positive and finite, got {time_scale!r}")
        self.time_scale = float(time_scale)
        self._epoch = time.monotonic()

    def now(self) -> float:
        return (time.monotonic() - self._epoch) / self.time_scale


class ManualClock:
    """A clock tests drive by hand."""

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> float:
        if seconds < 0:
            raise ClockError("manual clocks only move forward")
        self._now += seconds
        return self._now

    def set(self, now: float) -> None:
        if now < self._now:
            raise ClockError("manual clocks only move forward")
        self._now = float(now)


__all__ = [
    "ClockError",
    "ManualClock",
    "WallClock",
]
