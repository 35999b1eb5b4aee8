"""Task-level background workload: real jobs instead of a demand process.

The default :class:`~repro.cluster.background.BackgroundLoad` models the
rest of the cluster as an aggregate demand process — cheap enough for
hundreds of experiments.  For higher-fidelity studies (and as evidence the
substrate is not a shortcut), this module populates the cluster with
*actual* jobs: Poisson arrivals of bag-of-task work, each admitted as its
own token-pool consumer with a guaranteed share, executing tasks with
sampled durations, competing for spare tokens and being evicted like any
other job.

Use it by constructing the cluster with ``background_guaranteed=0`` (to
disable the demand process) and attaching::

    workload = WorkloadBackground(sim, cluster.pool, rng,
                                  config=WorkloadBackgroundConfig())

The aggregate behaviour approximates the demand process defaults: ~300
guaranteed tokens' worth of jobs, oversubscribed demand, bursty lulls when
arrivals thin out.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.cluster.tokens import Consumer, Grant, TokenPool
from repro.simkit.events import EventHandle, Simulator


class WorkloadBackgroundError(ValueError):
    """Raised for invalid workload-background configuration."""


@dataclass(frozen=True)
class WorkloadBackgroundConfig:
    """Knobs for the task-level background job stream."""

    #: Mean seconds between job arrivals.
    interarrival_seconds: float = 120.0
    #: Tasks per job: lognormal around this median.
    tasks_median: int = 150
    tasks_sigma: float = 0.9
    #: Task duration: lognormal (median seconds, sigma).
    task_median_seconds: float = 45.0
    task_sigma: float = 0.8
    #: Guaranteed tokens per job, uniform in this range (clamped by the
    #: pool's remaining headroom at admission time).
    guaranteed_range: tuple = (10, 50)
    #: Leave at least this many guaranteed tokens unreserved for SLO jobs.
    reserve_headroom: int = 100

    def __post_init__(self):
        if self.interarrival_seconds <= 0:
            raise WorkloadBackgroundError("interarrival must be positive")
        if self.tasks_median < 1:
            raise WorkloadBackgroundError("tasks_median must be >= 1")
        if self.task_median_seconds <= 0:
            raise WorkloadBackgroundError("task_median must be positive")
        lo, hi = self.guaranteed_range
        if not 0 <= lo <= hi:
            raise WorkloadBackgroundError("bad guaranteed_range")
        if self.reserve_headroom < 0:
            raise WorkloadBackgroundError("reserve_headroom must be >= 0")


class _BackgroundJob:
    """One bag-of-tasks job run through the token pool."""

    _ids = itertools.count()

    def __init__(
        self,
        sim: Simulator,
        pool: TokenPool,
        rng: np.random.Generator,
        config: WorkloadBackgroundConfig,
        on_done,
    ):
        self.sim = sim
        self.pool = pool
        self.rng = rng
        self.config = config
        self.on_done = on_done
        self.name = f"bg-job-{next(self._ids)}"
        self.pending = int(
            max(1, rng.lognormal(math.log(config.tasks_median), config.tasks_sigma))
        )
        self.running: List[EventHandle] = []
        lo, hi = config.guaranteed_range
        want = int(rng.integers(lo, hi + 1))
        headroom = max(0, pool.guaranteed_headroom() - config.reserve_headroom)
        self.consumer = pool.register(
            Consumer(self.name, min(want, headroom), on_grant=self._on_grant)
        )
        self._update_demand()

    @property
    def tasks_in_flight(self) -> int:
        return len(self.running)

    def _update_demand(self) -> None:
        self.pool.set_demand(self.name, self.pending + len(self.running))

    def _on_grant(self, grant: Grant) -> None:
        # Eviction: drop the newest tasks; their work is re-queued.
        while len(self.running) > grant.total:
            handle = self.running.pop()
            handle.cancel()
            self.pending += 1
        while self.pending > 0 and len(self.running) < grant.total:
            self._start_task()

    def _start_task(self) -> None:
        self.pending -= 1
        duration = float(
            self.rng.lognormal(
                math.log(self.config.task_median_seconds), self.config.task_sigma
            )
        )
        # The payload is the handle itself; handle.arg is read at fire time,
        # so assigning it right after scheduling closes the loop without a
        # per-task closure (or the old one-element slot list).
        handle = self.sim.schedule(duration, self._task_done)
        handle.arg = handle
        self.running.append(handle)

    def _task_done(self, handle: Optional[EventHandle]) -> None:
        if handle in self.running:
            self.running.remove(handle)
        if self.pending == 0 and not self.running:
            self.pool.unregister(self.name)
            self.on_done(self)
            return
        self._update_demand()
        self._on_grant(self.consumer.grant)


class WorkloadBackground:
    """Poisson stream of background jobs through the shared token pool."""

    def __init__(
        self,
        sim: Simulator,
        pool: TokenPool,
        rng: np.random.Generator,
        *,
        config: WorkloadBackgroundConfig = WorkloadBackgroundConfig(),
        warm_start_jobs: int = 6,
    ):
        self.sim = sim
        self.pool = pool
        self.rng = rng
        self.config = config
        self.active: List[_BackgroundJob] = []
        self.jobs_started = 0
        self.jobs_finished = 0
        for _ in range(warm_start_jobs):
            self._launch()
        self._schedule_arrival()

    def _schedule_arrival(self) -> None:
        delay = float(self.rng.exponential(self.config.interarrival_seconds))
        self.sim.call_after(max(delay, 1.0), self._arrive)

    def _arrive(self) -> None:
        self._launch()
        self._schedule_arrival()

    def _launch(self) -> None:
        job = _BackgroundJob(
            self.sim, self.pool, self.rng, self.config, self._job_done
        )
        self.active.append(job)
        self.jobs_started += 1

    def _job_done(self, job: _BackgroundJob) -> None:
        self.active.remove(job)
        self.jobs_finished += 1

    @property
    def tasks_in_flight(self) -> int:
        return sum(job.tasks_in_flight for job in self.active)


__all__ = [
    "WorkloadBackground",
    "WorkloadBackgroundConfig",
    "WorkloadBackgroundError",
]
