"""Background cluster load.

The paper attributes most job-latency variance to the *other* work in the
shared cluster: spare-token availability "fluctuates because it depends on
the nature of other jobs running in the cluster" (§2.4).  We model that
aggregate as a token consumer whose demand follows a bounded, mean-reverting
random walk re-sampled at random intervals — cheap enough to run hundreds of
experiments, while still exercising spare redistribution and eviction.

Scripted :class:`LoadEpisode` windows overlay surges or lulls, used by the
Table 3 / Fig. 6(a) overload scenario.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.cluster.tokens import Consumer, TokenPool
from repro.simkit.events import Simulator


class BackgroundError(ValueError):
    """Raised for invalid background-load configuration."""


@dataclass(frozen=True)
class LoadEpisode:
    """Multiply background demand by ``factor`` during [start, end)."""

    start: float
    end: float
    factor: float

    def __post_init__(self):
        for name in ("start", "end", "factor"):
            if math.isnan(getattr(self, name)):
                raise BackgroundError(f"episode {name} is NaN")
        if self.end <= self.start:
            raise BackgroundError(f"empty episode [{self.start}, {self.end})")
        if self.factor < 0:
            raise BackgroundError(f"negative factor {self.factor!r}")

    def active_at(self, t: float) -> bool:
        return self.start <= t < self.end


class BackgroundLoad:
    """A mean-reverting stochastic demand process driving one pool consumer.

    Demand at each re-sample point:
        d <- clip(d + kappa * (mean - d) + noise, min_demand, max_demand)
    then scaled by any active :class:`LoadEpisode`.
    """

    CONSUMER_NAME = "background"

    def __init__(
        self,
        sim: Simulator,
        pool: TokenPool,
        rng: np.random.Generator,
        *,
        guaranteed: int,
        mean_demand: Optional[float] = None,
        min_demand: int = 0,
        max_demand: Optional[int] = None,
        volatility: float = 0.25,
        mean_reversion: float = 0.3,
        resample_mean_seconds: float = 45.0,
        episodes: Sequence[LoadEpisode] = (),
        on_demand: Optional[Callable[[int], None]] = None,
    ):
        if guaranteed < 0:
            raise BackgroundError(f"negative guarantee {guaranteed!r}")
        if volatility < 0 or not 0 <= mean_reversion <= 1:
            raise BackgroundError("bad volatility/mean_reversion")
        if resample_mean_seconds <= 0:
            raise BackgroundError("resample interval must be positive")
        self._sim = sim
        self._pool = pool
        self._rng = rng
        self._mean = float(mean_demand if mean_demand is not None else guaranteed)
        self._min = min_demand
        self._max = int(max_demand if max_demand is not None else 2 * max(guaranteed, 1))
        if not self._min <= self._max:
            raise BackgroundError("min_demand > max_demand")
        self._volatility = volatility
        self._kappa = mean_reversion
        self._resample_mean = resample_mean_seconds
        self._episodes: List[LoadEpisode] = list(episodes)
        self._level = self._mean
        #: Told each new demand before the pool is (the cluster keeps its
        #: contention factor with it).
        self._on_demand = on_demand
        self.consumer = pool.register(Consumer(self.CONSUMER_NAME, guaranteed))
        self._apply_demand()
        self._schedule_next()
        for episode in self._episodes:
            self._schedule_episode_boundaries(episode)

    # ------------------------------------------------------------------

    def add_episode(self, episode: LoadEpisode) -> None:
        self._episodes.append(episode)
        self._schedule_episode_boundaries(episode)
        if episode.active_at(self._sim.now):
            self._apply_demand()

    def _schedule_episode_boundaries(self, episode: LoadEpisode) -> None:
        """Apply surges exactly at their boundaries, not at the next tick."""
        for t in (episode.start, episode.end):
            if t >= self._sim.now:
                self._sim.call_at(t, self._apply_demand)

    @property
    def current_demand(self) -> int:
        return self.consumer.demand

    def _episode_factor(self, t: float) -> float:
        factor = 1.0
        for ep in self._episodes:
            if ep.active_at(t):
                factor *= ep.factor
        return factor

    def _apply_demand(self) -> None:
        scaled = self._level * self._episode_factor(self._sim.now)
        demand = int(round(min(max(scaled, self._min), self._max)))
        if self._on_demand is not None:
            self._on_demand(demand)
        self._pool.set_demand(self.CONSUMER_NAME, demand)

    def _schedule_next(self) -> None:
        delay = float(self._rng.exponential(self._resample_mean))
        self._sim.call_after(max(delay, 1.0), self._tick)

    def _tick(self) -> None:
        noise = float(self._rng.normal(0.0, self._volatility * max(self._mean, 1.0)))
        self._level += self._kappa * (self._mean - self._level) + noise
        self._level = min(max(self._level, self._min), self._max)
        self._apply_demand()
        self._schedule_next()


class SpareSoaker:
    """The rest of the cluster's pending work.

    In Cosmos, spare tokens are redistributed among *all* jobs with pending
    tasks (§2.1) — a lull in one group's demand is absorbed by everyone
    else, not handed wholesale to the single SLO job under study.  This
    consumer models that long queue: zero guarantee, effectively unbounded
    demand, and a weight standing in for the aggregate weight of other
    pending jobs.
    """

    CONSUMER_NAME = "spare-soaker"

    def __init__(self, pool: TokenPool, *, weight: float = 150.0):
        if weight <= 0:
            raise BackgroundError(f"weight must be positive, got {weight!r}")
        self.consumer = pool.register(
            Consumer(self.CONSUMER_NAME, 0, weight=weight)
        )
        pool.set_demand(self.CONSUMER_NAME, pool.capacity * 4)


__all__ = ["BackgroundError", "BackgroundLoad", "LoadEpisode", "SpareSoaker"]
