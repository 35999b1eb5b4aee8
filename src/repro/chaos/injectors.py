"""The chaos injectors: one small class per fault family.

Each injector is handed its slice of the (intensity-folded) schedule, the
simulator, whatever substrate it perturbs, and — when it needs randomness —
its *own* named RNG substream.  All scheduling happens through the simkit
event loop, so a chaos run replays bit-identically for a fixed seed and
spec, at any worker count.

Injectors emit ``chaos.*`` trace events and count what they did; the
:class:`~repro.chaos.engine.ChaosEngine` aggregates those counters into the
run digest and the report's chaos section.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.chaos.spec import (
    ControlFaults,
    EvictionStorm,
    ProfileDrift,
    RackFailure,
    TokenShock,
)
from repro.cluster.cluster import Cluster
from repro.cluster.tokens import Consumer
from repro.core.control import PredictorUnavailable
from repro.simkit.distributions import scale as scale_dist
from repro.simkit.events import Simulator
from repro.telemetry import metrics as _metrics
from repro.telemetry import trace as _trace

_CHAOS_EVENTS = _metrics.REGISTRY.counter(
    "repro_chaos_events_total",
    "Chaos-injection events fired",
    labelnames=("kind",),
)


def _emit(ts: float, kind: str, **fields) -> None:
    _CHAOS_EVENTS.labels(kind=kind).inc()
    rec = _trace.RECORDER
    if rec.enabled:
        rec.emit(ts, f"chaos.{kind}", **fields)


class RackFailureInjector:
    """Correlated machine-batch failures (rack/PDU/switch loss)."""

    def __init__(
        self,
        events: Sequence[RackFailure],
        sim: Simulator,
        cluster: Cluster,
        rng: np.random.Generator,
    ):
        self._events = tuple(events)
        self._sim = sim
        self._cluster = cluster
        self._rng = rng
        self.machines_failed = 0
        self.batches_fired = 0

    def install(self) -> None:
        for event in self._events:
            self._sim.call_at(event.at, self._fire, event)

    def _pick_machines(self, event: RackFailure) -> Tuple[int, ...]:
        if event.machines:
            return event.machines
        if event.count <= 0:
            return ()
        num = self._cluster.config.num_machines
        count = min(event.count, num)
        if event.first_machine is not None:
            first = min(event.first_machine, num - count)
        else:
            first = int(self._rng.integers(0, num - count + 1))
        return tuple(range(first, first + count))

    def _fire(self, event: RackFailure) -> None:
        machines = self._pick_machines(event)
        failed = self._cluster.failures.fail_batch(
            machines, repair_seconds=event.repair_seconds
        )
        self.machines_failed += failed
        self.batches_fired += 1
        _emit(self._sim.now, "rack_failure",
              machines=list(machines), failed=failed,
              repair_seconds=event.repair_seconds)


class EvictionStormInjector:
    """A heavyweight spare-token competitor active during storm windows."""

    CONSUMER_NAME = "chaos-storm"

    def __init__(
        self,
        storms: Sequence[EvictionStorm],
        sim: Simulator,
        cluster: Cluster,
    ):
        self._storms = tuple(storms)
        self._sim = sim
        self._pool = cluster.pool
        self._consumer: Optional[Consumer] = None
        self.storms_started = 0

    def install(self) -> None:
        if not self._storms:
            return
        weight = max(s.weight for s in self._storms)
        self._consumer = self._pool.register(
            Consumer(self.CONSUMER_NAME, 0, weight=weight)
        )
        boundaries = set()
        for storm in self._storms:
            boundaries.update((storm.start, storm.end))
        for t in sorted(boundaries):
            self._sim.call_at(t, self._apply)

    def _apply(self) -> None:
        now = self._sim.now
        fraction = sum(
            s.demand_fraction for s in self._storms if s.start <= now < s.end
        )
        demand = int(round(min(fraction, 1.0) * self._pool.capacity))
        previous = self._consumer.demand
        self._pool.set_demand(self.CONSUMER_NAME, demand)
        if demand > 0 and previous == 0:
            self.storms_started += 1
        _emit(now, "eviction_storm", demand=demand)


class TokenShockInjector:
    """A competing guaranteed reservation active during shock windows."""

    CONSUMER_NAME = "chaos-reservation"

    def __init__(
        self,
        shocks: Sequence[TokenShock],
        sim: Simulator,
        cluster: Cluster,
    ):
        self._shocks = tuple(shocks)
        self._sim = sim
        self._pool = cluster.pool
        self.shocks_started = 0
        self.tokens_seized_peak = 0

    def install(self) -> None:
        if not self._shocks:
            return
        # Tiny weight: the reservation competes for *guaranteed* headroom,
        # not for the spare-token market.
        self._pool.register(Consumer(self.CONSUMER_NAME, 0, weight=1e-6))
        boundaries = set()
        for shock in self._shocks:
            boundaries.update((shock.start, shock.end))
        for t in sorted(boundaries):
            self._sim.call_at(t, self._apply)

    def _apply(self) -> None:
        now = self._sim.now
        fraction = sum(
            s.guaranteed_fraction for s in self._shocks if s.start <= now < s.end
        )
        want = int(round(min(fraction, 1.0) * self._pool.capacity))
        previous = self._pool.consumer(self.CONSUMER_NAME).guaranteed
        applied = self._pool.set_guaranteed(self.CONSUMER_NAME, want)
        self._pool.set_demand(self.CONSUMER_NAME, applied)
        if applied > 0 and previous == 0:
            self.shocks_started += 1
        self.tokens_seized_peak = max(self.tokens_seized_peak, applied)
        _emit(now, "token_shock", requested=want, seized=applied)


def drifted_profile(profile, drift: ProfileDrift):
    """``profile`` with one :class:`ProfileDrift` applied (runtime/init
    scaled by ``factor`` on the named stages, or every stage when none are
    named).  Shared by the live injector below and the fleet driver's
    day-level ground-truth drift (:mod:`repro.fleet.driver`)."""
    if not drift.stages:
        return profile.with_runtime_scale(drift.factor)
    from repro.jobs.profiles import JobProfile

    stages = {}
    for name in profile.stage_names:
        sp = profile.stage(name)
        if name in drift.stages:
            sp = replace(
                sp,
                runtime=scale_dist(sp.runtime, drift.factor),
                init=scale_dist(sp.init, drift.factor),
            )
        stages[name] = sp
    return JobProfile(profile.graph, stages)


class ProfileDriftInjector:
    """Scale the live job's stage costs away from the trained profile."""

    def __init__(self, drifts: Sequence[ProfileDrift], sim: Simulator, manager):
        self._drifts = tuple(drifts)
        self._sim = sim
        self._manager = manager
        self.drifts_applied = 0

    def install(self) -> None:
        for drift in self._drifts:
            self._sim.call_at(drift.at, self._apply, drift)

    def _apply(self, drift: ProfileDrift) -> None:
        self._manager.behavior = drifted_profile(self._manager.behavior, drift)
        self.drifts_applied += 1
        _emit(self._sim.now, "profile_drift",
              factor=drift.factor, stages=list(drift.stages) or "all")


class BlackoutPredictor:
    """Wraps a controller's predictor; raises
    :class:`~repro.core.control.PredictorUnavailable` inside blackout
    windows and delegates otherwise.  The job's progress read stays
    reachable — blackouts model the *model service* going away, not the
    job's own instrumentation.  ``now`` reads the windows' time base:
    ``lambda: sim.now`` in a batch run, ``ClusterService.now`` live."""

    def __init__(
        self,
        inner,
        now: Callable[[], float],
        windows: Sequence[Tuple[float, float]],
    ):
        self._inner = inner
        self._now = now
        self._windows = tuple(windows)
        self.name = getattr(inner, "name", "unknown")
        self.blackout_hits = 0

    @property
    def progress(self):
        """The inner predictor's progress read, when it has one."""
        return getattr(self._inner, "progress", None)

    def _check(self) -> None:
        now = self._now()
        for start, end in self._windows:
            if start <= now < end:
                self.blackout_hits += 1
                _emit(now, "blackout", window=[start, end])
                raise PredictorUnavailable(
                    f"predictor blacked out during [{start:.0f}, {end:.0f})"
                )

    def remaining_seconds(self, fractions, allocation):
        self._check()
        return self._inner.remaining_seconds(fractions, allocation)

    def remaining_seconds_batch(self, fractions, allocations):
        self._check()
        return self._inner.remaining_seconds_batch(fractions, allocations)

    def remaining_quantiles(self, fractions, allocation, qs):
        """The interval ledger's read degrades with the rest of the model
        service: no honest band can be published during a blackout."""
        self._check()
        quantiler = getattr(self._inner, "remaining_quantiles", None)
        if quantiler is None:
            raise PredictorUnavailable("inner predictor has no distribution")
        return quantiler(fractions, allocation, qs)


class ControlFaultInjector:
    """Drops/delays allocator ticks and installs predictor blackouts."""

    def __init__(
        self,
        faults: ControlFaults,
        sim: Simulator,
        policy,
        rng: np.random.Generator,
    ):
        self._faults = faults
        self._sim = sim
        self._policy = policy
        self._rng = rng
        self.ticks_dropped = 0
        self.ticks_delayed = 0
        self._blackout: Optional[BlackoutPredictor] = None

    def install(self) -> None:
        windows = [(s, e) for s, e in self._faults.blackouts if e > s]
        if not windows:
            return
        controller = getattr(self._policy, "controller", None)
        predictor = getattr(controller, "predictor", None)
        if predictor is None:
            return  # static policies have no predictor to black out
        sim = self._sim
        self._blackout = BlackoutPredictor(predictor, lambda: sim.now, windows)
        controller.predictor = self._blackout

    @property
    def blackout_hits(self) -> int:
        return self._blackout.blackout_hits if self._blackout is not None else 0

    def tick_disposition(self) -> Tuple[str, float]:
        """Fate of the control tick about to run: ``("ok", 0)``,
        ``("drop", 0)``, or ``("delay", seconds)``.  One RNG draw per tick
        keeps the stream consumption deterministic."""
        faults = self._faults
        if faults.drop_tick_prob <= 0 and faults.delay_tick_prob <= 0:
            return ("ok", 0.0)
        draw = float(self._rng.random())
        if draw < faults.drop_tick_prob:
            self.ticks_dropped += 1
            _emit(self._sim.now, "tick_drop", tick_time=self._sim.now)
            return ("drop", 0.0)
        if draw < faults.drop_tick_prob + faults.delay_tick_prob:
            self.ticks_delayed += 1
            _emit(self._sim.now, "tick_delay", delay=faults.delay_seconds)
            return ("delay", faults.delay_seconds)
        return ("ok", 0.0)

    def counters(self) -> Dict[str, int]:
        return {
            "ticks_dropped": self.ticks_dropped,
            "ticks_delayed": self.ticks_delayed,
            "blackout_hits": self.blackout_hits,
        }


__all__ = [
    "BlackoutPredictor",
    "ControlFaultInjector",
    "EvictionStormInjector",
    "ProfileDriftInjector",
    "RackFailureInjector",
    "TokenShockInjector",
    "drifted_profile",
]
