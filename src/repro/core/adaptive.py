"""Online model correction (paper §5.6, implemented).

The paper closes by noting that "the job execution can significantly
diverge from the model" — e.g. an input much larger than trained, or a
cluster-wide slowdown — in which case the control loop under-provisions
until lateness accumulates, because C(p, a) still answers with
trained-scale remaining times.  The authors propose "quickly updating the
model ... once the control loop detects large errors in model
predictions".

:class:`ModelErrorMonitor` implements that update with an observable,
model-free signal: the ratio of resources actually consumed to the work
the model believes has been completed,

    inflation = consumed token-seconds / (progress x trained total work)

If the run is exactly like the training data the ratio sits near 1; a
1.5x-heavy input drives it toward 1.5 as soon as a meaningful fraction of
work completes.  :class:`AdaptiveCpaPredictor` multiplies every C(p, a)
query by the current estimate, so the controller sees the divergence many
minutes before the deadline-lateness signal would react.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.control import ControlError, CpaPredictor
from repro.core.cpa import CpaTable
from repro.jobs.profiles import JobProfile


class ModelErrorMonitor:
    """Estimates how much heavier this run is than the trained model."""

    def __init__(
        self,
        trained_work_seconds: float,
        *,
        min_progress: float = 0.05,
        clamp: tuple = (0.8, 3.0),
        smoothing: float = 0.4,
    ):
        if trained_work_seconds <= 0:
            raise ControlError("trained work must be positive")
        if not 0 < min_progress < 1:
            raise ControlError("min_progress must be in (0, 1)")
        lo, hi = clamp
        if not 0 < lo <= 1 <= hi:
            raise ControlError(f"clamp {clamp!r} must straddle 1")
        if not 0 < smoothing <= 1:
            raise ControlError("smoothing must be in (0, 1]")
        self._trained_work = trained_work_seconds
        self._min_progress = min_progress
        self._clamp = (lo, hi)
        self._smoothing = smoothing
        self._estimate = 1.0
        self.observations = 0

    @property
    def inflation(self) -> float:
        """Current runtime-inflation estimate (1.0 = run matches model)."""
        return self._estimate

    def observe(self, progress: float, consumed_token_seconds: float) -> float:
        """Feed one control-period observation; returns the new estimate.

        ``consumed_token_seconds`` is the cumulative busy token time of the
        job so far (observable by the job manager); ``progress`` is the
        indicator value.  Below ``min_progress`` the ratio is too noisy to
        trust and the estimate stays at its prior.
        """
        if not 0 <= progress <= 1:
            raise ControlError(f"progress {progress!r} out of [0, 1]")
        if consumed_token_seconds < 0:
            raise ControlError("negative consumed time")
        if progress < self._min_progress:
            return self._estimate
        raw = consumed_token_seconds / (progress * self._trained_work)
        lo, hi = self._clamp
        raw = min(max(raw, lo), hi)
        self._estimate += self._smoothing * (raw - self._estimate)
        self.observations += 1
        return self._estimate


class AdaptiveCpaPredictor(CpaPredictor):
    """A :class:`CpaPredictor` whose answers scale with the monitor's
    current inflation estimate."""

    name = "simulator+online-correction"

    def __init__(
        self,
        table: CpaTable,
        indicator,
        monitor: ModelErrorMonitor,
        *,
        percentile: float = 0.6,
    ):
        super().__init__(table, indicator, percentile=percentile)
        self.monitor = monitor

    def remaining_seconds(
        self, fractions: Mapping[str, float], allocation: float
    ) -> float:
        base = super().remaining_seconds(fractions, allocation)
        return base * self.monitor.inflation

    def remaining_seconds_batch(self, fractions: Mapping[str, float], allocations):
        return super().remaining_seconds_batch(fractions, allocations) * (
            self.monitor.inflation
        )

    def remaining_quantiles(self, fractions: Mapping[str, float], allocation, qs):
        """Interval reads scale with the inflation estimate too: once the
        monitor believes the run is 1.5x heavier than trained, the honest
        completion-time band is the trained band stretched by 1.5x."""
        base = super().remaining_quantiles(fractions, allocation, qs)
        inflation = self.monitor.inflation
        return {q: v * inflation for q, v in base.items()}


def make_monitor(profile: JobProfile, **kwargs) -> ModelErrorMonitor:
    """Monitor sized from a learned profile's total work."""
    return ModelErrorMonitor(profile.total_work_seconds(), **kwargs)


__all__ = ["AdaptiveCpaPredictor", "ModelErrorMonitor", "make_monitor"]
