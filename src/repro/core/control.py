"""Jockey's resource-allocation control loop (paper §4.3).

Each period the controller observes the job's per-stage completion
fractions, turns them into a progress value, asks the predictor for the
remaining time at every candidate allocation, and picks

    A_raw = argmin { a : U(t_r + slack * C(p, a)) is maximal }

— the *minimum* allocation that maximizes expected utility.  Three
control-theory moderators keep the loop stable against model error and
indicator noise:

* **slack** — predictions are multiplied by a constant ≥ 1;
* **hysteresis** — the applied allocation moves toward the raw value
  exponentially: ``A_t = A_{t-1} + alpha (A_raw − A_{t-1})``;
* **dead zone** — the utility function is shifted left by ``D`` seconds, so
  allocations only react once the job is at least ``D`` behind schedule.

The controller reads no clock: every caller (the batch runner, the
multi-job arbiter, the live service) tells it the job's elapsed time, and
each decision leaves exactly one :class:`~repro.telemetry.audit.TickRecord`
— the value :meth:`JockeyController.decide` returns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Mapping, Optional, Protocol, Sequence, Tuple

from repro.core.cpa import CpaTable
from repro.core.utility import PiecewiseLinearUtility
from repro.perf import instrument as _perf
from repro.settable import Count, NonNegative, Positive, check, refuse
from repro.telemetry import audit as _audit
from repro.telemetry import metrics as _metrics
from repro.telemetry import predict as _predict
from repro.telemetry import trace as _trace

#: The :class:`TickRecord` fields a ``control.tick`` event carries: every
#: field its declaration lists after ``predictor``.
_TICK_FIELDS = tuple(_trace.EVENTS["control.tick"])[1:]

_TICKS = _metrics.REGISTRY.counter(
    "repro_control_ticks_total",
    "Control-loop iterations (decide calls)",
    labelnames=("predictor",),
)
_DEAD_ZONE = _metrics.REGISTRY.counter(
    "repro_control_dead_zone_total",
    "Ticks where the dead zone changed the raw allocation choice",
    labelnames=("predictor",),
)
_ALLOCATION = _metrics.REGISTRY.gauge(
    "repro_control_allocation_tokens",
    "Most recently applied allocation",
    labelnames=("predictor",),
)
_DEGRADED = _metrics.REGISTRY.counter(
    "repro_control_degraded_ticks_total",
    "Ticks decided without a live predictor (fallback or hold)",
    labelnames=("predictor", "mode"),
)
_REFRESHES = _metrics.REGISTRY.counter(
    "repro_control_model_refreshes_total",
    "In-place predictor model swaps (C(p, a) table / indicator refresh)",
    labelnames=("predictor",),
)

#: The remaining-time quantiles one interval forecast reads.
_FORECAST_QS = _predict.quantiles_for(_predict.NOMINAL_LEVELS)

#: Degraded decisions widen the dead zone by this factor: stale
#: predictions should move the allocation only for clear lateness.
DEGRADED_DEAD_ZONE_FACTOR = 2.0


class ControlError(ValueError):
    """Raised for invalid control configuration."""


class PredictorUnavailable(RuntimeError):
    """The remaining-time model cannot answer right now (blackout, stale
    table, model service down).  The controller degrades gracefully: see
    :meth:`JockeyController.decide`."""


class Predictor(Protocol):
    """Remaining-time model: the simulator-backed C(p,a) or Amdahl's Law."""

    name: str

    def remaining_seconds(
        self, fractions: Mapping[str, float], allocation: float
    ) -> float: ...

    def remaining_seconds_batch(
        self, fractions: Mapping[str, float], allocations: Sequence[float]
    ) -> Sequence[float]:
        """``remaining_seconds`` at every allocation of the control grid
        in one call; element ``i`` equals ``remaining_seconds(fractions,
        allocations[i])``."""
        ...


class CpaPredictor:
    """Adapter: progress indicator + C(p, a) table -> Predictor."""

    name = "simulator"

    def __init__(self, table: CpaTable, indicator, *, percentile: float = 0.6):
        if not 0 <= percentile <= 1:
            raise ControlError(f"percentile {percentile!r} out of [0, 1]")
        self.table = table
        self.indicator = indicator
        self.percentile = percentile

    @property
    def indicator(self):
        return self._indicator

    @indicator.setter
    def indicator(self, indicator) -> None:
        self._indicator = indicator
        #: (a copy of the fractions, the indicator's progress at them).
        self._last_progress: Optional[Tuple[dict, float]] = None

    def progress(self, fractions: Mapping[str, float]) -> float:
        """The indicator's progress at ``fractions``.  One control tick
        reads it up to four times (scan, observed progress, forecast,
        applied-allocation price), so the last answer is kept until the
        fractions or the indicator change."""
        last = self._last_progress
        if last is not None and last[0] == fractions:
            return last[1]
        progress = self._indicator.progress(fractions)
        self._last_progress = (dict(fractions), progress)
        return progress

    def remaining_seconds(
        self, fractions: Mapping[str, float], allocation: float
    ) -> float:
        progress = self.progress(fractions)
        return self.table.remaining(progress, allocation, q=self.percentile)

    def remaining_seconds_batch(
        self, fractions: Mapping[str, float], allocations: Sequence[float]
    ):
        """Vectorized candidate scan: the indicator runs once and the
        table answers every allocation in one ``remaining_curve`` call.
        Element ``i`` equals ``remaining_seconds(fractions,
        allocations[i])`` exactly."""
        progress = self.progress(fractions)
        return self.table.remaining_curve(
            progress, allocations, q=self.percentile
        )

    def remaining_quantiles(
        self,
        fractions: Mapping[str, float],
        allocation: float,
        qs: Sequence[float],
    ) -> Mapping[float, float]:
        """Several quantiles of the remaining-time distribution at one
        allocation — the prediction-interval read (always *raw*: the
        control loop's ``percentile`` and slack are not applied, the
        interval ledger wants the model's honest distribution)."""
        progress = self.progress(fractions)
        return self.table.remaining_quantiles(progress, allocation, qs)

    def refresh(self, table: Optional[CpaTable] = None, indicator=None) -> None:
        """Swap in a relearned model in place (drift-aware refresh): the
        table and indicator must be built from the *same* profile, so pass
        both together unless only one genuinely changed."""
        if table is not None:
            self.table = table
        if indicator is not None:
            self.indicator = indicator


@dataclass(frozen=True)
class ControlConfig:
    """Paper-default parameters (§5.1): 1-minute period, slack 1.2,
    hysteresis 0.2, 3-minute dead zone."""

    period_seconds: Positive = 60.0
    slack: Positive = 1.2
    hysteresis: Positive = 0.2
    dead_zone_seconds: NonNegative = 180.0
    min_tokens: Count = 1
    max_tokens: Count = 100
    allocation_step: Count = 5
    #: When the predictor is unavailable, reuse the last successful
    #: per-candidate predictions for up to this long (then hold).
    fallback_staleness_seconds: NonNegative = 600.0
    #: False disables the last-known-good fallback entirely (ablation):
    #: predictor outages freeze the allocation at its current value.
    degraded_fallback: bool = True

    def __post_init__(self):
        check(self, ControlError)
        if self.slack < 1:
            refuse(self, "slack", ">= 1", ControlError)
        if self.hysteresis > 1:
            refuse(self, "hysteresis", "in (0, 1]", ControlError)
        if self.min_tokens > self.max_tokens:
            raise ControlError(f"min_tokens {self.min_tokens} exceeds max_tokens {self.max_tokens}")

    def allocation_grid(self) -> List[int]:
        grid = list(range(self.min_tokens, self.max_tokens + 1, self.allocation_step))
        if grid[-1] != self.max_tokens:
            grid.append(self.max_tokens)
        return grid


def first_best(utilities: Sequence[float]) -> int:
    """The argmin of §4.3: index of the first (smallest-allocation)
    candidate whose utility is within 1e-9 of the best."""
    best = max(utilities)
    return next(i for i, u in enumerate(utilities) if u >= best - 1e-9)


class JockeyController:
    """The per-job control loop state machine."""

    def __init__(
        self,
        predictor: Predictor,
        utility: PiecewiseLinearUtility,
        config: ControlConfig = ControlConfig(),
        *,
        stage_names: Sequence[str] = (),
        grid_floor: Optional[int] = None,
    ):
        self.predictor = predictor
        self.config = config
        self._utility = utility
        self._effective = utility.shifted_left(config.dead_zone_seconds)
        self._degraded_effective = utility.shifted_left(
            config.dead_zone_seconds * DEGRADED_DEAD_ZONE_FACTOR
        )
        # Candidate allocations.  A C(p, a) table clamps queries below its
        # smallest simulated allocation (it has no data there), so the grid
        # must not extend beneath it — otherwise 1 token "predicts" the
        # table-minimum's latency.  A floor above the slice leaves only its top.
        self._grid = config.allocation_grid()
        if grid_floor is not None:
            floored = [a for a in self._grid if a >= grid_floor]
            self._grid = floored or [config.max_tokens]
        self._smoothed: Optional[float] = None
        self._stage_names = tuple(stage_names)
        #: Last successful per-candidate predictions: (elapsed, [seconds
        #: remaining at each grid allocation]).  The degraded fallback
        #: re-optimizes over these while the predictor is unreachable.
        self._last_good: Optional[Tuple[float, List[float]]] = None
        #: Ticks decided without a live predictor (fallback or hold).
        self.degraded_ticks = 0
        #: One record per decision, oldest first (the initial allocation
        #: included): progress, per-candidate predictions, the
        #: raw/dead-zone/hysteresis chain, the applied allocation and its
        #: completion-time interval forecast.
        self.audit: List[_audit.TickRecord] = []

    @property
    def grid(self) -> Tuple[int, ...]:
        """The candidate allocations every scan evaluates, ascending."""
        return tuple(self._grid)

    # ------------------------------------------------------------------

    def set_utility(self, utility: PiecewiseLinearUtility) -> None:
        """Change the job's utility (e.g. the deadline moved, §5.2)."""
        self._utility = utility
        self._effective = utility.shifted_left(self.config.dead_zone_seconds)
        self._degraded_effective = utility.shifted_left(
            self.config.dead_zone_seconds * DEGRADED_DEAD_ZONE_FACTOR
        )

    def refresh_model(self, table=None, indicator=None) -> None:
        """Swap the predictor's model in place (the fleet's drift-aware
        refresh path): forwards to the predictor's ``refresh`` hook and
        drops the last-known-good prediction cache — stale-curve fallback
        across a model swap would mix incompatible predictions."""
        refresh = getattr(self.predictor, "refresh", None)
        if refresh is None:
            raise ControlError(
                f"predictor {getattr(self.predictor, 'name', '?')!r} does "
                "not support model refresh"
            )
        refresh(table=table, indicator=indicator)
        self._last_good = None
        predictor_name = getattr(self.predictor, "name", "unknown")
        _REFRESHES.labels(predictor=predictor_name).inc()
        rec = _trace.RECORDER
        if rec.enabled:
            rec.emit(
                0.0, "control.model_refresh",
                predictor=predictor_name,
                table_swapped=table is not None,
                indicator_swapped=indicator is not None,
            )

    def reset_run_state(self) -> None:
        """Forget everything tied to one run — hysteresis, cached
        predictions, audit trail, degraded-tick count — so a
        long-lived controller (one per recurring-job template) starts each
        day's run clean while keeping its model."""
        self._smoothed = None
        self._last_good = None
        self.degraded_ticks = 0
        self.audit = []

    # ------------------------------------------------------------------

    def _scan(
        self, utility: PiecewiseLinearUtility, elapsed: float, predictions: Sequence[float]
    ) -> Tuple[_audit.CandidateEval, ...]:
        """The one candidate scan: slack each grid allocation's prediction
        and price it under ``utility``."""
        slack = self.config.slack
        value = utility.value
        remaining = [slack * predicted for predicted in predictions]
        utilities = [value(elapsed + r) for r in remaining]
        return tuple(map(_audit.CandidateEval, self._grid, remaining, utilities))

    def candidates(
        self, fractions: Mapping[str, float], elapsed: float
    ) -> Tuple[_audit.CandidateEval, ...]:
        """Every grid allocation, smallest first, with its slacked
        prediction and its (dead-zone-shifted) utility at this state: what
        a decision scans, from one batched predictor read.  The multi-job
        arbiter bids from it."""
        perf = _perf.COLLECTOR
        query_start = time.perf_counter() if perf.enabled else 0.0
        predictions = self.predictor.remaining_seconds_batch(fractions, self._grid)
        if perf.enabled:
            perf.record("control.cpa_query", time.perf_counter() - query_start)
        self._last_good = (elapsed, [float(p) for p in predictions])
        return self._scan(self._effective, elapsed, self._last_good[1])

    def _raw_allocation(
        self, fractions: Mapping[str, float], elapsed: float
    ) -> Tuple[_audit.CandidateEval, Tuple[_audit.CandidateEval, ...], bool]:
        """Minimum allocation maximizing expected (dead-zone-shifted,
        slacked) utility; returns (the chosen candidate, every candidate,
        dead-zone-triggered flag).  The flag is True when the dead-zone
        shift changed which allocation the argmin picks versus the
        unshifted utility."""
        candidates = self.candidates(fractions, elapsed)
        index = first_best([c.utility for c in candidates])
        unshifted = first_best([
            self._utility.value(elapsed + c.predicted_remaining) for c in candidates
        ])
        return candidates[index], candidates, index != unshifted

    def _observed_progress(self, fractions: Mapping[str, float]) -> Optional[float]:
        """The predictor's indicator progress, when it has one (the
        simulator-backed predictors do; Amdahl's Law does not).  One that
        keeps its progress (:meth:`CpaPredictor.progress`) is asked for it,
        so the tick does not run the indicator again."""
        read = getattr(self.predictor, "progress", None)
        if read is None:
            indicator = getattr(self.predictor, "indicator", None)
            if indicator is None:
                return None
            read = indicator.progress
        try:
            return float(read(fractions))
        except Exception:
            return None

    def _forecast(
        self, fractions: Mapping[str, float], allocation: int, elapsed: float
    ) -> Tuple[Optional[float], Tuple[_audit.IntervalBand, ...]]:
        """The completion-time ``(median, bands)`` at ``allocation`` from
        the predictor's distribution; ``(None, ())`` when it has none or is
        unavailable — a model outage leaves no honest interval to publish."""
        quantiler = getattr(self.predictor, "remaining_quantiles", None)
        if quantiler is None:
            return None, ()
        try:
            quantiles = dict(quantiler(fractions, allocation, _FORECAST_QS))
        except PredictorUnavailable:
            return None, ()
        return _predict.bands_from_quantiles(elapsed, quantiles)

    def _append(
        self,
        fractions: Mapping[str, float],
        *,
        predict: bool,
        **fields,
    ) -> _audit.TickRecord:
        """The one record of one decision, stamped with the slack it was
        decided with and, when ``predict``, its interval forecast; appended
        to the audit.  Then the live gauges, its ``control.predict`` event
        (when banded) and its ``control.tick`` event."""
        progress = self._observed_progress(fractions)
        median, bands = (
            self._forecast(fractions, fields["allocation"], fields["elapsed"])
            if predict else (None, ())
        )
        record = _audit.TickRecord(
            tick=len(self.audit),
            progress=progress,
            smoothed=self._smoothed,
            slack=self.config.slack,
            median=median,
            bands=bands,
            **fields,
        )
        self.audit.append(record)
        predictor_name = getattr(self.predictor, "name", "unknown")
        rec = _trace.RECORDER
        if bands:
            _predict.publish(record, predictor=predictor_name)
            if rec.enabled:
                predicted = {"predictor": predictor_name, "median": median}
                for band in bands:
                    label = _predict.level_label(band.level)
                    predicted[f"lo{label}"] = band.lo
                    predicted[f"hi{label}"] = band.hi
                rec.emit(record.elapsed, "control.predict", **predicted)
        if rec.enabled:
            rec.emit(
                record.elapsed, "control.tick",
                predictor=predictor_name,
                **{name: getattr(record, name) for name in _TICK_FIELDS},
            )
        return record

    def initial_allocation(self, fractions: Optional[Mapping[str, float]] = None) -> int:
        """Allocation before the job starts (progress 0, elapsed 0).  Also
        resets hysteresis state."""
        if fractions is None:
            fractions = self._zero_fractions()
        chosen, candidates, dead_zone = self._raw_allocation(fractions, 0.0)
        raw = chosen.allocation
        self._smoothed = _audit.apply_hysteresis(None, raw, self.config.hysteresis)
        self._append(
            fractions,
            predict=True,
            phase=_audit.PHASE_INITIAL,
            elapsed=0.0,
            candidates=candidates,
            raw=raw,
            dead_zone_triggered=dead_zone,
            prev_smoothed=None,
            allocation=raw,
            predicted_remaining=chosen.predicted_remaining,
            utility=chosen.utility,
        )
        return raw

    def _zero_fractions(self) -> Mapping[str, float]:
        if not self._stage_names:
            raise ControlError(
                "initial_allocation needs stage_names at construction or "
                "explicit fractions"
            )
        return {s: 0.0 for s in self._stage_names}

    def _degraded_raw(
        self, elapsed: float
    ) -> Tuple[int, Tuple[_audit.CandidateEval, ...], str, float]:
        """Pick an allocation without a live predictor.

        With a fresh-enough last-known-good prediction set (and the
        fallback enabled), re-run the argmin over those cached predictions
        under the *widened* dead zone: as ``elapsed`` grows during an
        outage, lateness still drives the allocation up.  The result is
        floored at the current smoothed allocation — stale data may demand
        *more* resources, never release them (a downward revision waits
        for the predictor to come back).  Otherwise hold the current
        allocation (degraded-hold)."""
        config = self.config
        if self._last_good is not None:
            last_elapsed, predictions = self._last_good
            staleness = elapsed - last_elapsed
            if (
                config.degraded_fallback
                and staleness <= config.fallback_staleness_seconds
            ):
                floor = (
                    int(round(self._smoothed))
                    if self._smoothed is not None else self._grid[0]
                )
                candidates = self._scan(
                    self._degraded_effective, elapsed, predictions
                )
                best = first_best([c.utility for c in candidates])
                raw = max(candidates[best].allocation, floor)
                return raw, candidates, "fallback", staleness
        else:
            staleness = elapsed
        if self._smoothed is not None:
            hold = int(round(self._smoothed))
        else:
            hold = self._grid[-1]  # no information at all: be safe
        return hold, (), "hold", staleness

    def _cached_remaining(self, allocation: int) -> float:
        """Last-known-good prediction at the grid point nearest
        ``allocation`` (0.0 when nothing was ever predicted)."""
        if self._last_good is None:
            return 0.0
        _elapsed, predictions = self._last_good
        nearest = min(
            range(len(self._grid)), key=lambda i: abs(self._grid[i] - allocation)
        )
        return predictions[nearest]

    def decide(
        self, fractions: Mapping[str, float], elapsed: float
    ) -> _audit.TickRecord:
        """One control iteration at ``elapsed`` seconds into the job (the
        caller's clock reading); returns the :class:`TickRecord` it appends
        to :attr:`audit`.

        If the predictor raises :class:`PredictorUnavailable`, the tick is
        decided in degraded mode (see :meth:`_degraded_raw`) instead of
        propagating the outage into the run loop."""
        perf = _perf.COLLECTOR
        tick_start = time.perf_counter() if perf.enabled else 0.0
        degraded_mode: Optional[str] = None
        staleness = 0.0
        try:
            chosen, candidates, dead_zone = self._raw_allocation(fractions, elapsed)
            raw = chosen.allocation
        except PredictorUnavailable:
            raw, candidates, degraded_mode, staleness = self._degraded_raw(elapsed)
            dead_zone = False
        config = self.config
        prev_smoothed = self._smoothed
        self._smoothed = _audit.apply_hysteresis(prev_smoothed, raw, config.hysteresis)
        allocation = _audit.quantize_allocation(
            self._smoothed, config.min_tokens, config.max_tokens
        )
        if degraded_mode is None:
            predicted = config.slack * self.predictor.remaining_seconds(
                fractions, allocation
            )
            utility_now = self._effective.value(elapsed + predicted)
        else:
            # The predictor would raise again: price the applied allocation
            # from the cached curve, under the widened dead zone.
            predicted = config.slack * self._cached_remaining(allocation)
            utility_now = self._degraded_effective.value(elapsed + predicted)
        predictor_name = getattr(self.predictor, "name", "unknown")
        _TICKS.cell(predictor_name).inc()
        if dead_zone:
            _DEAD_ZONE.cell(predictor_name).inc()
        _ALLOCATION.cell(predictor_name).set(allocation)
        if degraded_mode is not None:
            self.degraded_ticks += 1
            _DEGRADED.cell(predictor_name, degraded_mode).inc()
            rec = _trace.RECORDER
            if rec.enabled:
                rec.emit(
                    elapsed, "control.degraded",
                    predictor=predictor_name,
                    mode=degraded_mode,
                    staleness=staleness,
                    allocation=allocation,
                )
        record = self._append(
            fractions,
            predict=degraded_mode is None,
            phase=_audit.PHASE_TICK,
            elapsed=elapsed,
            candidates=candidates,
            raw=raw,
            dead_zone_triggered=dead_zone,
            prev_smoothed=prev_smoothed,
            allocation=allocation,
            predicted_remaining=predicted,
            utility=utility_now,
        )
        if perf.enabled:
            perf.record("control.tick", time.perf_counter() - tick_start)
        return record


__all__ = [
    "DEGRADED_DEAD_ZONE_FACTOR",
    "ControlConfig",
    "ControlError",
    "CpaPredictor",
    "JockeyController",
    "Predictor",
    "PredictorUnavailable",
    "first_best",
]
