"""Control-loop decision audit: every tick, fully reconstructible.

Jockey's contribution is the control loop; judging it requires seeing each
tick's inputs and intermediate values, not just the applied allocation.
The controller's ``audit`` list holds one :class:`TickRecord` per decision
carrying the observed progress, the predicted remaining time and utility
for *every* candidate allocation, the raw argmin choice, whether the dead
zone changed that choice, and the hysteresis chain (``prev_smoothed`` →
``smoothed`` → applied), the slack it was decided with, and the
completion-time forecast the decision was published with (the median and
central :class:`IntervalBand`\\ s of :mod:`repro.telemetry.predict`).
The controller smooths and rounds with
:func:`apply_hysteresis` and :func:`quantize_allocation`, so
:func:`reconstruct_allocations` replays the code that ran from the audit
alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

PHASE_INITIAL = "initial"
PHASE_TICK = "tick"


@dataclass(frozen=True)
class CandidateEval:
    """One candidate allocation's slacked prediction and utility."""

    allocation: int
    predicted_remaining: float
    utility: float


@dataclass(frozen=True)
class IntervalBand:
    """One central interval for the *completion time* (seconds since job
    start): ``P(lo <= completion <= hi) = level``, per the model."""

    level: float
    lo: float
    hi: float

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def covers(self, completion: float) -> bool:
        return self.lo <= completion <= self.hi


@dataclass(frozen=True)
class TickRecord:
    """Everything one control iteration saw and decided."""

    tick: int
    phase: str                  # PHASE_INITIAL or PHASE_TICK
    elapsed: float
    progress: Optional[float]   # indicator progress, if the predictor has one
    candidates: Tuple[CandidateEval, ...]
    raw: int                    # utility-maximizing minimum allocation
    dead_zone_triggered: bool   # shifted utility changed the raw choice
    prev_smoothed: Optional[float]
    smoothed: float
    allocation: int             # integer tokens actually requested
    predicted_remaining: float  # slack x the model's remaining time
    utility: float
    #: The slack the decision multiplied its predictions by: dividing
    #: ``predicted_remaining`` by it recovers the model's own estimate.
    slack: float
    #: The completion-time forecast at the applied allocation: the p50 and
    #: the central bands in ascending level.  None / () on degraded ticks
    #: and for predictors without a distribution (Amdahl).
    median: Optional[float] = None
    bands: Tuple[IntervalBand, ...] = ()

    def band(self, level: float) -> Optional[IntervalBand]:
        for b in self.bands:
            if abs(b.level - level) < 1e-9:
                return b
        return None


def apply_hysteresis(
    prev_smoothed: Optional[float], raw: int, hysteresis: float
) -> float:
    """The controller's smoothing step (and the replay's)."""
    if prev_smoothed is None:
        return float(raw)
    return prev_smoothed + hysteresis * (raw - prev_smoothed)


def quantize_allocation(smoothed: float, min_tokens: int, max_tokens: int) -> int:
    """The controller's rounding/clamping step (and the replay's)."""
    return int(min(max(math.ceil(smoothed - 1e-9), min_tokens), max_tokens))


def reconstruct_allocations(
    records: Sequence[TickRecord],
    *,
    hysteresis: float,
    min_tokens: int,
    max_tokens: int,
) -> List[int]:
    """Replay the raw → hysteresis → applied chain using *only* each
    record's ``raw`` value and the config — the applied allocations must
    come out identical to what the controller recorded (asserted in
    ``tests/test_core_control.py``)."""
    applied: List[int] = []
    smoothed: Optional[float] = None
    for record in records:
        if record.phase == PHASE_INITIAL:
            smoothed = apply_hysteresis(None, record.raw, hysteresis)
            applied.append(record.raw)
            continue
        smoothed = apply_hysteresis(smoothed, record.raw, hysteresis)
        applied.append(quantize_allocation(smoothed, min_tokens, max_tokens))
    return applied


__all__ = [
    "CandidateEval",
    "IntervalBand",
    "PHASE_INITIAL",
    "PHASE_TICK",
    "TickRecord",
    "apply_hysteresis",
    "quantize_allocation",
    "reconstruct_allocations",
]
