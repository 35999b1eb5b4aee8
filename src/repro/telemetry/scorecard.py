"""Predictor/indicator scorecards: predicted vs. realized remaining time.

The paper judges its predictors two ways: end-to-end latency error
(Fig. 8) and the tick-by-tick behaviour of completion-time estimates under
each progress indicator (Figs. 9-10).  A :class:`Scorecard` generalizes
both: join each tick's *predicted* remaining time against the *realized*
remaining time (job duration minus the tick's elapsed time, known once the
run finishes), then summarize the error distribution — signed bias plus
the p50/p90/max of the absolute error, in seconds and as fractions of the
job duration.

Build one from a controller audit trail (:func:`from_audit`, which also
counts how often the records' interval forecasts covered the realized
completion) or from raw ``(elapsed, predicted_remaining)`` pairs
(:meth:`Scorecard.from_predictions` — what the indicator comparison uses
for all six indicators).

No numerical library on purpose: scorecard numbers appear in golden-tested
reports, so quantiles are computed with an explicit linear-interpolation
rule rather than delegating to a library whose defaults could drift.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as _replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.telemetry.predict import coverage_count

#: The nominal levels whose interval coverage a scorecard reports (its
#: ``cov@80%`` / ``cov@95%`` columns).
COVERAGE_LEVELS = (0.8, 0.95)


def quantile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile of an ascending-sorted sample (the
    same rule as ``numpy.quantile``'s default, spelled out)."""
    if not sorted_values:
        raise ValueError("quantile of empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q!r} out of [0, 1]")
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac


@dataclass(frozen=True)
class ScorePoint:
    """One tick's prediction joined against what actually happened."""

    elapsed: float
    predicted_remaining: float
    realized_remaining: float

    @property
    def error(self) -> float:
        """Signed: positive means the predictor was pessimistic."""
        return self.predicted_remaining - self.realized_remaining


@dataclass(frozen=True)
class Scorecard:
    """Error-distribution summary for one predictor/indicator on one or
    more runs."""

    name: str
    points: Tuple[ScorePoint, ...]
    duration: float              # mean job duration over the merged runs
    #: Per-level ``(nominal level, covered ticks, interval ticks)`` over
    #: :data:`COVERAGE_LEVELS`, counted by :func:`from_audit` from the
    #: records' interval forecasts.  Empty when no record carried one.
    interval_hits: Tuple[Tuple[float, int, int], ...] = ()

    def interval_coverage(self, level: float) -> Optional[float]:
        """Empirical coverage of the nominal ``level`` band, or None when
        the ledger recorded no bands at that level."""
        for lv, covered, ticks in self.interval_hits:
            if abs(lv - level) < 1e-9 and ticks:
                return covered / ticks
        return None

    @classmethod
    def from_predictions(
        cls,
        name: str,
        predictions: Sequence[Tuple[float, float]],
        duration: float,
    ) -> "Scorecard":
        """Join ``(elapsed, predicted_remaining)`` pairs against the known
        duration."""
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration!r}")
        points = tuple(
            ScorePoint(
                elapsed=float(t),
                predicted_remaining=float(pred),
                realized_remaining=duration - float(t),
            )
            for t, pred in predictions
            if t <= duration
        )
        return cls(name=name, points=points, duration=float(duration))

    # ------------------------------------------------------------------
    # Error distribution
    # ------------------------------------------------------------------

    def _abs_errors(self) -> List[float]:
        return sorted(abs(p.error) for p in self.points)

    @property
    def ticks(self) -> int:
        return len(self.points)

    @property
    def bias_seconds(self) -> float:
        """Mean signed error: + pessimistic, − optimistic."""
        if not self.points:
            return 0.0
        return sum(p.error for p in self.points) / len(self.points)

    @property
    def p50_abs_error(self) -> float:
        return quantile(self._abs_errors(), 0.5) if self.points else 0.0

    @property
    def p90_abs_error(self) -> float:
        return quantile(self._abs_errors(), 0.9) if self.points else 0.0

    @property
    def max_abs_error(self) -> float:
        return self._abs_errors()[-1] if self.points else 0.0

    def relative(self, seconds: float) -> float:
        """An error expressed as a fraction of the job duration."""
        return seconds / self.duration if self.duration > 0 else 0.0

    def summary(self) -> dict:
        """JSON-serializable digest (the numbers reports embed)."""
        out = {
            "name": self.name,
            "ticks": self.ticks,
            "bias_seconds": self.bias_seconds,
            "p50_abs_error_seconds": self.p50_abs_error,
            "p90_abs_error_seconds": self.p90_abs_error,
            "max_abs_error_seconds": self.max_abs_error,
            "p90_abs_error_fraction": self.relative(self.p90_abs_error),
        }
        if self.interval_hits:
            out["interval_coverage"] = {
                f"{level * 100:g}": (covered / ticks if ticks else 0.0)
                for level, covered, ticks in self.interval_hits
            }
        return out


def from_audit(
    records: Sequence,
    duration: float,
    *,
    name: Optional[str] = None,
) -> Scorecard:
    """Scorecard for a controller's own predictions, from its audit trail.
    Each prediction is judged pre-slack, divided by the slack its record
    was decided with (the slack is deliberate pessimism, not model error).
    When records carry interval forecasts, the card counts their coverage
    too."""
    card = Scorecard.from_predictions(
        name if name is not None else "controller",
        [(r.elapsed, r.predicted_remaining / r.slack) for r in records],
        duration,
    )
    if not any(r.bands for r in records):
        return card
    hits = []
    for level in COVERAGE_LEVELS:
        ticks, covered, _width = coverage_count([(records, duration)], level)
        hits.append((level, covered, ticks))
    return _replace(card, interval_hits=tuple(hits))


def merge(name: str, cards: Sequence[Scorecard]) -> Scorecard:
    """Pool several runs' scorecards (e.g. one per experiment repetition)
    into a single error distribution.  Interval-coverage counts sum per
    nominal level, so the merged coverage is over pooled ticks."""
    cards = [c for c in cards if c.points]
    if not cards:
        return Scorecard(name=name, points=(), duration=0.0)
    points = tuple(p for c in cards for p in c.points)
    duration = sum(c.duration for c in cards) / len(cards)
    pooled: Dict[float, List[int]] = {}
    for card in cards:
        for level, covered, ticks in card.interval_hits:
            totals = pooled.setdefault(float(level), [0, 0])
            totals[0] += covered
            totals[1] += ticks
    return Scorecard(
        name=name,
        points=points,
        duration=duration,
        interval_hits=tuple(
            (level, pooled[level][0], pooled[level][1])
            for level in sorted(pooled)
        ),
    )


#: Table headers matching :func:`scorecard_rows`.  The last two columns
#: are the prediction observatory's interval coverage: the empirical hit
#: rate of the nominal 80% / 95% completion-time bands ("-" when no record
#: carried a forecast: distribution-free predictors, indicator cards).
SCORECARD_HEADERS = (
    "predictor",
    "ticks",
    "bias [min]",
    "p50 |err| [min]",
    "p90 |err| [min]",
    "max |err| [min]",
    "p90 |err| [% dur]",
    "cov@80%",
    "cov@95%",
)


def _coverage_cell(card: Scorecard, level: float) -> str:
    coverage = card.interval_coverage(level)
    return f"{coverage:.2f}" if coverage is not None else "-"


def scorecard_rows(cards: Sequence[Scorecard]) -> List[List]:
    """Rows (matching :data:`SCORECARD_HEADERS`) for report tables."""
    rows: List[List] = []
    for card in cards:
        rows.append([
            card.name,
            card.ticks,
            card.bias_seconds / 60.0,
            card.p50_abs_error / 60.0,
            card.p90_abs_error / 60.0,
            card.max_abs_error / 60.0,
            100.0 * card.relative(card.p90_abs_error),
            *(_coverage_cell(card, level) for level in COVERAGE_LEVELS),
        ])
    return rows


__all__ = [
    "COVERAGE_LEVELS",
    "SCORECARD_HEADERS",
    "ScorePoint",
    "Scorecard",
    "from_audit",
    "merge",
    "quantile",
    "scorecard_rows",
]
