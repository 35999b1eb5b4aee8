"""Distribution-valued completion-time predictions and their calibration.

Jockey's control loop reads a *single* percentile of C(p, a) each tick;
PCS ("Towards providing reliable job completion time predictions using
PCS", PAPERS.md) argues that what a user needs is the whole distribution —
an interval with a stated probability — *plus* continuous evidence that
the stated probabilities are honest.  This module is that product surface:

* **Interval forecast** — at every non-degraded control tick the
  controller derives central prediction intervals (p50/p80/p90/p95 by
  default) for the *completion time* from the live C(p, a) distribution
  at the applied allocation (:func:`bands_from_quantiles`) and carries
  them on that decision's :class:`~repro.telemetry.audit.TickRecord`
  (``median``, ``bands``).  The audit's banded records
  (:func:`forecasts`) are the ledger: once the run finishes, each pairs a
  nominal band with the eventually-realized completion.
* **Calibration engine** — :func:`calibration` turns finished audits
  (one run or many) into a :class:`CalibrationReport`: empirical-vs-nominal
  coverage per level (reliability-diagram data), mean interval width
  (sharpness), a pinball-loss score over all quantiles (the CRPS-style
  proper scoring rule, discretized), and an explicit honesty verdict
  (``honest`` / ``overconfident`` / ``conservative`` / ``unresolved``)
  per level and overall, read by the claims' exact binomial test over
  runs (:func:`honesty`).  :func:`rolling_coverage` is the per-tick
  timeline.
* **Exposition** — module-level Prometheus gauges
  (``repro_prediction_interval_lo_seconds`` /
  ``..._hi_seconds`` / ``repro_prediction_median_seconds``, labelled by
  predictor and level, plus ``repro_prediction_coverage`` once a run is
  scored) publish the live band on the existing ``/metrics`` server, and
  every recorded tick emits a ``control.predict`` trace event.

Intervals are *pre-slack*: the control loop's slack multiplier is
deliberate pessimism, not part of the model's honest belief, so the band
comes from the raw C(p, a) quantiles.  Each interval is conditioned on
the allocation applied at that tick — the controller may later move
tokens, which is precisely the kind of dishonesty the coverage ledger is
built to expose.

Deadline-at-tick logic is shared with the SLO analytics: this module
reuses :func:`repro.telemetry.slo.deadline_at` rather than reimplementing
schedule interpolation.

No module-level imports from :mod:`repro.core` (the control loop imports
:mod:`repro.telemetry`; keeping this layer import-free of it avoids a
cycle).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from repro.telemetry import metrics as _metrics
from repro.telemetry.audit import IntervalBand, TickRecord
from repro.telemetry.slo import deadline_at

#: Central-interval probabilities the ledger records by default.  The
#: acceptance level the repo's experiments gate on is 0.9.
NOMINAL_LEVELS = (0.5, 0.8, 0.9, 0.95)

#: Relative model-error scale folded into every band (as a fraction of
#: the median predicted completion time).  The C(p, a) table's own
#: spread only captures the offline simulator's stochasticity; the
#: simulator itself diverges from the live cluster (spare-token boosts,
#: contention the profile never saw — the §5.6 divergence).  The
#: envelope's quantile function is *linear* (uniform-like: the divergence
#: behaves as a bounded run-level bias, not a heavy-tailed draw) with
#: this half-width, calibrated offline against calm-day paired-seed runs
#: of the substrate so every nominal level lands near its empirical
#: coverage.  The calibration engine below exists precisely to
#: verify that constant continuously and flag when drift or chaos
#: invalidates it.
MODEL_ERROR_REL = 0.15

#: Run coverage shown to lie within this of nominal reads honest.
HONESTY_MARGIN = Fraction(1, 20)

#: Ticks per rolling-coverage window.
ROLLING_WINDOW = 12

VERDICT_HONEST = "honest"                 # shown within the margin
VERDICT_OVERCONFIDENT = "overconfident"   # shown below nominal
VERDICT_CONSERVATIVE = "conservative"     # shown above nominal
VERDICT_UNRESOLVED = "unresolved"         # too few runs to tell
VERDICT_NO_DATA = "no-data"

_INTERVAL_LO = _metrics.REGISTRY.gauge(
    "repro_prediction_interval_lo_seconds",
    "Live lower edge of the completion-time prediction interval",
    labelnames=("predictor", "level"),
)
_INTERVAL_HI = _metrics.REGISTRY.gauge(
    "repro_prediction_interval_hi_seconds",
    "Live upper edge of the completion-time prediction interval",
    labelnames=("predictor", "level"),
)
_MEDIAN = _metrics.REGISTRY.gauge(
    "repro_prediction_median_seconds",
    "Live median predicted completion time",
    labelnames=("predictor",),
)
_COVERAGE = _metrics.REGISTRY.gauge(
    "repro_prediction_coverage",
    "Empirical interval coverage of the most recently scored run",
    labelnames=("predictor", "level"),
)
_TICKS = _metrics.REGISTRY.counter(
    "repro_prediction_ticks_total",
    "Control ticks that recorded a prediction interval",
    labelnames=("predictor",),
)


class PredictError(ValueError):
    """Raised for invalid prediction-interval requests."""


def level_label(level: float) -> str:
    """Metric-label form of a nominal level (0.9 -> ``"90"``)."""
    return f"{level * 100:g}"


def quantiles_for(levels: Sequence[float]) -> Tuple[float, ...]:
    """The sorted set of distribution quantiles needed for central
    intervals at ``levels`` plus the median."""
    qs = {0.5}
    for level in levels:
        if not 0.0 < level < 1.0:
            raise PredictError(f"interval level {level!r} out of (0, 1)")
        qs.add((1.0 - level) / 2.0)
        qs.add((1.0 + level) / 2.0)
    return tuple(sorted(qs))


def _envelope_quantile(level: float) -> float:
    """Central-interval half-width of the model-error envelope at
    ``level``, in units of the envelope half-width: linear in the level
    (a uniform error distribution's quantile function)."""
    return level


def bands_from_quantiles(
    elapsed: float,
    quantiles: Dict[float, float],
    *,
    levels: Sequence[float] = NOMINAL_LEVELS,
    error_rel: float = MODEL_ERROR_REL,
) -> Tuple[float, Tuple[IntervalBand, ...]]:
    """One tick's ``(median, bands)`` completion-time forecast from raw
    remaining-time quantiles ``{q: seconds}``.

    Remaining-time quantiles become completion-time quantiles by adding
    ``elapsed``.  Each band then widens, in quadrature, by the
    model-error envelope of half-width ``error_rel x median completion``
    — the table's own spread (first term) covers simulation
    stochasticity, the envelope (second term) covers
    simulator-vs-cluster divergence.  Pass ``error_rel=0`` for the raw
    model band.
    """
    if 0.5 not in quantiles:
        raise PredictError("quantiles must include the median (0.5)")
    if error_rel < 0:
        raise PredictError(f"error_rel must be >= 0, got {error_rel!r}")
    median = elapsed + quantiles[0.5]
    sigma = error_rel * median
    bands: List[IntervalBand] = []
    for level in sorted(levels):
        lo_q = (1.0 - level) / 2.0
        hi_q = (1.0 + level) / 2.0
        if lo_q not in quantiles or hi_q not in quantiles:
            raise PredictError(f"missing quantiles for level {level!r}")
        # Monotonicity is enforced against the median (interpolated
        # C(p, a) columns can cross by floating-point hairs).
        lo = elapsed + min(quantiles[lo_q], quantiles[0.5])
        hi = elapsed + max(quantiles[hi_q], quantiles[0.5])
        extra = _envelope_quantile(level) * sigma
        lo = median - ((median - lo) ** 2 + extra ** 2) ** 0.5
        hi = median + ((hi - median) ** 2 + extra ** 2) ** 0.5
        bands.append(IntervalBand(level=level, lo=max(lo, elapsed), hi=hi))
    return median, tuple(bands)


def forecasts(records: Sequence[TickRecord]) -> List[TickRecord]:
    """The decisions that carry an interval forecast — an audit minus its
    degraded ticks and distribution-free decisions.  Every scoring
    function below reads only these."""
    return [r for r in records if r.bands]


def publish(record: TickRecord, *, predictor: str = "unknown") -> None:
    """Update the live Prometheus gauges with one tick's band."""
    _MEDIAN.cell(predictor).set(record.median)
    for band in record.bands:
        label = level_label(band.level)
        _INTERVAL_LO.cell(predictor, label).set(band.lo)
        _INTERVAL_HI.cell(predictor, label).set(band.hi)
    _TICKS.cell(predictor).inc()


# ----------------------------------------------------------------------
# Calibration engine
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LevelCalibration:
    """Reliability-diagram point: one nominal level's empirical behaviour.
    ``ticks``/``covered`` count banded ticks; ``runs``/``runs_covered`` the
    trials :func:`honesty` judges, and ``low``/``high`` bound their rate."""

    level: float
    ticks: int
    covered: int
    mean_width_seconds: float
    sharpness: float        # mean width as a fraction of the duration
    runs: int
    runs_covered: int
    low: float
    high: float
    verdict: str

    @property
    def empirical(self) -> float:
        return self.covered / self.ticks if self.ticks else 0.0

    def summary(self) -> dict:
        return {**asdict(self), "empirical_coverage": self.empirical}


@dataclass(frozen=True)
class RollingPoint:
    """Trailing-window coverage at one tick (the honesty timeline)."""

    tick: int
    elapsed: float
    level: float
    window: int
    coverage: float


#: Readings from worst to best: a report reads its worst level's.
_SEVERITY = (
    VERDICT_OVERCONFIDENT, VERDICT_CONSERVATIVE, VERDICT_UNRESOLVED, VERDICT_HONEST,
)


@dataclass(frozen=True)
class CalibrationReport:
    """The honesty verdict on one or more runs' interval ledgers."""

    predictor: str
    duration: float          # realized completion (mean over the runs)
    runs: int                # runs with at least one banded tick
    ticks: int
    levels: Tuple[LevelCalibration, ...]
    pinball_loss: float      # mean pinball loss over all recorded quantiles

    @property
    def verdict(self) -> str:
        """Overall honesty: the worst level's reading, overconfidence
        (intervals narrower than claimed) first."""
        readings = {lv.verdict for lv in self.levels}
        return next((r for r in _SEVERITY if r in readings), VERDICT_NO_DATA)

    def level(self, level: float) -> Optional[LevelCalibration]:
        for lv in self.levels:
            if abs(lv.level - level) < 1e-9:
                return lv
        return None

    def coverage(self, level: float) -> float:
        lv = self.level(level)
        return lv.empirical if lv is not None else 0.0

    def summary(self) -> dict:
        """JSON-serializable digest (what ``repro predict score`` emits)."""
        return {
            "predictor": self.predictor,
            "duration_seconds": self.duration,
            "runs": self.runs,
            "ticks": self.ticks,
            "levels": [lv.summary() for lv in self.levels],
            "pinball_loss_seconds": self.pinball_loss,
            "verdict": self.verdict,
        }


def coverage_count(
    ledgers: Sequence[Tuple[Sequence[TickRecord], float]], level: float
) -> Tuple[int, int, float]:
    """``(ticks, covered, width sum)`` of the nominal ``level`` band over
    ``(records, realized completion)`` ledgers — each band judged against
    its own run's completion, a record without that band no tick.  The one
    count behind :func:`calibration` and the scorecards' coverage columns."""
    ticks = 0
    covered = 0
    width_sum = 0.0
    for records, duration in ledgers:
        for record in records:
            band = record.band(level)
            if band is None:
                continue
            ticks += 1
            width_sum += band.width
            if band.covers(duration):
                covered += 1
    return ticks, covered, width_sum


def run_coverage(
    ledgers: Sequence[Tuple[Sequence[TickRecord], float]], level: float
) -> Tuple[int, int]:
    """``(runs, covered)``: one trial per ledger that carries a ``level``
    band — whether its first such band, the promise made when the job
    started, covered that run's realized completion.  Honest bands make
    each trial Bernoulli(``level``) and the runs independent."""
    runs = covered = 0
    for records, duration in ledgers:
        for record in records:
            band = record.band(level)
            if band is not None:
                runs += 1
                covered += band.covers(duration)
                break
    return runs, covered


def honesty(runs: int, covered: int, level: float) -> Tuple[str, float, float]:
    """``(reading, low, high)`` for ``covered`` of ``runs`` trials at the
    nominal ``level``, each reading decided by the claims' exact test
    (:func:`repro.experiments.metrics.verdict`) at a Fraction null:
    *honest* when run coverage is shown within :data:`HONESTY_MARGIN` of
    nominal (an edge at or beyond 0 or 1 counts as met), else
    *overconfident* / *conservative* when shown below / above nominal,
    else *unresolved*; *no-data* at no runs.  ``low``/``high`` is the
    interval at the nominal null."""
    # Imported here: repro.experiments imports repro.core, which imports us.
    from repro.experiments.metrics import verdict

    if not runs:
        return VERDICT_NO_DATA, 0.0, 1.0
    nominal = Fraction(str(level))
    below, above = nominal - HONESTY_MARGIN, nominal + HONESTY_MARGIN
    misses = runs - covered
    at = verdict(covered, misses, nominal)
    if (below <= 0 or verdict(covered, misses, below).reading == "holds") and (
        above >= 1 or verdict(covered, misses, above).reading == "fails"
    ):
        return VERDICT_HONEST, at.low, at.high
    readings = {"fails": VERDICT_OVERCONFIDENT, "holds": VERDICT_CONSERVATIVE}
    return readings.get(at.reading, VERDICT_UNRESOLVED), at.low, at.high


def pinball_loss(records: Sequence[TickRecord], duration: float) -> float:
    """Mean pinball (quantile) loss of the completion-time forecasts over
    every recorded quantile — the discretized CRPS-style proper score.
    Lower is better; honest *and* sharp forecasts minimize it."""
    total = 0.0
    count = 0
    for record in forecasts(records):
        pairs = [(0.5, record.median)]
        for band in record.bands:
            pairs.append(((1.0 - band.level) / 2.0, band.lo))
            pairs.append(((1.0 + band.level) / 2.0, band.hi))
        for tau, predicted in pairs:
            diff = duration - predicted
            total += tau * diff if diff >= 0 else (tau - 1.0) * diff
            count += 1
    return total / count if count else 0.0


def rolling_coverage(
    records: Sequence[TickRecord],
    duration: float,
    *,
    level: float = 0.9,
    window: int = ROLLING_WINDOW,
) -> List[RollingPoint]:
    """Trailing-window empirical coverage at one level, per tick: the
    honesty timeline that localizes *when* in the run intervals went bad."""
    if window < 1:
        raise PredictError(f"window must be >= 1, got {window!r}")
    hits: List[bool] = []
    points: List[RollingPoint] = []
    for record in records:
        band = record.band(level)
        if band is None:
            continue
        hits.append(band.covers(duration))
        tail = hits[-window:]
        points.append(RollingPoint(
            tick=record.tick,
            elapsed=record.elapsed,
            level=level,
            window=len(tail),
            coverage=sum(tail) / len(tail),
        ))
    return points


def calibration(
    ledgers: Sequence[Tuple[Sequence[TickRecord], float]],
    *,
    predictor: str = "controller",
) -> CalibrationReport:
    """Score ``(records, realized completion)`` ledgers, one per run, into
    one reliability report.  Each band is judged against *its own* run's
    completion; coverage, widths and the pinball loss count every banded
    tick.  Ticks of one run face one completion, so they are not
    independent evidence: each level's verdict is :func:`honesty` over
    :func:`run_coverage`'s one trial per run."""
    for _records, duration in ledgers:
        if duration <= 0:
            raise PredictError(f"duration must be positive, got {duration!r}")
    ledgers = [(forecasts(records), duration) for records, duration in ledgers]
    durations = [float(duration) for _records, duration in ledgers]
    mean_duration = sum(durations) / len(durations) if durations else 0.0
    levels: List[LevelCalibration] = []
    for level in sorted({
        band.level for records, _d in ledgers for record in records for band in record.bands
    }):
        ticks, covered, width_sum = coverage_count(ledgers, level)
        runs, runs_covered = run_coverage(ledgers, level)
        reading, low, high = honesty(runs, runs_covered, level)
        mean_width = width_sum / ticks
        levels.append(LevelCalibration(
            level=level,
            ticks=ticks,
            covered=covered,
            mean_width_seconds=mean_width,
            sharpness=mean_width / mean_duration,
            runs=runs,
            runs_covered=runs_covered,
            low=low,
            high=high,
            verdict=reading,
        ))
    ticks_total = sum(len(records) for records, _duration in ledgers)
    total_loss = sum(
        pinball_loss(records, duration) * len(records) for records, duration in ledgers
    )
    report = CalibrationReport(
        predictor=predictor,
        duration=mean_duration,
        runs=sum(1 for records, _duration in ledgers if records),
        ticks=ticks_total,
        levels=tuple(levels),
        pinball_loss=total_loss / ticks_total if ticks_total else 0.0,
    )
    for lv in report.levels:
        _COVERAGE.labels(
            predictor=predictor, level=level_label(lv.level)
        ).set(lv.empirical)
    return report


#: Table headers matching :func:`reliability_rows`.
RELIABILITY_HEADERS = (
    "level",
    "ticks",
    "covered",
    "empirical",
    "mean width [min]",
    "sharpness [% dur]",
    "runs covered",
    "verdict",
)


def reliability_rows(report: CalibrationReport) -> List[List]:
    """Rows (matching :data:`RELIABILITY_HEADERS`) for report tables."""
    rows: List[List] = []
    for lv in report.levels:
        rows.append([
            f"{lv.level * 100:g}%",
            lv.ticks,
            lv.covered,
            lv.empirical,
            lv.mean_width_seconds / 60.0,
            100.0 * lv.sharpness,
            f"{lv.runs_covered}/{lv.runs}",
            lv.verdict,
        ])
    return rows


#: Table headers matching :func:`timeline_rows`.
TIMELINE_HEADERS = (
    "tick",
    "elapsed [min]",
    "alloc",
    "p50 [min]",
    "p80 band [min]",
    "p95 band [min]",
    "deadline [min]",
    "hit90",
)


def timeline_rows(
    records: Sequence[TickRecord],
    *,
    duration: Optional[float] = None,
    deadline: Optional[float] = None,
    schedule: Sequence[Tuple[float, float]] = (),
) -> List[List]:
    """Per-tick interval table (what ``repro predict timeline`` prints),
    one row per record that carries bands.

    With a ``duration`` the last column marks whether the 90% band covered
    the realized completion; with a ``deadline`` the in-force deadline
    column replays scripted mid-run changes via the shared
    :func:`~repro.telemetry.slo.deadline_at` helper.
    """
    rows: List[List] = []
    for record in forecasts(records):
        b80 = record.band(0.8)
        b95 = record.band(0.95)
        b90 = record.band(0.9)
        if duration is not None and b90 is not None:
            hit = "y" if b90.covers(duration) else "n"
        else:
            hit = "-"
        rows.append([
            record.tick,
            record.elapsed / 60.0,
            record.allocation,
            record.median / 60.0,
            (f"[{b80.lo / 60.0:.1f}, {b80.hi / 60.0:.1f}]"
             if b80 is not None else "-"),
            (f"[{b95.lo / 60.0:.1f}, {b95.hi / 60.0:.1f}]"
             if b95 is not None else "-"),
            (deadline_at(record.elapsed, deadline, schedule) / 60.0
             if deadline is not None else "-"),
            hit,
        ])
    return rows


__all__ = [
    "CalibrationReport",
    "HONESTY_MARGIN",
    "IntervalBand",
    "LevelCalibration",
    "NOMINAL_LEVELS",
    "PredictError",
    "RELIABILITY_HEADERS",
    "ROLLING_WINDOW",
    "RollingPoint",
    "TIMELINE_HEADERS",
    "VERDICT_CONSERVATIVE",
    "VERDICT_HONEST",
    "VERDICT_NO_DATA",
    "VERDICT_OVERCONFIDENT",
    "VERDICT_UNRESOLVED",
    "bands_from_quantiles",
    "calibration",
    "coverage_count",
    "forecasts",
    "honesty",
    "level_label",
    "pinball_loss",
    "publish",
    "quantiles_for",
    "reliability_rows",
    "rolling_coverage",
    "run_coverage",
    "timeline_rows",
]
