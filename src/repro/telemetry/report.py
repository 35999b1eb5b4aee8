"""Self-contained run reports: SLO verdict, timelines, scorecards.

A :class:`RunReport` bundles what one run left behind — the SLO attainment
verdict (:mod:`repro.telemetry.slo`), predictor scorecards
(:mod:`repro.telemetry.scorecard`), and the allocation/progress/risk time
series — and renders it either as a **single-file HTML page** (inline CSS
and SVG, no external resources, dark-mode aware) or as plain text for
terminals.

Three builders cover the artifact shapes a run can leave:

* :func:`from_result` — an in-process
  :class:`~repro.experiments.runner.ExperimentResult` (``repro run
  --report-out``);
* :func:`from_audit_and_trace` — a finished trace plus the controller's
  audit records, whose banded ticks carry the interval forecasts (what
  experiments hold);
* :func:`from_trace_events` — a saved structured-event file alone
  (``repro report run.trace.json``), reconstructing the series from
  ``control.tick`` / ``job.allocation`` / ``task.end`` / ``job.complete``
  events.

Every number shown is computed by the :mod:`~repro.telemetry.slo` and
:mod:`~repro.telemetry.scorecard` functions — the report is a view, never a
second implementation (tests recompute from the same records and compare).
Imports from :mod:`repro.core`/:mod:`repro.jobs` are deferred into function
bodies: the control loop imports this package, so the module level must
stay stdlib-only.
"""

from __future__ import annotations

import html as _html
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.telemetry.audit import PHASE_TICK, TickRecord
from repro.telemetry.predict import (
    RELIABILITY_HEADERS,
    CalibrationReport,
    calibration as _predict_calibration,
    forecasts as _forecasts,
    reliability_rows,
)
from repro.telemetry.scorecard import (
    SCORECARD_HEADERS,
    Scorecard,
    from_audit as _scorecard_from_audit,
    scorecard_rows,
)
from repro.telemetry.slo import AT_RISK_THRESHOLD, SloAttainment, analyze_run


class ReportError(ValueError):
    """Raised when a report cannot be built from the given artifacts."""


@dataclass
class RunReport:
    """Everything one rendered report shows, precomputed."""

    title: str
    slo: SloAttainment
    scorecards: Tuple[Scorecard, ...] = ()
    #: (seconds, tokens) step samples of the applied allocation.
    allocation_series: Tuple[Tuple[float, float], ...] = ()
    #: (seconds, tokens) raw controller choices (pre-hysteresis).
    raw_series: Tuple[Tuple[float, float], ...] = ()
    #: (seconds, progress in [0, 1]) from the controller's indicator.
    progress_series: Tuple[Tuple[float, float], ...] = ()
    notes: Tuple[str, ...] = field(default_factory=tuple)
    #: (label, count) rows for the chaos-injection section; empty when the
    #: run had no chaos engine attached.
    chaos: Tuple[Tuple[str, float], ...] = ()
    #: Additional (section title, (label, value) rows) tables rendered
    #: after the chaos section — e.g. the fleet driver's per-template
    #: lineage/staleness summary.
    extra_sections: Tuple[Tuple[str, Tuple[Tuple[str, float], ...]], ...] = ()
    #: The audit records that carry an interval forecast (one per
    #: non-degraded control tick); drive the fan chart.
    forecasts: Tuple[TickRecord, ...] = ()
    #: Honesty verdict on those forecasts, scored against the realized
    #: completion; None when the run recorded no intervals.
    prediction_calibration: Optional[CalibrationReport] = None


#: Display order and labels for the flat dict ChaosEngine.summary() returns.
_CHAOS_SUMMARY_LABELS = (
    ("rack_batches", "rack failure batches"),
    ("machines_failed", "machines failed"),
    ("eviction_storms", "eviction storms"),
    ("token_shocks", "token-supply shocks"),
    ("tokens_seized_peak", "peak tokens seized"),
    ("profile_drifts", "profile drifts"),
    ("ticks_dropped", "control ticks dropped"),
    ("ticks_delayed", "control ticks delayed"),
    ("blackout_hits", "predictor blackout hits"),
    ("degraded_ticks", "degraded control ticks"),
    ("allocation_deficits", "allocation deficits"),
    ("allocation_retries", "allocation retries"),
)


def chaos_rows_from_summary(summary: Optional[Dict]) -> Tuple[Tuple[str, float], ...]:
    """Turn a :meth:`ChaosEngine.summary` dict into report rows (skipping
    zero counters so quiet injectors do not pad the table)."""
    if not summary:
        return ()
    return tuple(
        (label, float(summary[key]))
        for key, label in _CHAOS_SUMMARY_LABELS
        if summary.get(key)
    )


#: Display order and labels for a fleet TemplateSummary dict.
_FLEET_SUMMARY_LABELS = (
    ("days", "days simulated"),
    ("attainment", "SLO attainment"),
    ("rebuilds", "model rebuilds"),
    ("drift_detections", "drift detections"),
    ("profiling_runs", "profiling runs"),
    ("mean_staleness_days", "mean model staleness [days]"),
    ("final_generation", "final stored generation"),
    ("deadline_minutes", "deadline [min]"),
    ("prediction_ticks", "interval ticks"),
    ("coverage90", "interval coverage @90%"),
)


def fleet_rows_from_summary(summary: Optional[Dict]) -> Tuple[Tuple[str, float], ...]:
    """Turn a fleet :class:`~repro.fleet.driver.TemplateSummary` dict into
    an ``extra_sections`` row tuple for the run report."""
    if not summary:
        return ()
    return tuple(
        (label, float(summary[key]))
        for key, label in _FLEET_SUMMARY_LABELS
        if key in summary
    )


#: Display order and labels for a market run digest
#: (:meth:`~repro.market.engine.MarketResult.to_digest`).
_MARKET_SUMMARY_LABELS = (
    ("capacity", "cluster capacity [tokens]"),
    ("ticks", "market ticks"),
    ("submitted", "jobs submitted"),
    ("admitted", "jobs admitted"),
    ("rejected", "jobs rejected"),
    ("met", "deadlines met"),
    ("attainment", "SLO attainment"),
    ("mean_queue_delay_seconds", "mean queue delay [s]"),
)


def market_rows_from_summary(summary: Optional[Dict]) -> Tuple[Tuple[str, float], ...]:
    """Turn a token-market run digest into an ``extra_sections`` row tuple
    ("Token market" section) for the run report."""
    if not summary:
        return ()
    return tuple(
        (label, float(summary[key]))
        for key, label in _MARKET_SUMMARY_LABELS
        if key in summary
    )


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------


def from_audit_and_trace(
    trace,
    records: Sequence = (),
    *,
    policy: str = "unknown",
    deadline: Optional[float] = None,
    table=None,
    schedule: Sequence[Tuple[float, float]] = (),
    title: Optional[str] = None,
    notes: Sequence[str] = (),
    chaos: Sequence[Tuple[str, float]] = (),
    extra_sections: Sequence[Tuple[str, Sequence[Tuple[str, float]]]] = (),
) -> RunReport:
    """Report for a finished :class:`~repro.jobs.trace.RunTrace` plus its
    controller audit trail (the in-process case); ``deadline`` is the initial
    one when a ``schedule`` changed it mid-run (default: the trace's)."""
    slo = analyze_run(
        trace, records, policy=policy, deadline=deadline, table=table,
        schedule=schedule,
    )
    forecasts = tuple(_forecasts(records))
    return RunReport(
        title=title if title is not None else f"{trace.job_name} / {policy}",
        slo=slo,
        scorecards=(
            (_scorecard_from_audit(records, trace.duration, name=policy),)
            if records else ()
        ),
        allocation_series=tuple(
            (float(t), float(a)) for t, a in trace.allocation_timeline
        ),
        raw_series=tuple((r.elapsed, float(r.raw)) for r in records),
        progress_series=tuple(
            (r.elapsed, float(r.progress))
            for r in records
            if getattr(r, "progress", None) is not None
        ),
        notes=tuple(notes),
        chaos=tuple(chaos),
        extra_sections=tuple(
            (section_title, tuple(rows)) for section_title, rows in extra_sections
        ),
        forecasts=forecasts,
        prediction_calibration=(
            _predict_calibration(forecasts, trace.duration, predictor=policy)
            if forecasts
            else None
        ),
    )


def from_result(result, *, table=None, title: Optional[str] = None) -> RunReport:
    """Report for an :class:`~repro.experiments.runner.ExperimentResult`:
    :func:`from_audit_and_trace` over the run's own artifacts and scripted
    deadline changes."""
    schedule = tuple(result.deadline_changes)
    notes = [f"runtime scale {result.runtime_scale:.3f}"]
    if schedule:
        notes.append(
            "deadline changes: "
            + ", ".join(f"{d / 60:.0f} min at t={t / 60:.0f} min" for t, d in schedule)
        )
    return from_audit_and_trace(
        result.trace,
        result.audit_records,
        policy=result.metrics.policy,
        deadline=result.initial_deadline or result.trace.deadline,
        table=table,
        schedule=schedule,
        title=(
            title
            if title is not None
            else f"{result.metrics.job} / {result.metrics.policy}"
        ),
        notes=notes,
        chaos=chaos_rows_from_summary(result.chaos_summary),
    )


def from_trace_events(
    events: Sequence,
    *,
    deadline: Optional[float] = None,
    policy: Optional[str] = None,
    table=None,
    slack: float = 1.0,
    title: Optional[str] = None,
) -> RunReport:
    """Reconstruct a report from saved structured trace events alone.

    Requires a ``job.complete`` event (the run must have finished inside
    the ring buffer's window) and a deadline — either recorded on the
    ``job.complete`` event or passed explicitly.  Early events lost to
    ring-buffer overflow only thin out the series; the verdict needs just
    the completion event.  The trace does not record the controller's
    slack: every rebuilt decision is stamped with ``slack``.  The events'
    fields are trusted to match :data:`~repro.telemetry.trace.EVENTS`: they
    come from :func:`~repro.telemetry.export.load_events`, which checks
    them, or from a live recorder.
    """
    from repro.jobs.trace import RunTrace, TaskRecord, TraceError  # deferred: layering

    if not 0.0 < slack < math.inf:
        raise ReportError(f"slack must be positive and finite, got {slack!r}")
    complete = None
    ticks: List[TickRecord] = []
    allocation_series: List[Tuple[float, int]] = []
    tasks: List[TaskRecord] = []
    predictor = None
    chaos_counts: Dict[str, int] = {}
    for position, event in enumerate(events, 1):
        fields = event.fields
        if event.kind.startswith("chaos.") or event.kind in (
            "control.degraded",
            "control.allocation_deficit",
            "control.allocation_retry",
        ):
            chaos_counts[event.kind] = chaos_counts.get(event.kind, 0) + 1
        if event.kind == "job.complete":
            complete = fields
        elif event.kind == "control.tick":
            predictor = fields["predictor"]
            # Traces written before the initial decision had its own event
            # carry no tick or phase: every event was a periodic tick.
            ticks.append(TickRecord(
                tick=fields.get("tick", len(ticks)),
                phase=fields.get("phase", PHASE_TICK),
                elapsed=event.ts, progress=fields["progress"], candidates=(),
                raw=fields["raw"], dead_zone_triggered=fields["dead_zone_triggered"],
                prev_smoothed=None, smoothed=fields["smoothed"],
                allocation=fields["allocation"],
                predicted_remaining=fields["predicted_remaining"],
                utility=fields["utility"], slack=slack,
            ))
        elif event.kind == "job.allocation":
            allocation_series.append((event.ts, fields["applied"]))
        elif event.kind == "task.end":
            try:
                tasks.append(TaskRecord(
                    fields["stage"], fields["index"], fields["attempt"],
                    fields["start"], fields["start"], fields["end"], fields["outcome"],
                ))
            except TraceError as exc:
                raise ReportError(
                    f"event {position} of {len(events)} (kind 'task.end', job "
                    f"{fields['job']!r}, stage {fields['stage']!r}): {exc}"
                ) from None
    if complete is None:
        raise ReportError(
            "no job.complete event in the trace — the run did not finish "
            "inside the recorded window, so no SLO verdict is possible"
        )
    if deadline is None:
        deadline = complete.get("deadline")
    if deadline is None:
        raise ReportError(
            "trace records no deadline (older trace format); pass one "
            "explicitly (repro report --deadline-minutes N)"
        )
    job = complete["job"]
    trace = RunTrace(
        job_name=job,
        start_time=complete["start"],
        end_time=complete["end"],
        records=tasks,
        allocation_timeline=allocation_series,
        deadline=float(deadline),
    )
    policy_name = policy if policy is not None else (predictor or "trace")
    notes = [f"reconstructed from {len(events)} trace events"]
    if not tasks:
        notes.append(
            "no task.end events in window: CPU-seconds and spend ratio are 0"
        )
    chaos_rows = tuple(
        (f"{kind} events", float(count))
        for kind, count in sorted(chaos_counts.items())
    )
    return from_audit_and_trace(
        trace,
        ticks,
        policy=policy_name,
        table=table,
        title=title if title is not None else f"{job} / {policy_name} (from trace)",
        notes=notes,
        chaos=chaos_rows,
    )


# ----------------------------------------------------------------------
# SVG charts
#
# Colors, mark weights, and legend behaviour follow the dataviz palette:
# series-1 blue / series-2 orange (validated pair), 2px lines, one y-axis,
# text always in ink tokens, a legend only when two series share a plot,
# and per-point <title> tooltips as the static hover layer.
# ----------------------------------------------------------------------

_CHART_W = 680
_CHART_H = 180
_MARGIN_L = 52
_MARGIN_R = 14
_MARGIN_T = 12
_MARGIN_B = 26
#: Above this many points, tooltip markers are subsampled (the line itself
#: always uses every point).
_MAX_MARKERS = 120


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _x_scale(x_max: float):
    span = _CHART_W - _MARGIN_L - _MARGIN_R
    x_max = max(x_max, 1e-9)
    return lambda x: _MARGIN_L + span * (x / x_max)


def _y_scale(y_max: float):
    span = _CHART_H - _MARGIN_T - _MARGIN_B
    y_max = max(y_max, 1e-9)
    return lambda y: _CHART_H - _MARGIN_B - span * (y / y_max)


def _step_path(points: Sequence[Tuple[float, float]], sx, sy) -> str:
    parts = []
    for i, (x, y) in enumerate(points):
        if i == 0:
            parts.append(f"M{_fmt(sx(x))},{_fmt(sy(y))}")
        else:
            parts.append(f"H{_fmt(sx(x))}V{_fmt(sy(y))}")
    return "".join(parts)


def _line_path(points: Sequence[Tuple[float, float]], sx, sy) -> str:
    return "".join(
        ("M" if i == 0 else "L") + f"{_fmt(sx(x))},{_fmt(sy(y))}"
        for i, (x, y) in enumerate(points)
    )


def _markers(
    points: Sequence[Tuple[float, float]],
    sx,
    sy,
    color_var: str,
    label: str,
    unit: str,
) -> List[str]:
    stride = max(1, len(points) // _MAX_MARKERS)
    out = []
    for x, y in points[::stride]:
        tip = _html.escape(f"{label}: {y:.3g}{unit} at {x / 60:.1f} min")
        out.append(
            f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="3.5" '
            f'fill="var({color_var})" opacity="0"><title>{tip}</title></circle>'
        )
    return out


def _svg_chart(
    chart_title: str,
    series: Sequence[Tuple[str, Sequence[Tuple[float, float]], str]],
    *,
    x_max: float,
    y_max: float,
    unit: str = "",
    step: bool = False,
    extend_to: Optional[float] = None,
    vline: Optional[Tuple[float, str]] = None,
    hline: Optional[Tuple[float, str]] = None,
) -> str:
    """One chart: ``series`` is ``(label, points, css color var)``.  Step
    series are extended horizontally to ``extend_to`` (job end)."""
    sx, sy = _x_scale(x_max), _y_scale(y_max)
    body: List[str] = []
    # Recessive grid: baseline + three horizontal gridlines with y labels.
    for frac in (0.0, 0.5, 1.0):
        y = y_max * frac
        py = _fmt(sy(y))
        body.append(
            f'<line x1="{_MARGIN_L}" y1="{py}" x2="{_CHART_W - _MARGIN_R}" '
            f'y2="{py}" stroke="var(--grid)" stroke-width="1"/>'
        )
        body.append(
            f'<text x="{_MARGIN_L - 6}" y="{py}" text-anchor="end" '
            f'dominant-baseline="middle" class="tick">{y:.3g}</text>'
        )
    # x labels in minutes at 0 / mid / end.
    for frac in (0.0, 0.5, 1.0):
        x = x_max * frac
        body.append(
            f'<text x="{_fmt(sx(x))}" y="{_CHART_H - 8}" text-anchor="middle" '
            f'class="tick">{x / 60:.0f} min</text>'
        )
    if vline is not None:
        x, label = vline
        if 0 <= x <= x_max:
            px = _fmt(sx(x))
            body.append(
                f'<line x1="{px}" y1="{_MARGIN_T}" x2="{px}" '
                f'y2="{_CHART_H - _MARGIN_B}" stroke="var(--ink-muted)" '
                f'stroke-width="1" stroke-dasharray="4 3"/>'
                f'<text x="{px}" y="{_MARGIN_T + 2}" text-anchor="middle" '
                f'dominant-baseline="hanging" class="tick">{_html.escape(label)}</text>'
            )
    if hline is not None:
        y, label = hline
        if 0 <= y <= y_max:
            py = _fmt(sy(y))
            body.append(
                f'<line x1="{_MARGIN_L}" y1="{py}" x2="{_CHART_W - _MARGIN_R}" '
                f'y2="{py}" stroke="var(--ink-muted)" stroke-width="1" '
                f'stroke-dasharray="4 3"/>'
                f'<text x="{_CHART_W - _MARGIN_R}" y="{py}" text-anchor="end" '
                f'dy="-4" class="tick">{_html.escape(label)}</text>'
            )
    for label, points, color_var in series:
        if not points:
            continue
        pts = list(points)
        if step and extend_to is not None and pts[-1][0] < extend_to:
            pts.append((extend_to, pts[-1][1]))
        path = _step_path(pts, sx, sy) if step else _line_path(pts, sx, sy)
        body.append(
            f'<path d="{path}" fill="none" stroke="var({color_var})" '
            f'stroke-width="2" stroke-linejoin="round"/>'
        )
        body.extend(_markers(pts, sx, sy, color_var, label, unit))
    legend = ""
    drawn = [s for s in series if s[1]]
    if len(drawn) >= 2:
        items = "".join(
            f'<span class="key"><span class="swatch" '
            f'style="background:var({color_var})"></span>{_html.escape(label)}</span>'
            for label, _pts, color_var in drawn
        )
        legend = f'<div class="legend">{items}</div>'
    return (
        f'<figure><figcaption>{_html.escape(chart_title)}</figcaption>'
        f'<svg viewBox="0 0 {_CHART_W} {_CHART_H}" role="img" '
        f'aria-label="{_html.escape(chart_title)}">{"".join(body)}</svg>'
        f"{legend}</figure>"
    )


def _band_polygon(
    records: Sequence[TickRecord], level: float, sx, sy, opacity: float
) -> str:
    """One nominal level's fan wedge: upper edge left-to-right, lower edge
    back, closed and filled."""
    upper: List[str] = []
    lower: List[str] = []
    for record in records:
        band = record.band(level)
        if band is None:
            continue
        x = _fmt(sx(record.elapsed))
        upper.append(f"{x},{_fmt(sy(band.hi / 60.0))}")
        lower.append(f"{x},{_fmt(sy(band.lo / 60.0))}")
    if len(upper) < 2:
        return ""
    points = " ".join(upper + lower[::-1])
    tip = _html.escape(f"{level * 100:g}% prediction interval")
    return (
        f'<polygon points="{points}" fill="var(--s1)" '
        f'opacity="{opacity:g}"><title>{tip}</title></polygon>'
    )


def _fan_chart(
    pts: Sequence[TickRecord],
    duration: float,
    deadline: float,
) -> str:
    """The prediction fan: p95/p80 completion-time bands (y, minutes) per
    banded control tick (x), the median path, and the realized completion
    the bands were supposed to cover."""
    if len(pts) < 2:
        return ""
    x_max = max(duration, max(r.elapsed for r in pts))
    y_top = max(
        max((r.band(0.95).hi if r.band(0.95) else r.median) for r in pts),
        duration,
        deadline,
    ) / 60.0
    sx, sy = _x_scale(x_max), _y_scale(y_top * 1.05)
    body: List[str] = []
    for frac in (0.0, 0.5, 1.0):
        y = y_top * 1.05 * frac
        py = _fmt(sy(y))
        body.append(
            f'<line x1="{_MARGIN_L}" y1="{py}" x2="{_CHART_W - _MARGIN_R}" '
            f'y2="{py}" stroke="var(--grid)" stroke-width="1"/>'
            f'<text x="{_MARGIN_L - 6}" y="{py}" text-anchor="end" '
            f'dominant-baseline="middle" class="tick">{y:.3g}</text>'
        )
    for frac in (0.0, 0.5, 1.0):
        x = x_max * frac
        body.append(
            f'<text x="{_fmt(sx(x))}" y="{_CHART_H - 8}" text-anchor="middle" '
            f'class="tick">{x / 60:.0f} min</text>'
        )
    body.append(_band_polygon(pts, 0.95, sx, sy, 0.15))
    body.append(_band_polygon(pts, 0.8, sx, sy, 0.25))
    median_points = [(r.elapsed, r.median / 60.0) for r in pts]
    body.append(
        f'<path d="{_line_path(median_points, sx, sy)}" fill="none" '
        f'stroke="var(--s1)" stroke-width="2" stroke-linejoin="round"/>'
    )
    body.extend(
        _markers(median_points, sx, sy, "--s1", "p50 completion", " min")
    )
    py = _fmt(sy(duration / 60.0))
    body.append(
        f'<line x1="{_MARGIN_L}" y1="{py}" x2="{_CHART_W - _MARGIN_R}" '
        f'y2="{py}" stroke="var(--s2)" stroke-width="2" '
        f'stroke-dasharray="6 3"/>'
        f'<text x="{_CHART_W - _MARGIN_R}" y="{py}" text-anchor="end" '
        f'dy="-4" class="tick">realized {duration / 60:.1f} min</text>'
    )
    caption = (
        "Prediction fan: completion-time bands (p80 dark, p95 light) and "
        "median per control tick vs the realized completion"
    )
    return (
        f'<figure><figcaption>{_html.escape(caption)}</figcaption>'
        f'<svg viewBox="0 0 {_CHART_W} {_CHART_H}" role="img" '
        f'aria-label="{_html.escape(caption)}">{"".join(body)}</svg></figure>'
    )


# ----------------------------------------------------------------------
# HTML rendering
# ----------------------------------------------------------------------

_CSS = """
:root {
  --surface: #fcfcfb; --panel: #f4f4f2;
  --ink: #1a1a19; --ink-secondary: #50504d; --ink-muted: #75756f;
  --grid: #e4e4e0; --s1: #2a78d6; --s2: #eb6834;
  --good: #1a7f37; --bad: #c0352b;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface: #1a1a19; --panel: #242422;
    --ink: #f0efea; --ink-secondary: #bdbcb5; --ink-muted: #8f8e86;
    --grid: #33332f; --s1: #3987e5; --s2: #d95926;
    --good: #3fb950; --bad: #f47067;
  }
}
* { box-sizing: border-box; }
body { margin: 2rem auto; max-width: 760px; padding: 0 1rem;
       background: var(--surface); color: var(--ink);
       font: 15px/1.5 system-ui, sans-serif; }
h1 { font-size: 1.3rem; margin: 0 0 .25rem; }
h2 { font-size: 1.05rem; margin: 2rem 0 .5rem; color: var(--ink-secondary); }
.badge { display: inline-block; padding: .15rem .6rem; border-radius: 999px;
         font-weight: 600; font-size: .85rem; color: #fff; }
.badge.met { background: var(--good); }
.badge.missed { background: var(--bad); }
.subtitle { color: var(--ink-muted); margin: 0 0 1.25rem; }
.tiles { display: grid; grid-template-columns: repeat(auto-fill, minmax(150px, 1fr));
         gap: .6rem; }
.tile { background: var(--panel); border-radius: 8px; padding: .6rem .75rem; }
.tile .label { font-size: .75rem; color: var(--ink-muted);
               text-transform: uppercase; letter-spacing: .04em; }
.tile .value { font-size: 1.25rem; font-variant-numeric: tabular-nums; }
.tile .detail { font-size: .8rem; color: var(--ink-secondary); }
figure { margin: 1rem 0; }
figcaption { font-size: .85rem; color: var(--ink-secondary); margin-bottom: .25rem; }
svg { width: 100%; height: auto; display: block; }
svg .tick { font: 11px system-ui, sans-serif; fill: var(--ink-muted); }
svg circle:hover { opacity: 1 !important; }
.legend { display: flex; gap: 1rem; font-size: .8rem; color: var(--ink-secondary); }
.key { display: inline-flex; align-items: center; gap: .35rem; }
.swatch { width: 10px; height: 10px; border-radius: 3px; display: inline-block; }
table { border-collapse: collapse; width: 100%; font-variant-numeric: tabular-nums; }
th, td { text-align: right; padding: .3rem .6rem; border-bottom: 1px solid var(--grid); }
th:first-child, td:first-child { text-align: left; }
th { font-size: .78rem; color: var(--ink-muted); text-transform: uppercase;
     letter-spacing: .03em; }
.notes { color: var(--ink-muted); font-size: .85rem; }
footer { margin-top: 2.5rem; color: var(--ink-muted); font-size: .8rem; }
"""


def _tile(label: str, value: str, detail: str = "") -> str:
    extra = f'<div class="detail">{_html.escape(detail)}</div>' if detail else ""
    return (
        f'<div class="tile"><div class="label">{_html.escape(label)}</div>'
        f'<div class="value">{_html.escape(value)}</div>{extra}</div>'
    )


def render_html(report: RunReport) -> str:
    """The report as one self-contained HTML document (no external URLs)."""
    slo = report.slo
    duration_min = slo.duration / 60.0
    deadline_min = slo.deadline / 60.0
    badge_class = "met" if slo.met else "missed"
    tiles = [
        _tile("Completion", f"{duration_min:.1f} min",
              f"deadline {deadline_min:.1f} min"),
        _tile("Margin", f"{slo.margin_seconds / 60:+.1f} min",
              f"{100 * slo.margin_fraction:+.1f}% of deadline"),
        _tile("Utility", f"{slo.utility_realized:.3g}",
              f"optimal {slo.utility_optimal:.3g}"),
        _tile("Spend ratio", f"{slo.spend_ratio:.2f}",
              "token-s per CPU-s (oracle = 1)"),
        _tile("Above oracle", f"{slo.excess_token_seconds / 3600:.2f} token-h",
              f"oracle level {slo.oracle_tokens} tokens"),
    ]
    if slo.risk:
        tiles.append(
            _tile("Peak risk", f"{100 * slo.peak_risk:.0f}%",
                  f"{slo.ticks_at_risk} tick(s) at risk")
        )
    charts: List[str] = []
    x_max = max(
        slo.duration,
        max((t for t, _ in report.allocation_series), default=0.0),
    )
    alloc_points = [p for p in report.allocation_series]
    raw_points = [p for p in report.raw_series]
    if alloc_points or raw_points:
        y_max = max(
            [v for _, v in alloc_points] + [v for _, v in raw_points] + [1.0]
        )
        charts.append(
            _svg_chart(
                "Allocation (tokens)",
                [
                    ("applied", alloc_points, "--s1"),
                    ("raw controller", raw_points, "--s2"),
                ],
                x_max=x_max,
                y_max=y_max * 1.05,
                unit=" tokens",
                step=True,
                extend_to=slo.duration,
                vline=(slo.deadline, "deadline"),
            )
        )
    if report.progress_series:
        charts.append(
            _svg_chart(
                "Progress indicator",
                [("progress", list(report.progress_series), "--s1")],
                x_max=x_max,
                y_max=1.0,
                vline=(slo.deadline, "deadline"),
            )
        )
    if slo.risk:
        charts.append(
            _svg_chart(
                "Deadline risk P(miss)",
                [("risk", [(p.elapsed, p.risk) for p in slo.risk], "--s1")],
                x_max=x_max,
                y_max=1.0,
                hline=(AT_RISK_THRESHOLD, "at-risk"),
            )
        )
    scorecard_html = ""
    if report.scorecards:
        head = "".join(f"<th>{_html.escape(h)}</th>" for h in SCORECARD_HEADERS)
        rows = []
        for row in scorecard_rows(report.scorecards):
            cells = [f"<td>{_html.escape(str(row[0]))}</td>", f"<td>{row[1]}</td>"]
            cells += [f"<td>{v:.2f}</td>" for v in row[2:6]]
            cells.append(f"<td>{row[6]:.1f}</td>")
            cells += [f"<td>{_html.escape(str(v))}</td>" for v in row[7:9]]
            rows.append("<tr>" + "".join(cells) + "</tr>")
        scorecard_html = (
            "<h2>Prediction scorecards</h2>"
            f"<table><thead><tr>{head}</tr></thead>"
            f"<tbody>{''.join(rows)}</tbody></table>"
        )
    predict_html = ""
    if report.prediction_calibration is not None:
        cal = report.prediction_calibration
        fan = _fan_chart(report.forecasts, slo.duration, slo.deadline)
        head = "".join(
            f"<th>{_html.escape(h)}</th>" for h in RELIABILITY_HEADERS
        )
        rows = []
        for row in reliability_rows(cal):
            rows.append(
                "<tr>"
                f"<td>{_html.escape(str(row[0]))}</td>"
                f"<td>{row[1]}</td><td>{row[2]}</td>"
                f"<td>{row[3]:.3f}</td><td>{row[4]:.1f}</td>"
                f"<td>{row[5]:.1f}</td>"
                f"<td>{_html.escape(str(row[6]))}</td>"
                "</tr>"
            )
        verdict_class = "met" if cal.verdict == "honest" else "missed"
        predict_html = (
            "<h2>Prediction honesty "
            f'<span class="badge {verdict_class}">{_html.escape(cal.verdict)}'
            "</span></h2>"
            f"{fan}"
            f"<table><thead><tr>{head}</tr></thead>"
            f"<tbody>{''.join(rows)}</tbody></table>"
            f'<p class="notes">{cal.ticks} interval tick(s), pinball loss '
            f"{cal.pinball_loss / 60:.2f} min; empirical coverage within "
            f"&plusmn;{cal.tolerance:.0%} of nominal counts as honest.</p>"
        )
    chaos_html = ""
    if report.chaos:
        rows = "".join(
            f"<tr><td>{_html.escape(label)}</td><td>{value:g}</td></tr>"
            for label, value in report.chaos
        )
        chaos_html = (
            "<h2>Chaos injection</h2>"
            "<table><thead><tr><th>Event</th><th>Count</th></tr></thead>"
            f"<tbody>{rows}</tbody></table>"
        )
    extra_html = ""
    for section_title, section_rows in report.extra_sections:
        if not section_rows:
            continue
        rows = "".join(
            f"<tr><td>{_html.escape(label)}</td><td>{value:g}</td></tr>"
            for label, value in section_rows
        )
        extra_html += (
            f"<h2>{_html.escape(section_title)}</h2>"
            "<table><thead><tr><th>Metric</th><th>Value</th></tr></thead>"
            f"<tbody>{rows}</tbody></table>"
        )
    notes_html = ""
    if report.notes:
        items = "".join(f"<li>{_html.escape(n)}</li>" for n in report.notes)
        notes_html = f'<h2>Notes</h2><ul class="notes">{items}</ul>'
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{_html.escape(report.title)}</title>
<style>{_CSS}</style>
</head>
<body>
<h1>{_html.escape(report.title)}
 <span class="badge {badge_class}">SLO {slo.verdict}</span></h1>
<p class="subtitle">policy {_html.escape(slo.policy)} &middot;
 job {_html.escape(slo.job)}</p>
<div class="tiles">{''.join(tiles)}</div>
<h2>Timelines</h2>
{''.join(charts) if charts else '<p class="notes">no time series recorded</p>'}
{scorecard_html}
{predict_html}
{chaos_html}
{extra_html}
{notes_html}
<footer>deadline-risk = P(slack &times; C(p, a) &gt; time left) at each
 applied allocation; spend ratio = requested token-seconds per CPU-second
 of useful work.</footer>
</body>
</html>
"""


# ----------------------------------------------------------------------
# Text rendering
# ----------------------------------------------------------------------


def render_text(report: RunReport) -> str:
    """Terminal fallback: the same numbers without the charts."""
    # Reuse the experiment-report table/sparkline helpers; imported lazily
    # because repro.experiments sits above this layer.
    from repro.experiments.reporting import ascii_table, sparkline

    slo = report.slo
    lines = [
        report.title,
        "=" * len(report.title),
        "",
        f"SLO {slo.verdict}: finished {slo.duration / 60:.1f} min "
        f"against a {slo.deadline / 60:.1f} min deadline "
        f"({slo.margin_seconds / 60:+.1f} min margin)",
        f"utility {slo.utility_realized:.3g} / optimal {slo.utility_optimal:.3g}",
        f"spend {slo.token_seconds / 3600:.2f} token-h for "
        f"{slo.cpu_seconds / 3600:.2f} CPU-h "
        f"(ratio {slo.spend_ratio:.2f}, oracle level {slo.oracle_tokens} tokens)",
    ]
    if slo.risk:
        lines.append(
            f"deadline risk: peak {100 * slo.peak_risk:.0f}%, "
            f"final {100 * slo.final_risk:.0f}%, "
            f"{slo.ticks_at_risk} tick(s) at/above {AT_RISK_THRESHOLD:.0%}"
        )
        lines.append("risk      " + sparkline([p.risk for p in slo.risk]))
    if report.allocation_series:
        lines.append(
            "allocation " + sparkline([v for _, v in report.allocation_series])
        )
    if report.scorecards:
        lines.append("")
        lines.append(
            ascii_table(
                list(SCORECARD_HEADERS), scorecard_rows(report.scorecards)
            )
        )
    if report.prediction_calibration is not None:
        cal = report.prediction_calibration
        lines.append("")
        lines.append(
            f"prediction honesty: {cal.verdict} ({cal.ticks} interval "
            f"tick(s), pinball loss {cal.pinball_loss / 60:.2f} min)"
        )
        lines.append(
            ascii_table(
                list(RELIABILITY_HEADERS),
                [
                    [
                        row[0], row[1], row[2],
                        f"{row[3]:.3f}", f"{row[4]:.1f}", f"{row[5]:.1f}",
                        row[6],
                    ]
                    for row in reliability_rows(cal)
                ],
            )
        )
    if report.chaos:
        lines.append("")
        lines.append(
            ascii_table(
                ["chaos event", "count"],
                [(label, f"{value:g}") for label, value in report.chaos],
            )
        )
    for section_title, section_rows in report.extra_sections:
        if not section_rows:
            continue
        lines.append("")
        lines.append(
            ascii_table(
                [section_title, "value"],
                [(label, f"{value:g}") for label, value in section_rows],
            )
        )
    for note in report.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


def write(report: RunReport, path: str) -> str:
    """Write the report to ``path`` — HTML for ``.html``/``.htm``, text
    otherwise.  Returns the format written."""
    from repro import persist  # deferred: layering

    lowered = path.lower()
    if lowered.endswith((".html", ".htm")):
        content, fmt = render_html(report), "html"
    else:
        content, fmt = render_text(report), "text"
    persist.write_text(path, content)
    return fmt


__all__ = [
    "ReportError",
    "RunReport",
    "chaos_rows_from_summary",
    "fleet_rows_from_summary",
    "from_audit_and_trace",
    "from_result",
    "from_trace_events",
    "market_rows_from_summary",
    "render_html",
    "render_text",
    "write",
]
