"""repro.telemetry — observability for the whole simulator stack.

Collection (each usable alone):

* :mod:`repro.telemetry.metrics` — Counter/Gauge/Histogram instruments
  with labels and a process-wide default :data:`~repro.telemetry.metrics.REGISTRY`.
* :mod:`repro.telemetry.trace` — ring-buffered structured events; disabled
  by default, hot paths pay one attribute check.
* :mod:`repro.telemetry.export` — JSONL and Chrome trace-event exporters
  (open timelines in Perfetto) plus a plain-text summary.
* :mod:`repro.telemetry.audit` — the control loop's per-tick decision
  trail, reconstructible raw → hysteresis → applied, one record per
  decision carrying its completion-time interval forecast.

Analysis & exposition (built on the collectors):

* :mod:`repro.telemetry.slo` — per-run SLO attainment and the per-tick
  deadline-risk timeline from the audit trail.
* :mod:`repro.telemetry.scorecard` — predicted-vs-realized remaining-time
  error distributions for any predictor or progress indicator.
* :mod:`repro.telemetry.predict` — distribution-valued completion-time
  predictions (the bands each tick's record carries) and their
  calibration: reliability diagrams, pinball loss, honesty verdicts.
* :mod:`repro.telemetry.exposition` — Prometheus text-format rendering
  and a strict parser (``repro serve`` is the one ``/metrics`` server).
* :mod:`repro.telemetry.report` — self-contained HTML (or text) run
  reports: verdict, timelines, risk, scorecards.

Metric names follow ``repro_<layer>_<name>`` (see README "Observability").
"""

from repro.telemetry.audit import (
    CandidateEval,
    IntervalBand,
    TickRecord,
    reconstruct_allocations,
)
from repro.telemetry.exposition import (
    parse_prometheus,
    render_prometheus,
)
from repro.telemetry.export import (
    load_events,
    read_jsonl,
    summarize,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.telemetry.metrics import (
    REGISTRY,
    MetricError,
    MetricsRegistry,
)
from repro.telemetry.predict import (
    CalibrationReport,
    calibration,
)
from repro.telemetry.report import RunReport, render_html, render_text
from repro.telemetry.scorecard import Scorecard
from repro.telemetry.slo import RiskPoint, SloAttainment, analyze_run, risk_timeline
from repro.telemetry.trace import (
    NullRecorder,
    TraceEvent,
    TraceRecorder,
    capture,
    install,
)

__all__ = [
    "CalibrationReport",
    "CandidateEval",
    "IntervalBand",
    "MetricError",
    "MetricsRegistry",
    "NullRecorder",
    "REGISTRY",
    "RiskPoint",
    "RunReport",
    "Scorecard",
    "SloAttainment",
    "TickRecord",
    "TraceEvent",
    "TraceRecorder",
    "analyze_run",
    "calibration",
    "capture",
    "install",
    "load_events",
    "parse_prometheus",
    "read_jsonl",
    "reconstruct_allocations",
    "render_html",
    "render_prometheus",
    "render_text",
    "risk_timeline",
    "summarize",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]
