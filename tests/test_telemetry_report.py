"""Tests for the single-file HTML/text run report.

Acceptance: the report is fully self-contained (no external fetches) and
every headline number it shows is reproduced exactly by the analysis
functions run on the same audit records.
"""

import ast
import io
import pathlib
import re
import xml.etree.ElementTree as ET

import pytest

import repro
from repro.experiments.runner import RunConfig, make_policy, run_experiment
from repro.experiments.scenarios import SMOKE, trained_job
from repro.telemetry import export
from repro.telemetry import report as report_mod
from repro.telemetry import trace
from repro.telemetry.export import ExportError
from repro.telemetry.report import ReportError, RunReport, render_html, render_text
from repro.telemetry.trace import TraceEvent
from tests.test_chaos_determinism import CHAOS_RUN_KINDS


#: A well-formed ``task.end`` event's fields; each case below breaks one.
TASK_END = {
    "job": "job:A", "stage": "map", "index": 3, "attempt": 0,
    "outcome": "ok", "machine": 1, "spare": False, "duplicate": False,
    "start": 10.0, "end": 12.0,
}
#: (fields to change — None drops the field, the error, what it says).
#: The reader refuses a field of the wrong type; the report refuses a
#: record ``TaskRecord`` refuses.
MALFORMED_TASK_ENDS = [
    pytest.param(
        {"end": None}, ExportError,
        "line 2 (kind 'task.end', job 'job:A', stage 'map'): missing field(s) ['end']",
        id="missing-end",
    ),
    pytest.param(
        {"index": "x"}, ExportError,
        "line 2 (kind 'task.end', job 'job:A', stage 'map'): "
        "'index' must be an integer, got 'x'",
        id="bad-index",
    ),
    pytest.param(
        {"outcome": "exploded"}, ReportError,
        "event 2 of 3 (kind 'task.end', job 'job:A', stage 'map'): "
        "unknown outcome 'exploded'",
        id="unknown-outcome",
    ),
    pytest.param(
        {"end": 5.0}, ReportError,
        "event 2 of 3 (kind 'task.end', job 'job:A', stage 'map'): "
        "non-monotonic times for map[3]: ready=10.0, start=10.0, end=5.0",
        id="end-before-start",
    ),
    pytest.param(
        {"attempt": -1}, ReportError,
        "event 2 of 3 (kind 'task.end', job 'job:A', stage 'map'): negative attempt -1",
        id="negative-attempt",
    ),
]

#: A finished run's events, one of each kind the report reads but task.end.
EVENTS = [
    ("job.allocation", 0.0, {"job": "job:A", "requested": 10, "applied": 10}),
    ("control.tick", 0.0, {
        "predictor": "jockey", "tick": 0, "phase": "tick", "raw": 10,
        "smoothed": 10.0, "allocation": 10, "dead_zone_triggered": False,
        "predicted_remaining": 15.0, "utility": 1.0, "progress": 0.0,
    }),
    ("job.complete", 20.0, {
        "job": "job:A", "duration": 20.0, "tasks": 1, "duplicates_launched": 0,
        "duplicates_won": 0, "deadline": 60.0, "start": 0.0, "end": 20.0,
    }),
]
#: (which event, fields to change — None drops the field, what the error says).
MALFORMED_EVENTS = [
    pytest.param(
        0, {"applied": None},
        "line 1 (kind 'job.allocation', job 'job:A'): missing field(s) ['applied']",
        id="allocation-without-applied",
    ),
    pytest.param(
        1, {"raw": None},
        "line 2 (kind 'control.tick'): missing field(s) ['raw']",
        id="tick-without-raw",
    ),
    pytest.param(
        2, {"end": "soon"},
        "line 3 (kind 'job.complete', job 'job:A'): 'end' must be a finite number, got 'soon'",
        id="complete-ending-soon",
    ),
]


def read_back(events):
    """``events`` written as JSONL and read through the trace reader."""
    buf = io.StringIO()
    export.write_jsonl(events, buf)
    return export.read_jsonl(io.StringIO(buf.getvalue()))


def malformed_task_end_events(change):
    """A finished run's events whose one ``task.end`` carries ``change``."""
    fields = {**TASK_END, **change}
    fields = {k: v for k, v in fields.items() if v is not None}
    allocation, _tick, complete = EVENTS
    return [
        TraceEvent(allocation[1], allocation[0], allocation[2]),
        TraceEvent(12.0, "task.end", fields),
        TraceEvent(complete[1], complete[0], complete[2]),
    ]


def malformed_events(which, change):
    """:data:`EVENTS` with ``change`` applied to event ``which``."""
    events = []
    for i, (kind, ts, fields) in enumerate(EVENTS):
        if i == which:
            fields = {k: v for k, v in {**fields, **change}.items() if v is not None}
        events.append(TraceEvent(ts, kind, fields))
    return events


@pytest.fixture(scope="module")
def jockey_run():
    tj = trained_job("A", seed=0, scale=SMOKE)
    policy = make_policy("jockey", tj, tj.short_deadline)
    with trace.capture() as recorder:
        result = run_experiment(
            tj,
            policy,
            RunConfig(deadline_seconds=tj.short_deadline, seed=7,
                      sample_cluster_day=False),
        )
    return tj, result, recorder.events()


@pytest.fixture(scope="module")
def html_report(jockey_run):
    tj, result, _events = jockey_run
    report = report_mod.from_result(result, table=tj.table)
    return report, render_html(report)


class TestSelfContained:
    def test_no_external_references(self, html_report):
        _report, html = html_report
        assert "<script" not in html.lower()
        assert " src=" not in html
        assert "href=" not in html
        assert "url(" not in html
        assert "@import" not in html

    def test_svg_figures_parse(self, html_report):
        _report, html = html_report
        svgs = re.findall(r"<svg.*?</svg>", html, re.S)
        assert len(svgs) >= 2  # allocation + progress at minimum
        for svg in svgs:
            ET.fromstring(svg)  # well-formed XML

    def test_dark_mode_styles_present(self, html_report):
        _report, html = html_report
        assert "prefers-color-scheme: dark" in html


class TestNumbersMatchAnalysis:
    def test_verdict_and_margin_in_html(self, jockey_run, html_report):
        tj, result, _events = jockey_run
        report, html = html_report
        slo = result.slo_report(table=tj.table)
        assert report.slo.summary() == slo.summary()
        assert slo.verdict in html
        assert f"{slo.duration / 60:.1f}" in html

    def test_scorecard_numbers_in_html(self, html_report):
        report, html = html_report
        for card in report.scorecards:
            if card.ticks:
                assert f"<td>{card.bias_seconds / 60:.2f}</td>" in html
                assert f"<td>{card.p90_abs_error / 60:.2f}</td>" in html

    def test_series_come_from_the_run(self, jockey_run, html_report):
        _tj, result, _events = jockey_run
        report, _html = html_report
        assert [a for _t, a in report.allocation_series] == [
            a for _t, a in result.trace.allocation_timeline
        ]


class TestTextFallback:
    def test_text_renders_same_verdict(self, jockey_run, html_report):
        tj, result, _events = jockey_run
        report, _html = html_report
        text = render_text(report)
        slo = result.slo_report(table=tj.table)
        assert slo.verdict in text
        assert report.title in text


class TestWrite:
    def test_html_extension_selects_html(self, html_report, tmp_path):
        report, _html = html_report
        path = tmp_path / "r.html"
        assert report_mod.write(report, str(path)) == "html"
        assert path.read_text(encoding="utf-8").startswith("<!DOCTYPE html>")

    def test_other_extension_selects_text(self, html_report, tmp_path):
        report, _html = html_report
        path = tmp_path / "r.txt"
        assert report_mod.write(report, str(path)) == "text"
        assert report.slo.verdict in path.read_text(encoding="utf-8")


class TestFromTraceEvents:
    def test_reproduces_run_from_events_alone(self, jockey_run):
        tj, result, events = jockey_run
        rebuilt = report_mod.from_trace_events(
            events, policy="jockey", table=tj.table,
            slack=result.audit_records[0].slack,
        )
        direct = result.slo_report(table=tj.table)
        assert rebuilt.slo.verdict == direct.verdict
        assert rebuilt.slo.duration == pytest.approx(direct.duration)
        assert rebuilt.slo.deadline == pytest.approx(direct.deadline)
        assert rebuilt.slo.cpu_seconds == pytest.approx(direct.cpu_seconds)

    def test_rebuilt_and_in_process_reports_agree(self, jockey_run):
        tj, result, events = jockey_run
        rebuilt = report_mod.from_trace_events(
            events, policy="jockey", table=tj.table,
            slack=result.audit_records[0].slack,
        )
        direct = report_mod.from_result(result, table=tj.table)
        (card,), (want,) = rebuilt.scorecards, direct.scorecards
        assert card.ticks == want.ticks == len(result.audit_records)
        assert card.bias_seconds == want.bias_seconds
        assert card.p90_abs_error == want.p90_abs_error
        assert rebuilt.slo.risk == direct.slo.risk

    def test_one_tick_event_per_audit_record(self, jockey_run):
        _tj, result, events = jockey_run
        events = [e for e in events if e.kind == "control.tick"]
        assert [
            (e.ts, e.fields["tick"], e.fields["phase"], e.fields["raw"],
             e.fields["allocation"], e.fields["predicted_remaining"])
            for e in events
        ] == [
            (r.elapsed, r.tick, r.phase, r.raw, r.allocation,
             r.predicted_remaining)
            for r in result.audit_records
        ]

    def test_events_without_phase_read_as_periodic_ticks(self, jockey_run):
        tj, result, events = jockey_run
        older = [
            TraceEvent(e.ts, e.kind, {
                k: v for k, v in e.fields.items() if k not in ("tick", "phase")
            }) if e.kind == "control.tick" else e
            for e in events
        ]
        rebuilt = report_mod.from_trace_events(
            read_back(older), policy="jockey", table=tj.table,
            slack=result.audit_records[0].slack,
        )
        assert rebuilt.scorecards[0].ticks == len(result.audit_records)

    def test_empty_events_rejected(self):
        with pytest.raises(ReportError):
            report_mod.from_trace_events([], policy="jockey")

    @pytest.mark.parametrize("change, error, why", MALFORMED_TASK_ENDS)
    def test_malformed_task_end_is_named(self, change, error, why):
        with pytest.raises(error) as raised:
            report_mod.from_trace_events(read_back(malformed_task_end_events(change)))
        assert str(raised.value) == why

    @pytest.mark.parametrize("which, change, why", MALFORMED_EVENTS)
    def test_malformed_event_is_named(self, which, change, why):
        with pytest.raises(ExportError) as raised:
            report_mod.from_trace_events(read_back(malformed_events(which, change)))
        assert str(raised.value) == why

    def test_rebuilt_report_renders(self, jockey_run):
        tj, result, events = jockey_run
        rebuilt = report_mod.from_trace_events(
            events, policy="jockey", table=tj.table,
            slack=result.audit_records[0].slack,
        )
        html = render_html(rebuilt)
        assert rebuilt.slo.verdict in html


#: Every kind ``jockey_run`` emits.
JOCKEY_RUN_KINDS = {
    "control.predict", "control.tick", "job.allocation", "job.complete",
    "machine.down", "machine.up", "task.end", "task.queued", "task.start",
    "tokens.capacity", "tokens.grant",
}
#: The declared kinds neither ``jockey_run`` nor the chaos determinism run
#: emits: their declarations are checked by the census alone.
UNCAPTURED_KINDS = {
    "control.allocation_deficit", "control.allocation_retry",
    "control.model_refresh", "sim.compact", "sim.offline_run",
    "speculation.scan",
}


def emitted_kinds():
    """The kind literals ``src/repro`` passes to ``emit``, ``raw`` and the
    chaos injectors' ``_emit``, and the files of any call whose kind is
    not a literal."""
    literal, computed = set(), []
    root = pathlib.Path(repro.__file__).parent
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            prefix = "chaos." if name == "_emit" else ""
            if name in ("emit", "_emit") and len(node.args) >= 2:
                kind = node.args[1]
            elif name == "raw" and node.args and isinstance(node.args[0], ast.Tuple):
                kind = node.args[0].elts[1]
            else:
                continue
            if isinstance(kind, ast.Constant) and isinstance(kind.value, str):
                literal.add(prefix + kind.value)
            else:
                computed.append(path.relative_to(root).as_posix())
    return literal, computed


class TestEventCensus:
    """Every kind an emit site writes is declared in ``trace.EVENTS``, and
    every event a real run leaves decodes against its declaration."""

    def test_every_emitted_kind_is_declared(self):
        literal, computed = emitted_kinds()
        assert literal == set(trace.EVENTS)
        # The one computed kind is `_emit`'s own f"chaos.{kind}".
        assert computed == ["chaos/injectors.py"]

    def test_captured_events_decode(self, jockey_run):
        _tj, _result, events = jockey_run
        assert read_back(events) == events
        assert {e.kind for e in events} == JOCKEY_RUN_KINDS

    def test_every_declared_kind_is_captured_or_named(self):
        assert JOCKEY_RUN_KINDS | CHAOS_RUN_KINDS | UNCAPTURED_KINDS == set(trace.EVENTS)
        assert not UNCAPTURED_KINDS & (JOCKEY_RUN_KINDS | CHAOS_RUN_KINDS)


class TestRunReportShape:
    def test_is_plain_dataclass(self, html_report):
        report, _html = html_report
        assert isinstance(report, RunReport)
        assert report.slo is not None
        assert report.notes  # from_result always records runtime scale


class TestFleetSection:
    def _summary(self):
        return {
            "template": "A", "mode": "ewma", "days": 8,
            "attainment": 0.9375, "rebuilds": 2, "drift_detections": 1,
            "profiling_runs": 2, "mean_staleness_days": 1.5,
            "final_generation": 8, "deadline_minutes": 22.0,
        }

    def test_rows_from_summary_labels(self):
        rows = report_mod.fleet_rows_from_summary(self._summary())
        labels = [label for label, _value in rows]
        assert "SLO attainment" in labels
        assert "model rebuilds" in labels
        assert ("SLO attainment", 0.9375) in rows

    def test_rows_skip_missing_keys(self):
        rows = report_mod.fleet_rows_from_summary({"days": 3})
        assert rows == (("days simulated", 3.0),)

    def test_extra_sections_render_in_both_formats(self, jockey_run):
        tj, result, _events = jockey_run
        import dataclasses

        report = dataclasses.replace(
            report_mod.from_result(result, table=tj.table),
            extra_sections=(
                (
                    "fleet: A (ewma)",
                    report_mod.fleet_rows_from_summary(self._summary()),
                ),
            ),
        )
        html = render_html(report)
        assert "fleet: A (ewma)" in html
        assert "mean model staleness [days]" in html
        text = render_text(report)
        assert "fleet: A (ewma)" in text
        assert "SLO attainment" in text

    def test_empty_sections_are_skipped(self, jockey_run):
        tj, result, _events = jockey_run
        import dataclasses

        report = dataclasses.replace(
            report_mod.from_result(result, table=tj.table),
            extra_sections=(("hollow", ()),),
        )
        assert "hollow" not in render_html(report)
        assert "hollow" not in render_text(report)
