"""Tests for the single-file HTML/text run report.

Acceptance: the report is fully self-contained (no external fetches) and
every headline number it shows is reproduced exactly by the analysis
functions run on the same audit records.
"""

import re
import xml.etree.ElementTree as ET

import pytest

from repro.experiments.runner import RunConfig, make_policy, run_experiment
from repro.experiments.scenarios import SMOKE, trained_job
from repro.telemetry import report as report_mod
from repro.telemetry import trace
from repro.telemetry.report import ReportError, RunReport, render_html, render_text


#: A well-formed ``task.end`` event's fields; each case below breaks one.
TASK_END = {
    "job": "job:A", "stage": "map", "index": 3, "attempt": 0,
    "outcome": "ok", "start": 10.0, "end": 12.0,
}
#: (fields to change — None drops the field, what the error says).
MALFORMED_TASK_ENDS = [
    pytest.param({"end": None}, "field 'end' is missing", id="missing-end"),
    pytest.param({"index": "x"}, "field 'index' is not int: 'x'", id="bad-index"),
    pytest.param(
        {"outcome": "exploded"},
        "field 'outcome' is not one of ok, failed, evicted, superseded: 'exploded'",
        id="unknown-outcome",
    ),
    pytest.param(
        {"end": 5.0}, "field 'end' is not at or after start 10.0: 5.0",
        id="end-before-start",
    ),
    pytest.param({"attempt": -1}, "field 'attempt' is negative: -1", id="negative-attempt"),
]


def malformed_task_end_events(change):
    """A finished run's events whose one ``task.end`` carries ``change``."""
    from repro.telemetry.trace import TraceEvent

    fields = {**TASK_END, **change}
    fields = {k: v for k, v in fields.items() if v is not None}
    return [
        TraceEvent(0.0, "job.allocation", {"job": "job:A", "applied": 10}),
        TraceEvent(12.0, "task.end", fields),
        TraceEvent(20.0, "job.complete", {
            "job": "job:A", "start": 0.0, "end": 20.0, "deadline": 60.0,
        }),
    ]


#: A finished run's events, one of each kind the report reads but task.end.
EVENTS = [
    ("job.allocation", 0.0, {"job": "job:A", "applied": 10}),
    ("control.tick", 0.0, {
        "predictor": "jockey", "tick": 0, "phase": "tick", "raw": 10,
        "smoothed": 10.0, "allocation": 10, "dead_zone_triggered": False,
        "predicted_remaining": 15.0, "utility": 1.0, "progress": 0.0,
    }),
    ("job.complete", 20.0, {"job": "job:A", "start": 0.0, "end": 20.0, "deadline": 60.0}),
]
#: (which event, fields to change — None drops the field, what the error says).
MALFORMED_EVENTS = [
    pytest.param(
        0, {"applied": None},
        "malformed job.allocation event 1 of 3 (job 'job:A'): field 'applied' is missing",
        id="allocation-without-applied",
    ),
    pytest.param(
        1, {"raw": None},
        "malformed control.tick event 2 of 3 (job '?'): field 'raw' is missing",
        id="tick-without-raw",
    ),
    pytest.param(
        2, {"end": "soon"},
        "malformed job.complete event 3 of 3 (job 'job:A'): "
        "field 'end' is not float: 'soon'",
        id="complete-ending-soon",
    ),
]


def malformed_events(which, change):
    """:data:`EVENTS` with ``change`` applied to event ``which``."""
    from repro.telemetry.trace import TraceEvent

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
        from repro.telemetry.trace import TraceEvent

        tj, result, events = jockey_run
        older = [
            TraceEvent(e.ts, e.kind, {
                k: v for k, v in e.fields.items() if k not in ("tick", "phase")
            }) if e.kind == "control.tick" else e
            for e in events
        ]
        rebuilt = report_mod.from_trace_events(
            older, policy="jockey", table=tj.table,
            slack=result.audit_records[0].slack,
        )
        assert rebuilt.scorecards[0].ticks == len(result.audit_records)

    def test_empty_events_rejected(self):
        with pytest.raises(ReportError):
            report_mod.from_trace_events([], policy="jockey")

    @pytest.mark.parametrize("change, why", MALFORMED_TASK_ENDS)
    def test_malformed_task_end_is_named(self, change, why):
        with pytest.raises(ReportError) as raised:
            report_mod.from_trace_events(malformed_task_end_events(change))
        assert str(raised.value) == (
            "malformed task.end event 2 of 3 (job 'job:A', stage 'map'): " + why
        )

    @pytest.mark.parametrize("which, change, why", MALFORMED_EVENTS)
    def test_malformed_event_is_named(self, which, change, why):
        with pytest.raises(ReportError) as raised:
            report_mod.from_trace_events(malformed_events(which, change))
        assert str(raised.value) == why

    def test_tick_reader_takes_every_event_field(self):
        from repro.telemetry.audit import EVENT_FIELDS

        _names, table = report_mod._EVENT_READERS["control.tick"]
        assert sorted(table) == sorted(EVENT_FIELDS)

    def test_rebuilt_report_renders(self, jockey_run):
        tj, result, events = jockey_run
        rebuilt = report_mod.from_trace_events(
            events, policy="jockey", table=tj.table,
            slack=result.audit_records[0].slack,
        )
        html = render_html(rebuilt)
        assert rebuilt.slo.verdict in html


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
