"""Unit tests for experiment metrics and text reporting."""

import pytest

from repro.experiments.metrics import (
    RunMetrics,
    coefficient_of_variation,
    group_by,
    metrics_from_trace,
    percentiles,
    summarize_policy,
)
from repro.experiments.reporting import (
    ExperimentReport,
    ascii_table,
    format_cell,
    sparkline,
)
from repro.jobs.trace import RunTrace, TaskRecord


class TestBasicStats:
    def test_cov(self):
        assert coefficient_of_variation([10.0, 10.0, 10.0]) == 0.0
        assert coefficient_of_variation([5.0, 15.0]) == pytest.approx(0.5)

    def test_cov_needs_samples(self):
        with pytest.raises(ValueError):
            coefficient_of_variation([1.0])

    def test_cov_zero_mean(self):
        with pytest.raises(ValueError):
            coefficient_of_variation([0.0, 0.0])

    def test_percentiles(self):
        values = list(range(101))
        assert percentiles(values, (50, 90)) == [50.0, 90.0]

    def test_percentiles_empty(self):
        with pytest.raises(ValueError):
            percentiles([], (50,))


def make_trace(duration=600.0, deadline=1200.0, allocation=10, cpu=3000.0):
    trace = RunTrace(job_name="j", start_time=0.0, deadline=deadline)
    trace.mark_allocation(0.0, allocation)
    trace.add(TaskRecord("s", 0, 0, 0.0, 0.0, cpu))
    trace.end_time = duration
    return trace


class TestRunMetrics:
    def test_metrics_from_trace(self):
        # cpu 3000s, deadline 1200s -> oracle ceil(2.5) = 3 tokens.
        metrics = metrics_from_trace(make_trace(), policy="jockey")
        assert metrics.oracle_tokens == 3
        assert metrics.met_deadline
        assert metrics.relative_latency == pytest.approx(0.5)
        # allocation 10 for 600s = 6000 token-seconds; above-oracle part
        # (10-3)*600 = 4200 -> impact 0.7.
        assert metrics.impact_above_oracle == pytest.approx(0.7)

    def test_requires_deadline(self):
        trace = make_trace()
        trace.deadline = None
        with pytest.raises(ValueError):
            metrics_from_trace(trace, policy="x")

    def test_summarize_policy(self):
        runs = [
            metrics_from_trace(make_trace(duration=600.0), policy="p"),
            metrics_from_trace(make_trace(duration=1300.0), policy="p"),
        ]
        summary = summarize_policy(runs)
        assert summary.runs == 2
        assert summary.fraction_missed == 0.5
        assert summary.fraction_met == 0.5

    def test_summarize_rejects_mixed(self):
        runs = [
            metrics_from_trace(make_trace(), policy="a"),
            metrics_from_trace(make_trace(), policy="b"),
        ]
        with pytest.raises(ValueError):
            summarize_policy(runs)

    def test_summarize_rejects_empty(self):
        with pytest.raises(ValueError):
            summarize_policy([])

    def test_group_by(self):
        runs = [
            metrics_from_trace(make_trace(), policy="a"),
            metrics_from_trace(make_trace(), policy="b"),
            metrics_from_trace(make_trace(), policy="a"),
        ]
        grouped = group_by(runs, lambda m: m.policy)
        assert len(grouped["a"]) == 2
        assert len(grouped["b"]) == 1


class TestReporting:
    def test_ascii_table_aligns(self):
        text = ascii_table(["name", "value"], [["a", 1], ["bcd", 22.5]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1

    def test_ascii_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            ascii_table(["a", "b"], [["only-one"]])

    def test_format_cell(self):
        assert format_cell(3) == "3"
        assert format_cell(3.14159) == "3.14"
        assert format_cell(2.0) == "2"
        assert format_cell(1234.6) == "1,235"
        assert format_cell(float("nan")) == "nan"

    def test_report_render(self):
        report = ExperimentReport("fig0", "demo", headers=["a"], rows=[])
        report.add_row(1)
        report.add_note("hello")
        report.add_section("extra text")
        text = report.render()
        assert "fig0" in text and "hello" in text and "extra text" in text

    def test_sparkline_length_and_chars(self):
        line = sparkline([0, 1, 2, 3, 4, 5], width=6)
        assert len(line) == 6
        assert line[0] == "▁" and line[-1] == "█"

    def test_sparkline_downsamples(self):
        assert len(sparkline(list(range(1000)), width=40)) == 40

    def test_sparkline_empty(self):
        assert sparkline([]) == ""

    def test_sparkline_constant(self):
        assert set(sparkline([5, 5, 5])) <= set("▁▂▃▄▅▆▇█ ")
