"""Tests for SLO attainment analytics and prediction scorecards.

The acceptance bar for the observatory: every number a report shows must be
reproducible by calling the analysis functions on the same audit records.
These tests run one real experiment and then recompute everything twice.
"""

import math

import pytest

from repro.core.control import ControlConfig
from repro.experiments.runner import RunConfig, make_policy, run_experiment
from repro.experiments.scenarios import SMOKE, trained_job
from repro.telemetry import report as report_mod
from repro.telemetry import scorecard as scorecard_mod
from repro.telemetry.scorecard import Scorecard, quantile, scorecard_rows
from repro.telemetry.slo import (
    AT_RISK_THRESHOLD,
    RiskPoint,
    analyze_run,
    deadline_at,
    risk_timeline,
)


@pytest.fixture(scope="module")
def jockey_run():
    tj = trained_job("A", seed=0, scale=SMOKE)
    policy = make_policy("jockey", tj, tj.short_deadline)
    result = run_experiment(
        tj,
        policy,
        RunConfig(deadline_seconds=tj.short_deadline, seed=7,
                  sample_cluster_day=False),
    )
    return tj, result


def _record(elapsed, predicted, progress=None, allocation=10, slack=1.0):
    # Duck-typed stand-in for a TickRecord: the risk timeline and the
    # audit scorecard read only tick/elapsed/progress/allocation/
    # predicted_remaining/slack (and bands).
    class R:
        pass

    r = R()
    r.tick = 0
    r.elapsed = elapsed
    r.progress = progress
    r.allocation = allocation
    r.predicted_remaining = predicted
    r.slack = slack
    r.bands = ()
    return r


class TestDeadlineAt:
    def test_no_schedule(self):
        assert deadline_at(100.0, 3600.0) == 3600.0

    def test_change_applies_at_and_after(self):
        schedule = ((600.0, 1800.0),)
        assert deadline_at(599.9, 3600.0, schedule) == 3600.0
        assert deadline_at(600.0, 3600.0, schedule) == 1800.0
        assert deadline_at(9999.0, 3600.0, schedule) == 1800.0

    def test_unsorted_schedule_applied_in_time_order(self):
        schedule = ((1200.0, 900.0), (600.0, 1800.0))
        assert deadline_at(700.0, 3600.0, schedule) == 1800.0
        assert deadline_at(1300.0, 3600.0, schedule) == 900.0


class TestQuantile:
    def test_median_odd(self):
        assert quantile([1.0, 2.0, 9.0], 0.5) == 2.0

    def test_interpolates(self):
        assert quantile([0.0, 10.0], 0.25) == 2.5

    def test_extremes(self):
        vals = [3.0, 5.0, 7.0]
        assert quantile(vals, 0.0) == 3.0
        assert quantile(vals, 1.0) == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            quantile([], 0.5)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            quantile([1.0], 1.5)


class TestScorecard:
    def test_error_sign_convention(self):
        # Predicting 100s remaining when 60s remained = +40 pessimistic.
        card = Scorecard.from_predictions("x", [(40.0, 100.0)], 100.0)
        assert card.points[0].realized_remaining == 60.0
        assert card.points[0].error == pytest.approx(40.0)
        assert card.bias_seconds == pytest.approx(40.0)

    def test_slack_divided_out(self):
        # Each record is judged at the slack it was decided with.
        card = scorecard_mod.from_audit(
            [_record(elapsed=0.0, predicted=120.0, slack=1.2)], 100.0
        )
        assert card.points[0].predicted_remaining == pytest.approx(100.0)
        assert card.bias_seconds == pytest.approx(0.0)

    def test_predictions_past_duration_dropped(self):
        card = Scorecard.from_predictions(
            "x", [(0.0, 50.0), (150.0, 10.0)], 100.0
        )
        assert card.ticks == 1

    def test_quantiles_over_abs_errors(self):
        pairs = [(t, (100.0 - t) + e) for t, e in
                 [(0.0, -1.0), (10.0, 2.0), (20.0, -3.0), (30.0, 4.0)]]
        card = Scorecard.from_predictions("x", pairs, 100.0)
        assert card.p50_abs_error == pytest.approx(2.5)
        assert card.max_abs_error == pytest.approx(4.0)
        assert card.bias_seconds == pytest.approx(0.5)

    def test_empty_card_is_zeroed(self):
        card = Scorecard.from_predictions("x", [], 100.0)
        assert card.ticks == 0
        assert card.bias_seconds == 0.0
        assert card.p90_abs_error == 0.0

    def test_bad_duration_or_slack_rejected(self):
        with pytest.raises(ValueError):
            Scorecard.from_predictions("x", [], 0.0)
        # A controller's slack enters with its config and is checked there.
        for slack in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="slack"):
                ControlConfig(slack=slack)

    def test_merge_pools_points_and_averages_duration(self):
        a = Scorecard.from_predictions("a", [(0.0, 100.0)], 100.0)
        b = Scorecard.from_predictions("b", [(0.0, 190.0), (10.0, 200.0)], 200.0)
        merged = scorecard_mod.merge("pool", [a, b])
        assert merged.ticks == 3
        assert merged.duration == pytest.approx(150.0)

    def test_merge_empty_is_safe(self):
        merged = scorecard_mod.merge("pool", [])
        assert merged.ticks == 0
        assert merged.relative(merged.p90_abs_error) == 0.0

    def test_rows_match_headers(self):
        card = Scorecard.from_predictions("x", [(0.0, 90.0)], 100.0)
        rows = scorecard_rows([card])
        assert len(rows[0]) == len(scorecard_mod.SCORECARD_HEADERS)
        assert rows[0][0] == "x"
        assert rows[0][2] == pytest.approx(-10.0 / 60.0)  # bias in minutes


class TestRiskTimeline:
    def test_exhausted_budget_is_certain_miss(self):
        points = risk_timeline(
            [_record(elapsed=200.0, predicted=1.0)], deadline=100.0
        )
        assert points[0].budget < 0
        assert points[0].risk == 1.0

    def test_binary_fallback_without_table(self):
        late = _record(elapsed=0.0, predicted=150.0)
        fine = _record(elapsed=0.0, predicted=50.0)
        points = risk_timeline([late, fine], deadline=100.0)
        assert [p.risk for p in points] == [1.0, 0.0]
        assert points[1].margin == pytest.approx(50.0)

    def test_table_exceedance_queried_at_unslacked_budget(self):
        calls = []

        class Table:
            def exceedance(self, progress, allocation, threshold):
                calls.append((progress, allocation, threshold))
                return 0.25

        points = risk_timeline(
            [_record(elapsed=40.0, predicted=80.0, progress=0.5, slack=1.2)],
            deadline=100.0, table=Table(),
        )
        assert points[0].risk == 0.25
        assert calls == [(0.5, 10, pytest.approx(60.0 / 1.2))]

    def test_schedule_changes_budget(self):
        points = risk_timeline(
            [_record(elapsed=30.0, predicted=10.0)],
            deadline=1000.0, schedule=((20.0, 50.0),),
        )
        assert points[0].budget == pytest.approx(20.0)

    def test_bad_slack_rejected(self):
        # A trace records no slack: the report reader stamps the one it is
        # given on every record, and refuses a bad one before reading.
        for slack in (0.0, -1.2, float("nan"), float("inf")):
            with pytest.raises(report_mod.ReportError, match="slack"):
                report_mod.from_trace_events([], slack=slack)

    def test_at_risk_threshold(self):
        p = RiskPoint(tick=0, elapsed=0, progress=None, allocation=1,
                      predicted_remaining=0, budget=1, risk=AT_RISK_THRESHOLD)
        assert p.at_risk


class TestAnalyzeRun:
    def test_reproducible_from_same_records(self, jockey_run):
        tj, result = jockey_run
        a = result.slo_report(table=tj.table)
        b = result.slo_report(table=tj.table)
        assert a.summary() == b.summary()

    def test_verdict_matches_trace(self, jockey_run):
        tj, result = jockey_run
        slo = result.slo_report(table=tj.table)
        assert slo.met == result.trace.met_deadline()
        assert slo.duration == pytest.approx(result.trace.duration)
        assert slo.margin_seconds == pytest.approx(
            slo.deadline - slo.duration
        )

    def test_cost_side_consistent(self, jockey_run):
        tj, result = jockey_run
        slo = result.slo_report(table=tj.table)
        assert slo.cpu_seconds == pytest.approx(
            result.trace.total_cpu_seconds()
        )
        assert slo.oracle_tokens == math.ceil(slo.cpu_seconds / slo.deadline)
        assert slo.spend_ratio >= 1.0  # can never beat the oracle minimum
        assert slo.token_seconds == pytest.approx(
            result.trace.allocation_seconds()
        )

    def test_one_risk_point_per_audit_record(self, jockey_run):
        tj, result = jockey_run
        slo = result.slo_report(table=tj.table)
        assert len(slo.risk) == len(result.audit_records)
        for point, record in zip(slo.risk, result.audit_records):
            assert point.elapsed == record.elapsed
            assert point.allocation == record.allocation
            assert 0.0 <= point.risk <= 1.0

    def test_mid_run_deadline_change_judged_against_new_deadline(self):
        tj = trained_job("A", seed=0, scale=SMOKE)
        policy = make_policy("jockey", tj, tj.long_deadline)
        # One control period in: early enough that even a smoke-scale job
        # is still running when the extension lands.
        change_at = 60.0
        config = RunConfig(
            deadline_seconds=tj.long_deadline, seed=11,
            deadline_changes=((change_at, tj.long_deadline * 3),),
            sample_cluster_day=False,
        )
        result = run_experiment(tj, policy, config)
        slo = result.slo_report(table=tj.table)
        # Verdict uses the deadline in force at completion (the extension),
        # while early risk points are budgeted against the initial one.
        assert slo.deadline == pytest.approx(tj.long_deadline * 3)
        early = [p for p in slo.risk if p.elapsed < change_at]
        for point in early:
            assert point.budget == pytest.approx(
                tj.long_deadline - point.elapsed
            )

    def test_no_deadline_anywhere_rejected(self, jockey_run):
        import dataclasses

        _tj, result = jockey_run
        trace_no_deadline = dataclasses.replace(result.trace, deadline=None)
        with pytest.raises(ValueError):
            analyze_run(trace_no_deadline, [], policy="jockey")

    def test_audit_scorecard_reproducible(self, jockey_run):
        tj, result = jockey_run
        slack = result.audit_records[0].slack
        assert {r.slack for r in result.audit_records} == {ControlConfig().slack}
        card = scorecard_mod.from_audit(
            result.audit_records, result.trace.duration, name="jockey",
        )
        assert card.ticks == len(result.audit_records)
        # Recompute one point by hand from the raw record.
        record = result.audit_records[0]
        assert card.points[0].predicted_remaining == pytest.approx(
            record.predicted_remaining / slack
        )
        assert card.points[0].realized_remaining == pytest.approx(
            result.trace.duration - record.elapsed
        )
        assert card.summary() == scorecard_mod.from_audit(
            result.audit_records, result.trace.duration, name="jockey",
        ).summary()
