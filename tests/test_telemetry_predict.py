"""Unit tests for the prediction observatory: the forecast each decision's
record carries, band construction, calibration engine, and the guarantee
that the audit plus the C(p, a) table reproduce every forecast."""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.amdahl import AmdahlModel
from repro.core.control import (
    ControlConfig,
    CpaPredictor,
    JockeyController,
    PredictorUnavailable,
)
from repro.core.cpa import CpaTable
from repro.core.progress import totalwork
from repro.core.utility import deadline_utility
from repro.telemetry.audit import TickRecord
from repro.telemetry.predict import (
    IntervalBand,
    MODEL_ERROR_REL,
    NOMINAL_LEVELS,
    PredictError,
    RELIABILITY_HEADERS,
    TIMELINE_HEADERS,
    VERDICT_CONSERVATIVE,
    VERDICT_HONEST,
    VERDICT_NO_DATA,
    VERDICT_OVERCONFIDENT,
    VERDICT_UNRESOLVED,
    bands_from_quantiles,
    calibration,
    coverage_count,
    forecasts,
    honesty,
    level_label,
    pinball_loss,
    quantiles_for,
    reliability_rows,
    rolling_coverage,
    run_coverage,
    timeline_rows,
)
from repro.experiments.metrics import ALPHA, verdict
from tests.test_core_simulator import deterministic_profile


def tick_record(tick, elapsed, median, bands, *, progress=0.5, allocation=10):
    """A periodic-tick audit record carrying the given forecast."""
    return TickRecord(
        tick=tick, phase="tick", elapsed=elapsed, progress=progress,
        candidates=(), raw=allocation, dead_zone_triggered=False,
        prev_smoothed=None, smoothed=float(allocation), allocation=allocation,
        predicted_remaining=max(median - elapsed, 0.0), utility=1.0,
        slack=1.0, median=median, bands=bands,
    )


def make_record(tick, elapsed, median, half_widths):
    """Synthetic record: symmetric completion-time bands about ``median``
    with explicit half-widths per level."""
    bands = tuple(
        IntervalBand(level=level, lo=median - hw, hi=median + hw)
        for level, hw in sorted(half_widths.items())
    )
    return tick_record(tick, elapsed, median, bands)


class TestQuantilesFor:
    def test_includes_median_and_symmetric_pairs(self):
        qs = quantiles_for((0.8,))
        assert qs == pytest.approx((0.1, 0.5, 0.9))

    def test_sorted_and_deduplicated(self):
        qs = quantiles_for((0.8, 0.8, 0.5))
        assert qs == pytest.approx((0.1, 0.25, 0.5, 0.75, 0.9))
        assert list(qs) == sorted(qs)

    @pytest.mark.parametrize("level", [0.0, 1.0, -0.1, 1.5])
    def test_rejects_out_of_range_levels(self, level):
        with pytest.raises(PredictError):
            quantiles_for((level,))


class TestLevelLabel:
    def test_drops_trailing_zeros(self):
        assert level_label(0.9) == "90"
        assert level_label(0.95) == "95"
        assert level_label(0.5) == "50"


class TestRecordFromQuantiles:
    """:func:`bands_from_quantiles`, read through the record it fills."""

    # Linear quantile function over exactly the keys the live hook uses
    # (dict float keys must match quantiles_for's own arithmetic).
    QUANTILES = {
        q: 100.0 + 25.0 * (2.0 * q - 1.0)
        for q in quantiles_for(NOMINAL_LEVELS)
    }

    def build(self, quantiles=None, **kwargs):
        elapsed = 50.0
        median, bands = bands_from_quantiles(
            elapsed, dict(self.QUANTILES if quantiles is None else quantiles),
            **kwargs,
        )
        return tick_record(0, elapsed, median, bands, progress=0.4,
                           allocation=20)

    def test_median_is_elapsed_plus_remaining_median(self):
        rec = self.build(error_rel=0.0)
        assert rec.median == 150.0

    def test_raw_bands_match_quantiles_when_error_rel_zero(self):
        # q(0.1) = 80, q(0.9) = 120 under the linear quantile function.
        rec = self.build(error_rel=0.0)
        b80 = rec.band(0.8)
        assert b80.lo == pytest.approx(50.0 + 80.0)
        assert b80.hi == pytest.approx(50.0 + 120.0)

    def test_envelope_widens_in_quadrature(self):
        raw = self.build(error_rel=0.0).band(0.8)
        fat = self.build(error_rel=0.1).band(0.8)
        # Raw half-width 20; sigma = 0.1 * 150; extra = 0.8 * 15 = 12.
        expected_lo = 150.0 - (20.0 ** 2 + 12.0 ** 2) ** 0.5
        assert fat.lo == pytest.approx(expected_lo)
        assert fat.width > raw.width

    def test_bands_never_predict_the_past(self):
        # A huge envelope would push lo below the current elapsed time.
        rec = self.build(error_rel=5.0)
        for band in rec.bands:
            assert band.lo >= rec.elapsed

    def test_band_widths_monotone_in_level(self):
        rec = self.build()
        widths = [b.width for b in rec.bands]
        assert widths == sorted(widths)

    def test_missing_median_rejected(self):
        qs = {k: v for k, v in self.QUANTILES.items() if k != 0.5}
        with pytest.raises(PredictError):
            self.build(quantiles=qs)

    def test_missing_level_quantile_rejected(self):
        lowest = min(self.QUANTILES)
        qs = {k: v for k, v in self.QUANTILES.items() if k != lowest}
        with pytest.raises(PredictError):
            self.build(quantiles=qs, levels=(0.95,))

    def test_negative_error_rel_rejected(self):
        with pytest.raises(PredictError):
            self.build(error_rel=-0.1)

    def test_band_lookup_misses_return_none(self):
        assert self.build().band(0.42) is None

    def test_covers_is_inclusive(self):
        band = IntervalBand(level=0.8, lo=10.0, hi=20.0)
        assert band.covers(10.0) and band.covers(20.0)
        assert not band.covers(9.999) and not band.covers(20.001)

    def test_deadline_in_force_replays_schedule(self):
        rec = make_record(0, elapsed=120.0, median=200.0, half_widths={0.9: 10.0})
        # The timeline's in-force deadline column (minutes) at this tick.
        ((*_, deadline, _hit),) = timeline_rows([rec], deadline=600.0)
        assert deadline == 10.0
        ((*_, deadline, _hit),) = timeline_rows(
            [rec], deadline=600.0, schedule=((100.0, 900.0),)
        )
        assert deadline == 15.0


class TestLedger:
    """The controller's forecasts ride on its one ``audit`` list: every
    predicted decision's record carries bands, in tick order, and a reset
    empties them with the rest of the run state."""

    @pytest.fixture
    def controller(self):
        profile = deterministic_profile()
        table = CpaTable.build(
            profile, totalwork(profile), np.random.default_rng(0),
            allocations=(1, 2, 4, 8), reps=1, num_bins=10, sample_dt=2.0,
        )
        ctl = JockeyController(
            CpaPredictor(table, totalwork(profile)),
            deadline_utility(120.0),
            ControlConfig(min_tokens=1, max_tokens=8, allocation_step=1),
            stage_names=("map", "reduce"),
        )
        ctl.initial_allocation()
        for i in range(2):
            ctl.decide({"map": 0.3 * (i + 1), "reduce": 0.0}, 20.0 * (i + 1))
        return ctl

    def test_records_in_order(self, controller):
        banded = forecasts(controller.audit)
        assert banded == controller.audit
        assert [r.tick for r in banded] == [0, 1, 2]
        assert [r.elapsed for r in banded] == [0.0, 20.0, 40.0]

    def test_clear(self, controller):
        controller.reset_run_state()
        assert controller.audit == []

    def test_one_per_decision_list(self, controller):
        """The audit is the controller's only per-decision list: a decision
        grows it, and no other list, by one record."""
        def sizes():
            return {
                name: len(value) for name, value in vars(controller).items()
                if isinstance(value, list)
            }

        before = sizes()
        controller.decide({"map": 1.0, "reduce": 0.5}, 60.0)
        after = sizes()
        grew = [name for name in after if after[name] != before.get(name)]
        assert grew == ["audit"]
        assert after["audit"] == before["audit"] + 1


class TestCalibration:
    def covering_runs(self, n_cover, n_miss, level=0.8, duration=100.0):
        """One single-tick ledger per run: ``n_cover`` covering runs, then
        ``n_miss`` missing ones."""
        return [
            ([make_record(0, 10.0, duration + (50.0 if i >= n_cover else 0.0),
                          {level: 5.0})], duration)
            for i in range(n_cover + n_miss)
        ]

    def test_exact_coverage_is_honest(self):
        # 480 of 600 at 0.8: the 90 % interval ~[0.773, 0.826] lies inside
        # 0.8 +- 0.05.
        report = calibration(self.covering_runs(480, 120))
        lv = report.level(0.8)
        assert lv.covered == 480 and lv.ticks == 600
        assert (lv.runs_covered, lv.runs) == (480, 600)
        assert lv.empirical == pytest.approx(0.8)
        assert 0.75 < lv.low < 0.8 < lv.high < 0.85
        assert lv.verdict == VERDICT_HONEST
        assert report.verdict == VERDICT_HONEST

    def test_undercoverage_is_overconfident(self):
        report = calibration(self.covering_runs(3, 7))
        assert report.level(0.8).verdict == VERDICT_OVERCONFIDENT
        assert report.verdict == VERDICT_OVERCONFIDENT

    def test_overcoverage_is_conservative(self):
        # 0.8^20 ~ 0.012 <= 1/20 shows coverage above 0.8; nothing shows
        # it below 0.85.
        report = calibration(self.covering_runs(20, 0))
        assert report.level(0.8).verdict == VERDICT_CONSERVATIVE
        assert report.verdict == VERDICT_CONSERVATIVE

    def test_overconfidence_dominates_conservatism(self):
        ledgers = (
            self.covering_runs(3, 7, level=0.8)
            + self.covering_runs(20, 0, level=0.5)
        )
        report = calibration(ledgers)
        assert report.level(0.5).verdict == VERDICT_CONSERVATIVE
        assert report.verdict == VERDICT_OVERCONFIDENT

    def test_empty_ledger_is_no_data(self):
        for ledgers in ([], [([], 100.0)]):
            report = calibration(ledgers)
            assert report.verdict == VERDICT_NO_DATA
            assert report.ticks == report.runs == 0

    def test_short_ledger_widens_tolerance(self):
        # 2 of 3 ticks covered at level 0.9 in one run whose first band
        # covered: one trial of 1, which no exact test resolves.
        ledger = [([make_record(0, 10.0, 100.0, {0.9: 5.0}),
                    make_record(1, 10.0, 100.0, {0.9: 5.0}),
                    make_record(2, 10.0, 150.0, {0.9: 5.0})], 100.0)]
        report = calibration(ledger)
        assert report.level(0.9).empirical == pytest.approx(2 / 3)
        assert (report.level(0.9).runs_covered, report.runs) == (1, 1)
        assert report.level(0.9).verdict == VERDICT_UNRESOLVED
        assert report.verdict == VERDICT_UNRESOLVED

    def test_duration_must_be_positive(self):
        with pytest.raises(PredictError):
            calibration([([], 0.0)])

    def test_summary_is_json_round_trippable(self):
        import json

        report = calibration(self.covering_runs(480, 120))
        payload = json.loads(json.dumps(report.summary(), sort_keys=True))
        assert payload["verdict"] == VERDICT_HONEST
        assert payload["runs"] == 600
        level = payload["levels"][0]
        assert level["empirical_coverage"] == pytest.approx(0.8)
        assert (level["runs"], level["runs_covered"]) == (600, 480)


class TestPinballLoss:
    def test_perfect_point_forecast_scores_zero(self):
        rec = make_record(0, 10.0, 100.0, {0.8: 0.0})
        assert pinball_loss([rec], 100.0) == pytest.approx(0.0)

    def test_hand_computed_single_band(self):
        # Median 90, band [80, 100] at level 0.8; duration 100.
        # tau=0.5 @ 90: 0.5*10 = 5; tau=0.1 @ 80: 0.1*20 = 2;
        # tau=0.9 @ 100: 0.9*0 = 0.  Mean over 3 = 7/3.
        rec = make_record(0, 10.0, 90.0, {0.8: 10.0})
        assert pinball_loss([rec], 100.0) == pytest.approx(7.0 / 3.0)

    def test_sharper_honest_forecast_scores_lower(self):
        sharp = make_record(0, 10.0, 100.0, {0.8: 5.0})
        vague = make_record(0, 10.0, 100.0, {0.8: 50.0})
        assert pinball_loss([sharp], 100.0) < pinball_loss([vague], 100.0)

    def test_empty_is_zero(self):
        assert pinball_loss([], 100.0) == 0.0


class TestRollingCoverage:
    def test_window_localizes_late_run_misses(self):
        covers = [make_record(i, float(i), 100.0, {0.9: 5.0}) for i in range(6)]
        misses = [
            make_record(6 + i, 6.0 + i, 200.0, {0.9: 5.0}) for i in range(6)
        ]
        points = rolling_coverage(covers + misses, 100.0, window=3)
        assert points[2].coverage == pytest.approx(1.0)
        assert points[-1].coverage == pytest.approx(0.0)
        # The timeline shows the late misses; the verdict reads the one
        # run's first promise, which covered.
        report = calibration([(covers + misses, 100.0)])
        assert report.level(0.9).verdict == VERDICT_UNRESOLVED

    def test_window_never_exceeds_available_ticks(self):
        records = [make_record(i, float(i), 100.0, {0.9: 5.0}) for i in range(2)]
        points = rolling_coverage(records, 100.0, window=10)
        assert [p.window for p in points] == [1, 2]

    def test_bad_window_rejected(self):
        with pytest.raises(PredictError):
            rolling_coverage([], 100.0, window=0)


class TestPooledCalibration:
    def test_records_judged_against_their_own_duration(self):
        # Run A completes at 100 with bands around 100; run B at 300 with
        # bands around 300.  Pooled against a shared mean they'd all miss.
        run_a = [make_record(i, 10.0, 100.0, {0.9: 5.0}) for i in range(4)]
        run_b = [make_record(i, 10.0, 300.0, {0.9: 5.0}) for i in range(4)]
        report = calibration([(run_a, 100.0), (run_b, 300.0)])
        assert report.coverage(0.9) == pytest.approx(1.0)
        assert report.duration == pytest.approx(200.0)

    def test_tolerance_scales_with_run_count_not_tick_count(self):
        # 4 runs, level 0.9: 3 of 4 runs covering is 4 trials, not 80, and
        # P(at most 3 of 4 | 0.9) ~ 0.34 shows nothing either way.
        cover = [
            [make_record(i, 10.0, 100.0, {0.9: 5.0}) for i in range(20)]
            for _ in range(3)
        ]
        miss = [make_record(i, 10.0, 200.0, {0.9: 5.0}) for i in range(20)]
        ledgers = [(r, 100.0) for r in cover] + [(miss, 100.0)]
        report = calibration(ledgers)
        assert report.coverage(0.9) == pytest.approx(0.75)
        assert report.ticks == 80
        assert (report.level(0.9).runs_covered, report.level(0.9).runs) == (3, 4)
        assert report.level(0.9).verdict == VERDICT_UNRESOLVED

    def test_gross_undercoverage_still_flagged(self):
        # 25 runs, only 2 covering: P(at most 2 of 25 | 0.9) is ~1e-20.
        ledgers = []
        for i in range(25):
            median = 100.0 if i < 2 else 500.0
            ledgers.append(
                ([make_record(0, 10.0, median, {0.9: 5.0})], 100.0)
            )
        report = calibration(ledgers)
        assert report.level(0.9).verdict == VERDICT_OVERCONFIDENT

    def test_pinball_pools_tick_weighted(self):
        run_a = [make_record(0, 10.0, 100.0, {0.8: 0.0})]
        run_b = [make_record(0, 10.0, 90.0, {0.8: 10.0})] * 2
        report = calibration([(run_a, 100.0), (run_b, 100.0)])
        assert report.pinball_loss == pytest.approx((0.0 + 2 * 7.0 / 3.0) / 3)

    def test_empty_pool_is_no_data(self):
        assert calibration([]).verdict == VERDICT_NO_DATA

    def test_bad_duration_rejected(self):
        with pytest.raises(PredictError):
            calibration([([], -1.0)])


def reference_verdict(wins: int, losses: int):
    """The claims' judge before it took a null other than ½, verbatim."""
    n = wins + losses

    def at_least(k, p):  # P(X >= k), X ~ Binomial(n, p); exact for a Fraction p
        return sum(math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(k, n + 1))

    def lower(k, above_half):  # the Clopper–Pearson lower bound for k of n
        if k == 0:
            return 0.0
        lo, hi = (0.5, 1.0) if above_half else (0.0, 0.5)
        for _ in range(40):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if at_least(k, mid) < ALPHA else (lo, mid)
        return (lo + hi) / 2

    p_for, p_against = at_least(wins, Fraction(1, 2)), at_least(losses, Fraction(1, 2))
    reading = "holds" if p_for <= ALPHA else "fails" if p_against <= ALPHA else "unresolved"
    # The upper bound for wins is 1 minus the lower bound for losses.
    return (reading, float(min(p_for, p_against)),
            lower(wins, reading == "holds"), 1 - lower(losses, reading == "fails"))


class TestHonestyJudge:
    """The claims' exact test at a nominal null, on hand-checked
    (runs, runs covered, level) tables."""

    @pytest.mark.parametrize("runs, covered, level, reading", [
        (0, 0, 0.9, VERDICT_NO_DATA),
        (1, 0, 0.95, VERDICT_OVERCONFIDENT),   # P(miss) = 1/20 exactly
        (1, 0, 0.9, VERDICT_UNRESOLVED),
        (12, 8, 0.9, VERDICT_OVERCONFIDENT),
        (12, 9, 0.9, VERDICT_UNRESOLVED),
        (12, 12, 0.5, VERDICT_CONSERVATIVE),
        (150, 135, 0.9, VERDICT_HONEST),
        (90, 86, 0.95, VERDICT_HONEST),        # the 1.0 margin edge is met
        # Wholly below 0.9, yet inside 0.9 +- 0.05: honest is read first.
        (800, 704, 0.9, VERDICT_HONEST),
    ])
    def test_hand_table(self, runs, covered, level, reading):
        got, low, high = honesty(runs, covered, level)
        assert got == reading
        assert low <= (covered / runs if runs else low) <= high

    def test_precedence_row_lies_below_nominal(self):
        _reading, _low, high = honesty(800, 704, 0.9)
        assert high < 0.9

    def test_a_run_without_the_band_is_no_trial(self):
        banded = [make_record(0, 10.0, 100.0, {0.9: 5.0})]
        bare = [tick_record(0, 10.0, 100.0, (), progress=None),
                make_record(1, 10.0, 100.0, {0.5: 5.0})]
        ledgers = [(banded, 100.0), (bare, 100.0)]
        assert run_coverage(ledgers, 0.9) == (1, 1)
        assert run_coverage(ledgers, 0.5) == (1, 1)
        assert run_coverage([(bare[:1], 100.0)], 0.9) == (0, 0)
        report = calibration(ledgers)
        assert [(lv.level, lv.runs) for lv in report.levels] == [(0.5, 1), (0.9, 1)]
        assert report.runs == 2

    def test_first_band_is_the_trial(self):
        # A run that misses first and covers later counts as a miss.
        late = [tick_record(0, 5.0, 100.0, (), progress=None),
                make_record(1, 10.0, 200.0, {0.9: 5.0}),
                make_record(2, 20.0, 100.0, {0.9: 5.0})]
        assert run_coverage([(late, 100.0)], 0.9) == (1, 0)

    def test_half_null_is_the_claims_judge(self):
        for n in range(31):
            for wins in range(n + 1):
                assert tuple(verdict(wins, n - wins)) == reference_verdict(
                    wins, n - wins
                ), (wins, n - wins)


class TestIntervalHits:
    """:func:`coverage_count`, the one per-level count, and the scorecard
    columns built on it."""

    def test_counts_per_level(self):
        from repro.telemetry.scorecard import from_audit

        records = [
            make_record(0, 10.0, 100.0, {0.8: 5.0, 0.95: 10.0}),
            make_record(1, 10.0, 200.0, {0.8: 5.0, 0.95: 150.0}),
        ]
        assert coverage_count([(records, 100.0)], 0.8) == (2, 1, 20.0)
        assert coverage_count([(records, 100.0)], 0.95) == (2, 2, 320.0)
        card = from_audit(records, 100.0)
        assert card.interval_hits == ((0.8, 1, 2), (0.95, 2, 2))

    def test_missing_level_counts_zero_ticks(self):
        records = [make_record(0, 10.0, 100.0, {0.8: 5.0})]
        assert coverage_count([(records, 100.0)], 0.5) == (0, 0, 0.0)

    def test_records_without_bands_are_no_ticks(self):
        from repro.telemetry.scorecard import from_audit

        bare = tick_record(0, 10.0, 100.0, (), progress=None)
        records = [bare, make_record(1, 10.0, 100.0, {0.8: 5.0})]
        assert coverage_count([(records, 100.0)], 0.8) == (1, 1, 10.0)
        assert from_audit([bare], 100.0).interval_hits == ()
        assert calibration([(records, 100.0)]).ticks == 1
        assert len(timeline_rows(records)) == 1


class TestRows:
    def records(self):
        return [
            make_record(i, 60.0 * i, 600.0, {0.5: 10.0, 0.8: 20.0,
                                             0.9: 30.0, 0.95: 40.0})
            for i in range(3)
        ]

    def test_timeline_rows_match_headers(self):
        rows = timeline_rows(self.records(), duration=600.0, deadline=900.0)
        assert len(rows) == 3
        assert all(len(r) == len(TIMELINE_HEADERS) for r in rows)
        assert rows[0][-1] == "y"
        assert rows[0][-2] == pytest.approx(15.0)   # deadline in minutes

    def test_timeline_without_duration_marks_dash(self):
        rows = timeline_rows(self.records())
        assert rows[0][-1] == "-"
        assert rows[0][-2] == "-"

    def test_reliability_rows_match_headers(self):
        report = calibration([(self.records(), 600.0)])
        rows = reliability_rows(report)
        assert len(rows) == 4
        assert all(len(r) == len(RELIABILITY_HEADERS) for r in rows)
        assert rows[0][0] == "50%"


class TestAuditReplay:
    """The audit plus the run's C(p, a) table reproduce every forecast the
    controller published: each banded record's progress and applied
    allocation are the whole input of its bands."""

    @pytest.fixture()
    def table(self):
        profile = deterministic_profile()
        return CpaTable.build(
            profile,
            totalwork(profile),
            np.random.default_rng(0),
            allocations=(1, 2, 4, 8),
            reps=3,
            num_bins=20,
            sample_dt=2.0,
        )

    def test_replay_reproduces_live_ledger(self, table):
        profile = deterministic_profile()
        predictor = CpaPredictor(table, totalwork(profile))
        ctl = JockeyController(
            predictor,
            deadline_utility(120.0),
            ControlConfig(slack=1.2, hysteresis=1.0, dead_zone_seconds=0.0,
                          min_tokens=1, max_tokens=8, allocation_step=1),
            stage_names=("map", "reduce"),
        )
        ctl.initial_allocation()
        fractions = [
            {"map": 0.2, "reduce": 0.0},
            {"map": 0.7, "reduce": 0.0},
            {"map": 1.0, "reduce": 0.5},
        ]
        for i, fr in enumerate(fractions):
            ctl.decide(fr, elapsed=20.0 * (i + 1))
        live = forecasts(ctl.audit)
        assert len(live) == 4    # initial + three ticks
        qs = quantiles_for(NOMINAL_LEVELS)
        for record in live:
            quantiles = {
                q: float(table.remaining(record.progress, record.allocation, q=q))
                for q in qs
            }
            assert (record.median, record.bands) == bands_from_quantiles(
                record.elapsed, quantiles
            )

    def test_replay_skips_records_without_progress(self, table):
        # Amdahl's Law has no indicator (no progress) and no distribution:
        # its decisions carry no forecast.
        profile = deterministic_profile()
        ctl = JockeyController(
            AmdahlModel(profile), deadline_utility(120.0),
            ControlConfig(min_tokens=1, max_tokens=8, allocation_step=1),
            stage_names=("map", "reduce"),
        )
        ctl.initial_allocation()
        ctl.decide({"map": 0.5, "reduce": 0.0}, 20.0)
        assert [r.progress for r in ctl.audit] == [None, None]
        assert [(r.median, r.bands) for r in ctl.audit] == [(None, ())] * 2
        assert forecasts(ctl.audit) == []


# ----------------------------------------------------------------------
# Differential: the banded audit against the ledger it replaced
# ----------------------------------------------------------------------
#
# Until the forecast moved onto the TickRecord, the controller kept a
# second list: on every non-degraded decision its ``_record_prediction``
# hook built a ``PredictionRecord`` with ``record_from_quantiles``.  Both
# are kept here verbatim (the band class is the same dataclass, now defined
# in ``repro.telemetry.audit``) as the reference.

@dataclass(frozen=True)
class PredictionRecord:
    """One tick's full interval forecast, conditioned on the allocation
    applied at that tick."""

    tick: int
    elapsed: float
    progress: Optional[float]
    allocation: int
    median: float                       # p50 completion time
    bands: Tuple[IntervalBand, ...]     # ascending nominal level

    def band(self, level: float) -> Optional[IntervalBand]:
        for b in self.bands:
            if abs(b.level - level) < 1e-9:
                return b
        return None


def _envelope_quantile(level: float) -> float:
    return level


def record_from_quantiles(
    *,
    tick: int,
    elapsed: float,
    progress: Optional[float],
    allocation: int,
    quantiles: Dict[float, float],
    levels: Sequence[float] = NOMINAL_LEVELS,
    error_rel: float = MODEL_ERROR_REL,
) -> PredictionRecord:
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
    return PredictionRecord(
        tick=tick,
        elapsed=elapsed,
        progress=progress,
        allocation=allocation,
        median=median,
        bands=tuple(bands),
    )


def reference_record_prediction(predictor, fractions, tick, ledger):
    """The controller's old ``_record_prediction`` hook (``self`` spelled
    out): called after each decision that was not degraded."""
    quantiler = getattr(predictor, "remaining_quantiles", None)
    if quantiler is None:
        return
    try:
        quantiles = dict(quantiler(
            fractions, tick.allocation,
            quantiles_for(NOMINAL_LEVELS),
        ))
    except PredictorUnavailable:
        return
    record = record_from_quantiles(
        tick=tick.tick,
        elapsed=tick.elapsed,
        progress=tick.progress,
        allocation=tick.allocation,
        quantiles=quantiles,
    )
    ledger.append(record)


@lru_cache(maxsize=None)
def spread_table() -> CpaTable:
    """A small table with real spread (failures re-run map tasks)."""
    profile = deterministic_profile(failure_prob=0.3)
    return CpaTable.build(
        profile, totalwork(profile), np.random.default_rng(3),
        allocations=(1, 2, 4, 8), reps=4, num_bins=12, sample_dt=2.0,
    )


class SwitchablePredictor(CpaPredictor):
    """A C(p, a) predictor the test blacks out tick by tick."""

    down = False

    def remaining_seconds(self, fractions, allocation):
        if self.down:
            raise PredictorUnavailable("test blackout")
        return super().remaining_seconds(fractions, allocation)

    def remaining_seconds_batch(self, fractions, allocations):
        if self.down:
            raise PredictorUnavailable("test blackout")
        return super().remaining_seconds_batch(fractions, allocations)

    def remaining_quantiles(self, fractions, allocation, qs):
        if self.down:
            raise PredictorUnavailable("test blackout")
        return super().remaining_quantiles(fractions, allocation, qs)


class PointPredictor(SwitchablePredictor):
    """The same model without a distribution (no interval to publish)."""

    remaining_quantiles = None


@st.composite
def ledger_cases(draw):
    return dict(
        config=ControlConfig(
            min_tokens=1,
            max_tokens=draw(st.integers(1, 12)),
            allocation_step=draw(st.integers(1, 3)),
            hysteresis=draw(st.floats(0.05, 1.0)),
            dead_zone_seconds=draw(st.sampled_from((0.0, 30.0, 180.0))),
        ),
        deadline=draw(st.floats(20.0, 400.0)),
        distribution=draw(st.booleans()),
        ticks=draw(st.lists(
            st.tuples(
                st.floats(0.0, 1.0),      # map fraction
                st.floats(0.0, 1.0),      # reduce fraction
                st.floats(1.0, 90.0),     # seconds since the last tick
                st.booleans(),            # predictor blacked out
            ),
            min_size=1, max_size=10,
        )),
    )


class TestOneRecordPerDecision:
    @given(case=ledger_cases())
    def test_banded_records_are_the_ledger_they_replaced(self, case):
        config = case["config"]
        profile = deterministic_profile(failure_prob=0.3)
        cls = SwitchablePredictor if case["distribution"] else PointPredictor
        predictor = cls(spread_table(), totalwork(profile))
        ctl = JockeyController(
            predictor, deadline_utility(case["deadline"]), config,
            stage_names=("map", "reduce"),
        )
        reference: List[PredictionRecord] = []
        zero = {"map": 0.0, "reduce": 0.0}
        ctl.initial_allocation(zero)
        reference_record_prediction(predictor, zero, ctl.audit[-1], reference)
        elapsed = 0.0
        for map_fraction, reduce_fraction, step, down in case["ticks"]:
            elapsed += step
            fractions = {"map": map_fraction, "reduce": reduce_fraction}
            predictor.down = down
            record = ctl.decide(fractions, elapsed)
            predictor.down = False
            if not down:
                reference_record_prediction(predictor, fractions, record,
                                            reference)
        banded = forecasts(ctl.audit)
        assert [
            PredictionRecord(
                tick=r.tick, elapsed=r.elapsed, progress=r.progress,
                allocation=r.allocation, median=r.median, bands=r.bands,
            )
            for r in banded
        ] == reference
        for record in ctl.audit:
            if not record.bands:
                assert record.median is None
