"""Tests for the online-learning layer: update policies and the drift
detector.

Update policies must be deterministic functions of the lineage (no RNG in
the blend), weight newer generations at least as much as older ones, and
respect the pooled-sample cap.  The drift detector must stay quiet on
run-to-run noise and fire on a genuine multiplicative drift.
"""

import math

import pytest

from repro.fleet.store import FleetError
from repro.fleet.update import (
    KS_STAGE_FRACTION,
    MAX_SAMPLES,
    MEAN_SHIFT_THRESHOLD,
    WINDOW,
    _quantile_subsample,
    detect_drift,
    ks_statistic,
    resolve_profile,
)
from repro.jobs.dag import Edge, EdgeType, JobGraph, Stage
from repro.jobs.profiles import JobProfile, StageProfile
from repro.simkit.distributions import Constant, Empirical


def graph():
    return JobGraph(
        "g",
        [Stage("map", 4), Stage("reduce", 2)],
        [Edge("map", "reduce", EdgeType.ALL_TO_ALL)],
    )


def make_profile(g, map_values, reduce_values=None):
    reduce_values = reduce_values or [30.0 + 0.5 * i for i in range(16)]
    return JobProfile(
        g,
        {
            "map": StageProfile(
                "map",
                runtime=Empirical(map_values),
                queue_obs=Constant(2.0),
                failure_prob=0.01,
            ),
            "reduce": StageProfile(
                "reduce",
                runtime=Empirical(reduce_values),
                queue_obs=Constant(4.0),
                failure_prob=0.02,
            ),
        },
    )


def spread(center, n=32, width=0.2):
    """n samples evenly spread in center * (1 +/- width)."""
    return [
        center * (1.0 - width + 2.0 * width * i / (n - 1)) for i in range(n)
    ]


class TestQuantileSubsample:
    def test_keeps_extremes_and_count(self):
        values = list(range(100))
        out = _quantile_subsample(values, 10)
        assert len(out) == 10
        assert out[0] == 0 and out[-1] == 99
        assert out == sorted(out)

    def test_full_when_count_covers(self):
        assert _quantile_subsample([3.0, 1.0, 2.0], 5) == [1.0, 2.0, 3.0]

    def test_single_is_median(self):
        assert _quantile_subsample(list(range(11)), 1) == [5]


class TestUpdateConfigValidation:
    def test_unknown_policy(self):
        g = graph()
        with pytest.raises(FleetError, match="unknown update policy"):
            resolve_profile("psychic", [make_profile(g, spread(10.0))])


class TestResolveProfile:
    def test_empty_lineage_raises(self):
        with pytest.raises(FleetError, match="empty lineage"):
            resolve_profile("ewma", [])

    def test_latest_returns_newest_verbatim(self):
        g = graph()
        old = make_profile(g, spread(10.0))
        new = make_profile(g, spread(20.0))
        assert resolve_profile("latest", [old, new]) is new

    def test_single_generation_short_circuits(self):
        g = graph()
        only = make_profile(g, spread(10.0))
        assert resolve_profile("ewma", [only]) is only

    def test_ewma_weights_newest_more(self):
        g = graph()
        lineage = [make_profile(g, spread(10.0)), make_profile(g, spread(20.0))]
        blended = resolve_profile("ewma", lineage)
        # Weights 1/3 vs 2/3: the blend sits between the two generations'
        # midpoint and the newest generation.
        mean = blended.stage("map").runtime.mean()
        assert 15.5 < mean < 19.5

    def test_window_drops_old_generations(self):
        g = graph()
        lineage = [make_profile(g, spread(100.0))] + [
            make_profile(g, spread(10.0)) for _ in range(WINDOW)
        ]
        blended = resolve_profile("ewma", lineage)
        assert blended.stage("map").runtime.mean() == pytest.approx(
            10.0, rel=0.05
        )

    def test_max_samples_caps_pool(self):
        g = graph()
        lineage = [
            make_profile(g, spread(10.0, n=400)),
            make_profile(g, spread(20.0, n=400)),
        ]
        blended = resolve_profile("ewma", lineage)
        assert len(blended.stage("map").runtime.values) == MAX_SAMPLES < 800

    def test_failure_prob_blends(self):
        g = graph()
        lineage = [make_profile(g, spread(10.0)), make_profile(g, spread(10.0))]
        blended = resolve_profile("ewma", lineage)
        assert blended.stage("map").failure_prob == pytest.approx(0.01)

    def test_deterministic_for_fixed_lineage(self):
        g = graph()
        lineage = [make_profile(g, spread(10.0)), make_profile(g, spread(14.0))]
        a = resolve_profile("ewma", lineage)
        b = resolve_profile("ewma", lineage)
        assert list(a.stage("map").runtime.values) == list(
            b.stage("map").runtime.values
        )


class TestKsStatistic:
    def test_identical_samples_zero(self):
        xs = spread(10.0)
        assert ks_statistic(xs, xs) == 0.0

    def test_disjoint_samples_one(self):
        assert ks_statistic([1.0, 2.0, 3.0], [10.0, 11.0]) == 1.0


class TestDetectDrift:
    def test_mismatched_stages_raise(self):
        g = graph()
        other = JobGraph("h", [Stage("solo", 3)], [])
        solo = JobProfile(
            other, {"solo": StageProfile("solo", runtime=Constant(5.0))}
        )
        with pytest.raises(FleetError, match="matching stage sets"):
            detect_drift(make_profile(g, spread(10.0)), solo)

    def test_identical_profiles_insignificant(self):
        g = graph()
        p = make_profile(g, spread(10.0))
        report = detect_drift(p, p)
        assert not report.significant
        assert report.work_ratio == pytest.approx(1.0)
        assert report.max_statistic == 0.0

    def test_small_jitter_insignificant(self):
        g = graph()
        ref = make_profile(g, spread(10.0))
        obs = make_profile(g, spread(11.0))  # 10% shift: inside noise band
        report = detect_drift(ref, obs)
        assert not report.significant

    def test_global_scale_drift_significant(self):
        g = graph()
        ref = make_profile(g, spread(10.0), spread(30.0))
        obs = make_profile(g, spread(16.0), spread(48.0))  # 1.6x everywhere
        report = detect_drift(ref, obs)
        assert report.significant
        assert report.work_ratio == pytest.approx(1.6, rel=0.01)
        assert report.work_shift == pytest.approx(0.6, rel=0.01)
        assert report.drifted_stages()  # per-stage evidence corroborates

    def test_mean_mode_uses_work_ratio_only(self):
        # The work-ratio statistic alone passes its threshold.
        g = graph()
        ref = make_profile(g, spread(10.0), spread(30.0))
        obs = make_profile(g, spread(16.0), spread(48.0))
        report = detect_drift(ref, obs)
        assert report.significant
        assert report.work_shift > MEAN_SHIFT_THRESHOLD

    def test_ks_mode_needs_stage_votes(self):
        g = graph()
        ref = make_profile(g, spread(10.0), spread(30.0))
        obs = make_profile(g, spread(16.0), spread(48.0))
        report = detect_drift(ref, obs)
        assert report.significant
        assert report.ks_trip_fraction == 1.0 >= KS_STAGE_FRACTION

    def test_tiny_stages_are_ks_ineligible(self):
        g = JobGraph("tiny", [Stage("s", 1)], [])
        ref = JobProfile(
            g, {"s": StageProfile("s", runtime=Empirical([10.0, 11.0]))}
        )
        obs = JobProfile(
            g, {"s": StageProfile("s", runtime=Empirical([30.0, 31.0]))}
        )
        report = detect_drift(ref, obs)
        # No eligible stage: the KS vote cannot pass, however large the
        # shift looks at n=2, and nothing corroborates the work shift.
        assert report.ks_trip_fraction == 0.0 and report.median_ratio == 1.0
        assert report.work_shift > MEAN_SHIFT_THRESHOLD
        assert not report.significant
        assert math.isinf(report.stages[0].ks_threshold)
        assert not report.stages[0].significant

    def test_parametric_profiles_fall_back_to_means(self):
        g = JobGraph("param", [Stage("s", 4)], [])
        ref = JobProfile(g, {"s": StageProfile("s", runtime=Constant(10.0))})
        obs = JobProfile(g, {"s": StageProfile("s", runtime=Constant(16.0))})
        report = detect_drift(ref, obs)
        assert report.work_ratio == pytest.approx(1.6)
        # Parametric stages have no samples to corroborate the means: the
        # shift is reported, and without corroboration it is not a drift.
        assert report.work_shift > MEAN_SHIFT_THRESHOLD
        assert report.median_ratio == 1.0 and report.ks_trip_fraction == 0.0
        assert not report.significant
