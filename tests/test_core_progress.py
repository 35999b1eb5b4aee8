"""Unit and property tests for the six progress indicators."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.progress import (
    INDICATOR_NAMES,
    CriticalPathIndicator,
    MinStageIndicator,
    ProgressError,
    WeightedWorkIndicator,
    build_indicator,
    totalwork,
    totalwork_with_q,
    vertexfrac,
)
from repro.jobs.dag import Edge, EdgeType, JobGraph, Stage
from repro.jobs.profiles import JobProfile, StageProfile
from repro.simkit.distributions import Constant
from tests.test_core_simulator import random_profiles


def profile():
    """map: 4 tasks x 10s exec (Q=2s each); reduce: 2 tasks x 30s (Q=4s)."""
    graph = JobGraph(
        "g",
        [Stage("map", 4), Stage("reduce", 2)],
        [Edge("map", "reduce", EdgeType.ALL_TO_ALL)],
    )
    return JobProfile(
        graph,
        {
            "map": StageProfile(
                "map", runtime=Constant(10.0), queue_obs=Constant(2.0),
                rel_span=(0.0, 0.4),
            ),
            "reduce": StageProfile(
                "reduce", runtime=Constant(30.0), queue_obs=Constant(4.0),
                rel_span=(0.4, 1.0),
            ),
        },
    )


class TestWeightedWorkIndicators:
    def test_totalwork_weights(self):
        ind = totalwork(profile())
        # T_map = 40, T_reduce = 60.
        assert ind.progress({"map": 1.0, "reduce": 0.0}) == pytest.approx(0.4)
        assert ind.progress({"map": 0.5, "reduce": 0.5}) == pytest.approx(0.5)

    def test_totalwork_with_q_includes_queueing(self):
        ind = totalwork_with_q(profile())
        # weights: map 40+8=48, reduce 60+8=68 -> total 116.
        assert ind.progress({"map": 1.0, "reduce": 0.0}) == pytest.approx(48 / 116)

    def test_vertexfrac_counts_tasks(self):
        ind = vertexfrac(profile())
        assert ind.progress({"map": 1.0, "reduce": 0.0}) == pytest.approx(4 / 6)

    def test_bounds(self):
        ind = totalwork(profile())
        assert ind.progress({"map": 0.0, "reduce": 0.0}) == 0.0
        assert ind.progress({"map": 1.0, "reduce": 1.0}) == 1.0

    def test_missing_stage_rejected(self):
        with pytest.raises(ProgressError):
            totalwork(profile()).progress({"map": 0.5})

    def test_out_of_range_fraction_rejected(self):
        with pytest.raises(ProgressError):
            totalwork(profile()).progress({"map": 1.5, "reduce": 0.0})

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf, -1.0])
    def test_bad_weight_is_refused_naming_the_stage(self, weight):
        """A NaN weight made every progress value NaN, and the table build
        died converting it to a bin index."""
        with pytest.raises(ProgressError, match="stage 'a'"):
            WeightedWorkIndicator("x", {"a": weight, "b": 1.0})

    def test_zero_weight_is_a_stage_that_does_not_count(self):
        ind = WeightedWorkIndicator("x", {"a": 0.0, "b": 2.0})
        assert ind.progress({"a": 1.0, "b": 0.5}) == 0.5

    @given(
        f_map=st.floats(0, 1),
        f_reduce=st.floats(0, 1),
        delta=st.floats(0, 0.2),
    )
    @settings(max_examples=100)
    def test_monotonicity_property(self, f_map, f_reduce, delta):
        """More completed tasks never lowers reported progress."""
        for make in (totalwork, totalwork_with_q, vertexfrac):
            ind = make(profile())
            base = ind.progress({"map": f_map, "reduce": f_reduce})
            more = ind.progress(
                {"map": min(f_map + delta, 1.0), "reduce": f_reduce}
            )
            assert more >= base - 1e-9


class TestCriticalPathIndicator:
    def test_zero_at_start_one_at_end(self):
        ind = CriticalPathIndicator(profile())
        assert ind.progress({"map": 0.0, "reduce": 0.0}) == 0.0
        assert ind.progress({"map": 1.0, "reduce": 1.0}) == 1.0

    def test_remaining_critical_path_values(self):
        ind = CriticalPathIndicator(profile())
        # l_map=10, L_map=30; l_reduce=30, L_reduce=0. S_0 = 40.
        assert ind.remaining_critical_path({"map": 0.0, "reduce": 0.0}) == 40.0
        # Maps half done: max((0.5*10)+30, 30) = 35.
        assert ind.remaining_critical_path({"map": 0.5, "reduce": 0.0}) == 35.0
        # Maps done, reduce untouched: 30.
        assert ind.remaining_critical_path({"map": 1.0, "reduce": 0.0}) == 30.0

    def test_gets_stuck_on_non_critical_progress(self):
        """The paper's complaint: cp ignores progress off the critical
        path.  Completing reduce work while the other (longer) stage lags
        does not move the indicator."""
        graph = JobGraph(
            "wide",
            [Stage("long", 1), Stage("short", 10)],
            [],
        )
        prof = JobProfile(
            graph,
            {
                "long": StageProfile("long", runtime=Constant(100.0)),
                "short": StageProfile("short", runtime=Constant(1.0)),
            },
        )
        ind = CriticalPathIndicator(prof)
        p0 = ind.progress({"long": 0.0, "short": 0.0})
        p1 = ind.progress({"long": 0.0, "short": 0.9})
        assert p0 == p1


class TestMinStageIndicator:
    def test_tracks_most_behind_stage(self):
        ind = MinStageIndicator.from_profile(profile())
        # map half done -> 0 + 0.5*0.4 = 0.2; reduce untouched -> 0.4.
        assert ind.progress({"map": 0.5, "reduce": 0.0}) == pytest.approx(0.2)

    def test_finished_stage_leaves_min_set(self):
        ind = MinStageIndicator.from_profile(profile())
        value = ind.progress({"map": 1.0, "reduce": 0.5})
        assert value == pytest.approx(0.4 + 0.5 * 0.6)

    def test_all_done_is_one(self):
        ind = MinStageIndicator.from_profile(profile())
        assert ind.progress({"map": 1.0, "reduce": 1.0}) == 1.0

    def test_missing_span_defaults_to_full_range(self):
        graph = JobGraph("g", [Stage("s", 2)], [])
        prof = JobProfile(graph, {"s": StageProfile("s", runtime=Constant(1.0))})
        ind = MinStageIndicator.from_profile(prof)
        assert ind.progress({"s": 0.5}) == pytest.approx(0.5)

    def test_explicit_spans_validated(self):
        with pytest.raises(ProgressError):
            MinStageIndicator({"s": (0.9, 0.1)})
        with pytest.raises(ProgressError):
            MinStageIndicator({})


class TestFactory:
    def test_builds_all_names(self):
        prof = profile()
        for name in INDICATOR_NAMES:
            if name == "minstage-inf":
                ind = build_indicator(
                    name, prof, inf_spans={"map": (0.0, 0.3), "reduce": (0.3, 1.0)}
                )
            else:
                ind = build_indicator(name, prof)
            assert 0.0 <= ind.progress({"map": 0.5, "reduce": 0.0}) <= 1.0

    def test_minstage_inf_requires_spans(self):
        with pytest.raises(ProgressError):
            build_indicator("minstage-inf", profile())

    def test_unknown_name(self):
        with pytest.raises(ProgressError):
            build_indicator("magic", profile())


def every_indicator(prof):
    """One indicator of each class (and of each paper name) over ``prof``."""
    inf_spans = {"map": (0.0, 0.3), "reduce": (0.3, 1.0)}
    return [build_indicator(name, prof, inf_spans=inf_spans)
            for name in INDICATOR_NAMES]


class TestPositionalEntry:
    def test_stage_names_are_the_profiles(self):
        for ind in every_indicator(profile()):
            assert ind.stage_names == ("map", "reduce")

    @given(prof=random_profiles(), data=st.data())
    def test_progress_at_is_progress_bit_for_bit(self, prof, data):
        """On a random DAG, every class's positional entry equals its
        mapping entry, which checks its input and reads it in
        ``stage_names`` order whatever order the mapping has."""
        names = data.draw(st.permutations(prof.stage_names))
        fractions = {s: data.draw(st.floats(0, 1)) for s in names}
        unit = st.floats(0, 1)
        inf_spans = {s: tuple(sorted(data.draw(st.tuples(unit, unit))))
                     for s in names}
        for kind in INDICATOR_NAMES:
            ind = build_indicator(kind, prof, inf_spans=inf_spans)
            positional = ind.progress_at([fractions[s] for s in ind.stage_names])
            assert positional == ind.progress(fractions)
            assert 0.0 <= positional <= 1.0
