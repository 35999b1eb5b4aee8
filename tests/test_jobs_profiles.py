"""Unit tests for job profiles."""

import pytest

from repro.jobs.dag import Edge, EdgeType, JobGraph, Stage
from repro.jobs.profiles import JobProfile, ProfileError, StageProfile
from repro.jobs.trace import OUTCOME_FAILED, RunTrace, TaskRecord
from repro.simkit.distributions import Constant, Empirical


def small_graph():
    return JobGraph(
        "g",
        [Stage("map", 2), Stage("reduce", 1)],
        [Edge("map", "reduce", EdgeType.ALL_TO_ALL)],
    )


def profile_for(graph):
    return JobProfile(
        graph,
        {
            "map": StageProfile(
                "map", runtime=Constant(10.0), init=Constant(1.0),
                queue_obs=Constant(2.0),
            ),
            "reduce": StageProfile(
                "reduce", runtime=Constant(30.0), queue_obs=Constant(4.0),
            ),
        },
    )


class TestStageProfileValidation:
    def test_bad_failure_prob(self):
        with pytest.raises(ProfileError):
            StageProfile("s", runtime=Constant(1.0), failure_prob=1.0)

    def test_bad_rel_span(self):
        with pytest.raises(ProfileError):
            StageProfile("s", runtime=Constant(1.0), rel_span=(0.8, 0.2))

    def test_mean_task_cost_includes_init(self):
        sp = StageProfile("s", runtime=Constant(10.0), init=Constant(2.0))
        assert sp.mean_task_cost() == 12.0


class TestJobProfileValidation:
    def test_missing_stage_rejected(self):
        graph = small_graph()
        with pytest.raises(ProfileError, match="missing"):
            JobProfile(graph, {"map": StageProfile("map", runtime=Constant(1.0))})

    def test_extra_stage_rejected(self):
        graph = small_graph()
        stages = {
            "map": StageProfile("map", runtime=Constant(1.0)),
            "reduce": StageProfile("reduce", runtime=Constant(1.0)),
            "ghost": StageProfile("ghost", runtime=Constant(1.0)),
        }
        with pytest.raises(ProfileError, match="unknown"):
            JobProfile(graph, stages)

    def test_unknown_stage_lookup(self):
        with pytest.raises(ProfileError):
            profile_for(small_graph()).stage("nope")


class TestAggregates:
    def test_total_exec_seconds(self):
        profile = profile_for(small_graph())
        totals = profile.total_exec_seconds()
        assert totals["map"] == 22.0   # 2 tasks x (10 + 1)
        assert totals["reduce"] == 30.0

    def test_total_queue_seconds(self):
        profile = profile_for(small_graph())
        queues = profile.total_queue_seconds()
        assert queues["map"] == 4.0
        assert queues["reduce"] == 4.0

    def test_total_work(self):
        assert profile_for(small_graph()).total_work_seconds() == 52.0

    def test_longest_task_seconds(self):
        longest = profile_for(small_graph()).longest_task_seconds()
        assert longest["map"] == 11.0
        assert longest["reduce"] == 30.0

    def test_longest_path_after_excludes_own_stage(self):
        paths = profile_for(small_graph()).longest_path_after()
        assert paths["reduce"] == 0.0
        assert paths["map"] == 30.0

    def test_critical_path(self):
        profile = profile_for(small_graph())
        longest = profile.longest_task_seconds()
        assert max(profile.graph.longest_path_from(longest).values()) == 41.0


class TestScaling:
    def test_runtime_scale(self):
        scaled = profile_for(small_graph()).with_runtime_scale(2.0)
        assert scaled.stage("reduce").runtime.mean() == 60.0
        # queue_obs is observed data, not behaviour — unscaled.
        assert scaled.stage("reduce").queue_obs.mean() == 4.0


class TestFromTrace:
    def build_trace(self):
        trace = RunTrace(job_name="g", start_time=0.0)
        trace.add(TaskRecord("map", 0, 0, 0.0, 1.0, 11.0))
        trace.add(TaskRecord("map", 1, 0, 0.0, 2.0, 10.0))
        trace.add(
            TaskRecord("map", 1, 1, 0.0, 0.5, 3.0, outcome=OUTCOME_FAILED)
        )
        trace.add(TaskRecord("reduce", 0, 0, 11.0, 12.0, 40.0))
        trace.end_time = 40.0
        return trace

    def test_builds_empirical_runtimes(self):
        profile = JobProfile.from_trace(small_graph(), self.build_trace())
        runtime = profile.stage("map").runtime
        assert isinstance(runtime, Empirical)
        assert sorted(runtime.values) == [8.0, 10.0]

    def test_failure_prob_observed(self):
        profile = JobProfile.from_trace(small_graph(), self.build_trace())
        assert profile.stage("map").failure_prob == pytest.approx(1 / 3)
        assert profile.stage("reduce").failure_prob == 0.0

    def test_failure_prob_floor(self):
        profile = JobProfile.from_trace(
            small_graph(), self.build_trace(), min_failure_prob=0.01
        )
        assert profile.stage("reduce").failure_prob == 0.01

    def test_rel_spans_recorded(self):
        profile = JobProfile.from_trace(small_graph(), self.build_trace())
        span = profile.stage("reduce").rel_span
        assert span == pytest.approx((12 / 40, 1.0))

    def test_missing_stage_in_trace_rejected(self):
        trace = RunTrace(job_name="g", start_time=0.0)
        trace.add(TaskRecord("map", 0, 0, 0.0, 1.0, 11.0))
        trace.end_time = 11.0
        with pytest.raises(ProfileError, match="reduce"):
            JobProfile.from_trace(small_graph(), trace)
