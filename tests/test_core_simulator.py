"""Unit tests for Jockey's offline job simulator."""

import hashlib
import heapq
from collections import deque

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.progress import (
    WeightedWorkIndicator,
    build_indicator,
    totalwork,
    totalwork_with_q,
)
from repro.core.simulator import (
    SimulatedRun,
    SimulatorError,
    _StageSampler,
    simulate_job,
    simulate_relative_spans,
)
from repro.jobs.dag import Edge, EdgeType, GraphError, JobGraph, Stage
from repro.jobs.profiles import JobProfile, StageProfile
from repro.jobs.workloads import generate_table2_jobs
from repro.simkit import distributions as _dist
from repro.simkit.distributions import Constant, LogNormal, Uniform
from tests.test_jobs_dag import NaiveTracker, random_dags


def deterministic_profile(num_maps=6, num_reduces=2, map_time=10.0,
                          reduce_time=5.0, failure_prob=0.0):
    graph = JobGraph(
        "tiny",
        [Stage("map", num_maps), Stage("reduce", num_reduces)],
        [Edge("map", "reduce", EdgeType.ALL_TO_ALL)],
    )
    return JobProfile(
        graph,
        {
            "map": StageProfile("map", runtime=Constant(map_time),
                                failure_prob=failure_prob),
            "reduce": StageProfile("reduce", runtime=Constant(reduce_time)),
        },
    )


@pytest.fixture
def rng():
    return np.random.default_rng(5)


class TestDeterministicJobs:
    def test_full_parallelism_duration(self, rng):
        run = simulate_job(deterministic_profile(), 100, rng)
        assert run.duration == pytest.approx(15.0)

    def test_serial_duration(self, rng):
        run = simulate_job(deterministic_profile(), 1, rng)
        assert run.duration == pytest.approx(70.0)

    def test_partial_allocation_wave_scheduling(self, rng):
        # 6 maps at 10s with 4 tokens: waves of 4 then 2 -> 20s; + 5s reduce.
        run = simulate_job(deterministic_profile(), 4, rng)
        assert run.duration == pytest.approx(25.0)

    def test_total_cpu_seconds(self, rng):
        run = simulate_job(deterministic_profile(), 3, rng)
        assert run.total_cpu_seconds == pytest.approx(70.0)

    def test_more_tokens_never_slower(self, rng):
        durations = [
            simulate_job(deterministic_profile(), a, rng).duration
            for a in (1, 2, 4, 8, 100)
        ]
        assert durations == sorted(durations, reverse=True)

    def test_invalid_allocation(self, rng):
        """NaN used to stall naming the stages, 2.5 ran on 3 tokens and
        recorded 2.5, inf ran, and a ``max_task_attempts`` below 1 turned
        every task failure off: each is refused, named, before any draw."""
        profile = deterministic_profile(failure_prob=0.5)
        state = rng.bit_generator.state
        for name, value in [
            *(("allocation", v) for v in (0, -1, 2.5, 3.0, float("nan"),
                                          float("inf"), "4", None)),
            *(("max_task_attempts", v) for v in (0, -1, 2.5, float("nan"))),
        ]:
            options = {"allocation": 4, "max_task_attempts": 20, name: value}
            with pytest.raises(SimulatorError, match=f"{name} must be") as err:
                simulate_job(profile, options.pop("allocation"), rng, **options)
            assert repr(value) in str(err.value)
        assert rng.bit_generator.state == state
        run = simulate_job(deterministic_profile(), np.int64(4), rng)
        assert run.duration == pytest.approx(25.0)

    @pytest.mark.parametrize(
        "sample_dt", [0, 0.0, -15.0, float("nan"), float("inf"), float("-inf")]
    )
    @pytest.mark.parametrize("with_indicator", [True, False])
    def test_invalid_sample_dt_names_the_value(self, rng, sample_dt, with_indicator):
        """A zero step never advanced the sampling loop (the run hung), a
        negative or NaN one did no better: rejected up front, sampled or not."""
        profile = deterministic_profile()
        indicator = totalwork(profile) if with_indicator else None
        with pytest.raises(SimulatorError, match="sample_dt") as err:
            simulate_job(profile, 4, rng, indicator=indicator, sample_dt=sample_dt)
        assert repr(sample_dt) in str(err.value)


class TestFailures:
    def test_failures_retry_until_success(self, rng):
        profile = deterministic_profile(failure_prob=0.4)
        run = simulate_job(profile, 10, rng)
        assert run.failures > 0
        assert run.duration > 15.0  # retries cost time

    def test_failure_work_counted_in_cpu(self, rng):
        profile = deterministic_profile(failure_prob=0.4)
        run = simulate_job(profile, 10, rng)
        assert run.total_cpu_seconds > 70.0


class TestProgressSampling:
    def test_samples_cover_run(self, rng):
        profile = deterministic_profile()
        indicator = totalwork(profile)
        run = simulate_job(profile, 4, rng, indicator=indicator, sample_dt=5.0)
        times = [t for t, _p in run.progress_samples]
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(run.duration)

    def test_progress_monotone_nondecreasing(self, rng):
        profile = deterministic_profile()
        indicator = totalwork(profile)
        run = simulate_job(profile, 4, rng, indicator=indicator, sample_dt=2.0)
        values = [p for _t, p in run.progress_samples]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
        assert values[0] == 0.0
        assert values[-1] == pytest.approx(1.0)

    def test_remaining_samples_invert_time(self, rng):
        profile = deterministic_profile()
        indicator = totalwork(profile)
        run = simulate_job(profile, 4, rng, indicator=indicator, sample_dt=5.0)
        for (t, _p), (p2, remaining) in zip(
            run.progress_samples, run.remaining_samples()
        ):
            assert remaining == pytest.approx(run.duration - t)

    def test_no_indicator_no_samples(self, rng):
        run = simulate_job(deterministic_profile(), 4, rng)
        assert run.progress_samples == []


class TestSpans:
    def test_relative_spans_ordered(self, rng):
        spans = simulate_relative_spans(deterministic_profile(), rng)
        assert spans["map"][0] == 0.0
        assert spans["reduce"][0] >= spans["map"][1] - 1e-9
        assert spans["reduce"][1] == pytest.approx(1.0)

    def test_spans_only_when_tracked(self, rng):
        run = simulate_job(deterministic_profile(), 4, rng, track_spans=False)
        assert run.stage_spans == {}


class TestSimulateDurations:
    def test_returns_requested_count(self, rng):
        """Repeated runs off one generator, as a C(p, a) column draws them."""
        durations = [
            simulate_job(deterministic_profile(), 4, rng).duration
            for _ in range(5)
        ]
        assert len(durations) == 5
        assert all(d == pytest.approx(25.0) for d in durations)


class TestAgainstSubstrate:
    def test_matches_cluster_runtime_for_deterministic_job(self, rng):
        """The offline simulator and the substrate agree exactly when the
        job is deterministic and the cluster is quiet — the model gap in
        the experiments comes only from cluster effects."""
        from repro.runtime.jobmanager import JobManager, run_to_completion
        from repro.simkit.events import Simulator
        from tests.test_runtime_jobmanager import quiet_cluster

        profile = deterministic_profile()
        offline = simulate_job(profile, 4, rng).duration

        sim = Simulator()
        cluster = quiet_cluster(sim, machines=2, slots=2)  # capacity 4
        manager = JobManager(cluster, profile.graph, profile,
                             initial_allocation=4)
        actual = run_to_completion(manager).duration
        assert offline == pytest.approx(actual)


def run_fingerprint(run):
    """``(duration, cpu seconds, failures, sha256 of the progress samples)``:
    every float a C(p, a) table is built from, exactly."""
    samples = hashlib.sha256(repr(run.progress_samples).encode()).hexdigest()
    return (run.duration, run.total_cpu_seconds, run.failures, samples)


def flaky_profile():
    """Most attempts fail, so tasks run into the ``max_task_attempts`` guard."""
    graph = JobGraph(
        "flaky",
        [Stage("map", 40), Stage("merge", 10), Stage("reduce", 4)],
        [Edge("map", "merge"), Edge("merge", "reduce", EdgeType.ALL_TO_ALL)],
    )
    stages = {
        s.name: StageProfile(s.name, runtime=LogNormal(2.0, 0.5), failure_prob=0.9)
        for s in graph.stages
    }
    return JobProfile(graph, stages)


class TestGoldenDeterminism:
    """Outputs pinned on the commit before the readiness-plan refactor: the
    simulator may get faster, its draws, tie-breaks and FIFO order may not
    move.  A legitimate change to the model has to re-pin these."""

    SEED = 13

    TABLE2 = {
        ("A", 10): (2169.7434999512316, 19245.817148220543, 1,
                    "f547d11204c5d54c9be34ce9e25564d20121afa97234f3fb23698b04d00ba316"),
        ("A", 100): (894.5276795578925, 19245.817148220536, 1,
                     "5f3c21feb0d8c2625a66ae861fab24addf624f96f366a0934db802ba92d10668"),
        ("C", 10): (2427.5955417393134, 24242.02315775375, 7,
                    "7a3f63ca68a2ca71a8ad162d26e02e9aad32cc7c1d4bc1338683cbfd8208de20"),
        ("C", 100): (249.21134414209277, 24242.02315775377, 7,
                     "6f713bc662fe3b7dbd920e93d013fe8663c435b718e8982fc9e4f6519cb88efd"),
        ("E", 10): (6051.8437941718885, 59069.92248329548, 4,
                    "2511f09eadbc851aacb466573b721da66a57f588a98611f0dd8b0be5a58764b4"),
        ("E", 100): (1497.4487546072035, 59069.92248329551, 4,
                     "eb10d20dd026039576630eccb3993b68c10caf7b25e7cc106c6f839fa140232d"),
    }
    FLAKY = (123.84311673464934, 826.1070510832346, 88,
             "fecc772c967fc4e8e20c6ef210cd65e137b54623328d1b335446adf171e79825")
    FLAKY_UNGUARDED_FAILURES = 560
    SPANS = (960.7863502282692, 19245.81714822054, 1,
             "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
             "c18ecce584a79f746de62f50d8e1c41a375bb8a677da19bf82e8b4b844838a34")

    @pytest.fixture(scope="class")
    def table2(self):
        return generate_table2_jobs(seed=0)

    @pytest.mark.parametrize("job,allocation", sorted(TABLE2))
    def test_table2_runs(self, table2, job, allocation):
        profile = table2[job].profile
        run = simulate_job(
            profile, allocation, np.random.default_rng(self.SEED),
            indicator=totalwork_with_q(profile),
        )
        assert run_fingerprint(run) == self.TABLE2[(job, allocation)]

    def test_livelock_guard_run(self):
        profile = flaky_profile()
        run = simulate_job(
            profile, 8, np.random.default_rng(self.SEED),
            indicator=totalwork(profile), sample_dt=5.0, max_task_attempts=3,
        )
        assert run_fingerprint(run) == self.FLAKY
        # The guard binds: no task fails more than twice, and without the
        # guard the same seed fails more often.
        assert run.failures <= 2 * profile.graph.num_vertices
        unguarded = simulate_job(
            profile, 8, np.random.default_rng(self.SEED), max_task_attempts=10**6
        )
        assert unguarded.failures == self.FLAKY_UNGUARDED_FAILURES > run.failures

    def test_tracked_spans_run(self, table2):
        run = simulate_job(
            table2["A"].profile, 50, np.random.default_rng(self.SEED),
            track_spans=True,
        )
        spans = hashlib.sha256(repr(list(run.stage_spans.items())).encode())
        assert run_fingerprint(run) + (spans.hexdigest(),) == self.SPANS


class ScalarSampler:
    """``_StageSampler`` as it was before failures were resolved a block at
    a time, verbatim: raw slots out, the caller applies the failure rule."""

    def __init__(self, sp, seed, num_tasks):
        self._sp = sp
        self._rng = np.random.default_rng(seed)
        self._chunk = min(256, max(16, num_tasks))
        self._pos = self._chunk  # force a refill on the first draw
        self._costs = []
        self._fail_us = []
        self._fail_fracs = []

    def _refill(self):
        sp, rng, k = self._sp, self._rng, self._chunk
        self._costs = (
            _dist.sample_n(sp.runtime, rng, k) + _dist.sample_n(sp.init, rng, k)
        ).tolist()
        self._fail_us = rng.random(k).tolist()
        self._fail_fracs = rng.uniform(0.05, 0.95, k).tolist()
        self._pos = 0

    def draw(self):
        pos = self._pos
        if pos >= self._chunk:
            self._refill()
            pos = 0
        self._pos = pos + 1
        return self._costs[pos], self._fail_us[pos], self._fail_fracs[pos]


class TrackerByDefinition(NaiveTracker):
    """The by-definition tracker of ``tests/test_jobs_dag.py`` with the
    read-out the simulator loop samples progress from."""

    def stage_fractions(self):
        done = {s.name: 0 for s in self.graph.stages}
        for stage, _index in self.done:
            done[stage] += 1
        return {s.name: done[s.name] / s.num_tasks for s in self.graph.stages}


def reference_simulate_job(profile, allocation, rng, *, indicator=None,
                           sample_dt=15.0, max_task_attempts=20,
                           track_spans=False):
    """``simulate_job``'s loop as it was before it ran on task ids, verbatim
    (telemetry dropped): ``(stage, index)`` tasks, one ``draw()`` and the
    scalar failure rule per start, pop + push per event.  Readiness comes
    from the by-definition tracker, so nothing below the loop is shared
    with the code under test either."""
    graph = profile.graph
    tracker = TrackerByDefinition(graph)
    ready = deque(tracker.initially_ready())
    stages = {}
    for stage in graph.stages:
        sp = profile.stage(stage.name)
        sampler = ScalarSampler(sp, int(rng.integers(0, 2**63)), stage.num_tasks)
        stages[stage.name] = (sp.failure_prob, sampler.draw)
    running = []
    in_flight = 0
    seq = 0
    now = 0.0
    total_cpu = 0.0
    failures = 0
    attempts = {}
    stage_first_start = {}
    stage_last_end = {}
    samples = []
    next_sample = 0.0 if indicator is not None else float("inf")

    heappush = heapq.heappush
    heappop = heapq.heappop
    popleft = ready.popleft
    complete = tracker.complete
    fractions = tracker.stage_fractions

    while True:
        while ready and in_flight < allocation:
            task = popleft()
            stage = task[0]
            failure_prob, draw = stages[stage]
            runtime, fail_u, fail_frac = draw()
            will_fail = failure_prob > 0 and fail_u < failure_prob
            if will_fail:
                if attempts.get(task, 0) + 1 >= max_task_attempts:
                    will_fail = False  # give up on failing: avoid livelock
                else:
                    runtime *= fail_frac
            total_cpu += runtime
            if track_spans and stage not in stage_first_start:
                stage_first_start[stage] = now
            heappush(running, (now + runtime, seq, task, will_fail))
            seq += 1
            in_flight += 1
        if not running:
            break
        finish_time, _seq, task, will_fail = heappop(running)
        in_flight -= 1
        up_to = finish_time - 1e-9
        while next_sample <= up_to:
            samples.append((next_sample, indicator.progress(fractions())))
            next_sample += sample_dt
        now = finish_time
        if will_fail:
            failures += 1
            attempts[task] = attempts.get(task, 0) + 1
            ready.append(task)
        else:
            ready.extend(complete(*task))
            if track_spans:
                stage_last_end[task[0]] = now

    assert tracker.all_complete()
    duration = now
    spans = {}
    if track_spans and duration > 0:
        for name in stages:
            lo = stage_first_start.get(name, 0.0) / duration
            hi = stage_last_end.get(name, duration) / duration
            spans[name] = (min(lo, 1.0), min(max(hi, lo), 1.0))
    if indicator is not None:
        samples.append((duration, indicator.progress(fractions())))
    return SimulatedRun(
        allocation=allocation,
        duration=duration,
        total_cpu_seconds=total_cpu,
        failures=failures,
        progress_samples=samples,
        stage_spans=spans,
    )


@st.composite
def random_profiles(draw):
    """A random DAG (unequal pointwise widths both ways, several barrier
    in-edges on one stage, diamonds, single-stage) with noisy stages, some
    of which fail most of their attempts."""
    graph = draw(random_dags())
    failure_prob = st.sampled_from([0.0, 0.0, 0.05, 0.5, 0.9])
    # Constant stages finish together: the (finish_time, seq) tie-break and
    # the FIFO order behind it decide those runs.
    runtime = st.one_of(
        st.builds(LogNormal, st.floats(0.5, 3.0), st.just(0.6)),
        st.builds(Constant, st.sampled_from([1.0, 2.0])),
    )
    init = st.sampled_from([Uniform(0.5, 1.5), Constant(0.0)])
    stages = {
        s.name: StageProfile(
            s.name, runtime=draw(runtime), init=draw(init),
            failure_prob=draw(failure_prob),
        )
        for s in graph.stages
    }
    return JobProfile(graph, stages)


#: The indicators the differential samples through: each class, and each
#: weighting of the weighted one.
SAMPLED_KINDS = ("totalworkWithQ", "totalwork", "vertexfrac", "cp", "minstage")


class TestSimulatorIsTheNameAddressedLoop:
    @given(
        profile=random_profiles(),
        seed=st.integers(0, 2**32 - 1),
        max_task_attempts=st.sampled_from([2, 3, 20]),
        kind=st.sampled_from((None,) + SAMPLED_KINDS),
        sample_dt=st.sampled_from([0.7, 5.0, 15.0]),
        track_spans=st.booleans(),
    )
    def test_equal_runs(self, profile, seed, max_task_attempts, kind,
                        sample_dt, track_spans):
        """Every field of the run, exactly, at one token, a few and one per
        vertex — with the livelock guard's raw-cost branch in reach.  The
        reference samples through ``progress(mapping)``, the simulator
        through the positional entry bound to the tracker."""
        options = dict(
            indicator=None if kind is None else build_indicator(kind, profile),
            sample_dt=sample_dt,
            max_task_attempts=max_task_attempts,
            track_spans=track_spans,
        )
        for allocation in (1, 3, profile.graph.num_vertices):
            new = simulate_job(
                profile, allocation, np.random.default_rng(seed), **options
            )
            old = reference_simulate_job(
                profile, allocation, np.random.default_rng(seed), **options
            )
            assert new == old

    def test_the_guard_branch_is_exercised(self):
        """The differential above is only worth its name if forced
        successes happen in it: at 0.9 and two attempts nearly every task
        is one."""
        profile = flaky_profile()
        options = dict(indicator=totalwork(profile), sample_dt=5.0,
                       max_task_attempts=2, track_spans=True)
        new = simulate_job(profile, 8, np.random.default_rng(3), **options)
        old = reference_simulate_job(profile, 8, np.random.default_rng(3), **options)
        assert new == old
        assert new.failures > 0.8 * profile.graph.num_vertices


class TestBoundIndicator:
    def test_unknown_stage_is_refused_before_the_first_draw(self):
        profile = deterministic_profile()
        indicator = WeightedWorkIndicator("x", {"map": 1.0, "shuffle": 1.0})
        rng = np.random.default_rng(4)
        before = rng.bit_generator.state
        with pytest.raises(GraphError, match="'shuffle'"):
            simulate_job(profile, 3, rng, indicator=indicator)
        assert rng.bit_generator.state == before

    @given(
        profile=random_profiles(),
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(SAMPLED_KINDS),
        allocation=st.sampled_from([1, 3, 50]),
    )
    def test_every_sample_is_in_the_unit_interval(self, profile, seed, kind,
                                                  allocation):
        """No per-sample range check is left: a tracker's pending count stays
        in [0, size], so every fraction and every progress value is in
        [0, 1].  Progress never falls, and the last sample is the end."""
        run = simulate_job(profile, allocation, np.random.default_rng(seed),
                           indicator=build_indicator(kind, profile),
                           sample_dt=2.0)
        progress = [p for _t, p in run.progress_samples]
        assert all(0.0 <= p <= 1.0 for p in progress)
        assert progress == sorted(progress)
        assert run.progress_samples[-1] == (run.duration, 1.0)


class TestBlockResolvedDraws:
    @pytest.mark.parametrize("failure_prob", [0.0, 0.001, 0.3, 0.9])
    @pytest.mark.parametrize("num_tasks", [5, 40, 1000])
    def test_slot_for_slot_the_scalar_rule(self, failure_prob, num_tasks):
        """Four refills of the block-resolved sampler against the scalar
        rule applied to the raw slots of the same substream."""
        sp = StageProfile("s", runtime=LogNormal(2.0, 0.5), init=Uniform(0.5, 1.5),
                          failure_prob=failure_prob)
        resolved = _StageSampler(sp, 77, num_tasks)
        scalar = ScalarSampler(sp, 77, num_tasks)
        assert resolved.pos == resolved.chunk == scalar._chunk
        failed = 0
        for _refill in range(4):
            resolved.refill()
            assert resolved.pos == 0
            assert len(resolved.costs) == len(resolved.fails) == resolved.chunk
            for pos in range(resolved.chunk):
                runtime, fail_u, fail_frac = scalar.draw()
                will_fail = failure_prob > 0 and fail_u < failure_prob
                assert resolved.fails[pos] is will_fail
                assert resolved.raw_costs[pos] == runtime
                assert resolved.costs[pos] == (
                    runtime * fail_frac if will_fail else runtime
                )
                failed += will_fail
        if failure_prob == 0:
            assert failed == 0
        elif failure_prob >= 0.3:
            assert failed > 0
