"""The batch path (job manager + token pool) pinned run by run, and the job
manager's O(1) bookkeeping and the values the cluster and job manager keep
checked against the scans, formulas and draws they replaced."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.chaos.spec import (
    ChaosSpec,
    EvictionStorm,
    ProfileDrift,
    RackFailure,
    TokenShock,
)
from repro.cluster import Cluster, ClusterConfig, LoadEpisode
from repro.cluster.machine import MachineError, MachinePark
from repro.cluster.tokens import compute_grants
from repro.experiments import SMOKE, RunConfig, make_policy, run_experiment, trained_job
from repro.experiments import runner
from repro.jobs.dag import Edge, EdgeType, JobGraph, Stage
from repro.jobs.profiles import JobProfile, StageProfile
from repro.jobs.trace import OUTCOME_FAILED, OUTCOME_OK, OUTCOME_SUPERSEDED, OUTCOMES
from repro.runtime.jobmanager import JobManager, attempt_draws, run_to_completion
from repro.runtime.speculation import SpeculationConfig
from repro.runtime.task import RunningTask
from repro.simkit.distributions import (
    Constant,
    Empirical,
    LogNormal,
    Scaled,
    Truncated,
    Uniform,
    WithOutliers,
)
from repro.simkit.distributions import scale as scale_dist
from repro.simkit.events import Simulator
from repro.simkit.random import RngRegistry, scalar_draws
from tests.test_core_simulator import random_profiles

PINS_PATH = Path(__file__).parent / "golden" / "batch_path_pins.json"

SPECULATION = SpeculationConfig(
    check_period_seconds=10.0, slowdown_factor=1.5, min_task_seconds=5.0
)
STORMS = (
    EvictionStorm(start=30.0, end=150.0, demand_fraction=1.0),
    EvictionStorm(start=200.0, end=300.0, demand_fraction=0.7),
)
SHOCKS = (TokenShock(start=100.0, end=260.0, guaranteed_fraction=0.8),)
RACKS = (RackFailure(at=50.0, count=40), RackFailure(at=200.0, count=30))
#: Mid-run disturbances, as the ``RunConfig`` fields that schedule them.
#: ``drift`` reassigns the job's profile twice and ``surge`` moves the
#: background demand, so both change what a task start draws with.
DISTURBANCES = {
    "storm": {"chaos": ChaosSpec(
        name="storm", eviction_storms=STORMS, token_shocks=SHOCKS,
    )},
    "storm+racks": {"chaos": ChaosSpec(
        name="storm+racks", eviction_storms=STORMS, token_shocks=SHOCKS,
        rack_failures=RACKS,
    )},
    "drift": {"chaos": ChaosSpec(name="drift", profile_drifts=(
        ProfileDrift(at=60.0, factor=1.5),
        ProfileDrift(at=180.0, factor=0.8),
    ))},
    "surge": {"episodes": (
        LoadEpisode(40.0, 160.0, 1.3),
        LoadEpisode(120.0, 300.0, 0.6),
    )},
}

#: (job, policy, seed, deadline seconds or None for the job's short one,
#: speculation on, disturbance or None).  Between them the runs retry
#: failures, evict, supersede speculative losers, lose machines, have
#: allocation requests clamped, drift off their profile and run through a
#: background surge.
CASES = [
    ("A", "jockey", 3, None, False, None),
    ("C", "jockey", 5, 500.0, False, None),
    ("C", "max-allocation", 5, None, False, None),
    ("C", "jockey", 7, None, True, None),
    ("A", "jockey-no-sim", 11, None, True, None),
    ("C", "jockey", 13, 500.0, False, "storm"),
    ("C", "jockey", 19, 600.0, True, "storm+racks"),
    ("C", "jockey", 23, None, False, "drift"),
    ("C", "jockey", 31, None, False, "surge"),
]


def case_id(case) -> str:
    job, kind, seed, deadline, speculate, disturbance = case
    parts = [job, kind, f"seed{seed}"]
    if deadline is not None:
        parts.append(f"d{deadline:g}")
    if speculate:
        parts.append("spec")
    if disturbance is not None:
        parts.append(disturbance)
    return "-".join(parts)


def run_case(case):
    job, kind, seed, deadline, speculate, disturbance = case
    trained = trained_job(job, seed=0, scale=SMOKE)
    if deadline is None:
        deadline = trained.short_deadline
    return run_experiment(
        trained,
        make_policy(kind, trained, deadline),
        RunConfig(
            deadline_seconds=deadline,
            seed=seed,
            speculation=SPECULATION if speculate else None,
            **DISTURBANCES.get(disturbance, {}),
        ),
    ).trace


def _sha256(rows) -> str:
    # json writes floats with repr, so equal digests mean equal bits.
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def trace_digests(trace) -> dict:
    return {
        "records": _sha256([tuple(r) for r in trace.records]),
        "allocation_timeline": _sha256(trace.allocation_timeline),
        "running_timeline": _sha256(trace.running_timeline),
    }


class TestGoldenPins:
    """``golden/batch_path_pins.json`` was captured on the commit before the
    token pool became incremental and the job manager's scans became
    counters; the ``drift`` and ``surge`` pins on the commit before the
    contention factor and the draw plan were kept.  Each passes unchanged
    on both sides of its change."""

    PINS = json.loads(PINS_PATH.read_text())

    def test_pins_cover_the_cases(self):
        assert list(self.PINS) == [case_id(c) for c in CASES]

    @pytest.mark.parametrize("case", CASES, ids=case_id)
    def test_run_matches_pin(self, case):
        assert trace_digests(run_case(case)) == self.PINS[case_id(case)]


def contention_by_formula(cluster) -> float:
    """The contention factor from the current background demand and pool
    capacity, as the cluster computed it on every read before it kept it."""
    config = cluster.config
    if cluster.background is None or config.contention_coeff <= 0:
        return 1.0
    load = cluster.background.current_demand / max(cluster.pool.capacity, 1)
    excess = max(0.0, load - config.contention_threshold)
    return 1.0 + config.contention_coeff * excess


# ----------------------------------------------------------------------
# An attempt's draws as the job manager made them before its stage
# closures, kept verbatim: the plan the behavior setter built, the lines
# _start_task and _start_wave each spelled out, and the machine pick.
# ----------------------------------------------------------------------


def replaced_draw_plan(graph, profile) -> dict:
    plan = {}
    for stage in graph.stages:
        sp = profile.stage(stage.name)
        plan[stage.name] = (
            sp.runtime.sample, sp.init.sample, sp.failure_prob
        )
    return plan


def replaced_pick_up_machine(park, rng) -> int:
    """Uniformly choose an up machine for task placement."""
    if len(park._down) == park.num_machines:
        raise MachineError("no machines up")
    while True:
        m = int(rng.integers(0, park.num_machines))
        if m not in park._down:
            return m


def replaced_attempt(plan, stage_name, rng, contention, park):
    """``(runtime, will_fail, machine)`` of one start."""
    sample_runtime, sample_init, failure_prob = plan[stage_name]
    runtime = sample_runtime(rng) + sample_init(rng)
    runtime *= contention
    will_fail = failure_prob > 0 and rng.random() < failure_prob
    if will_fail:
        runtime *= 0.05 + (0.95 - 0.05) * rng.random()
    machine = replaced_pick_up_machine(park, rng)
    return runtime, will_fail, machine


def attempt(draw, contention, park, below):
    """The same start through a stage closure, as ``_start_task`` does."""
    runtime, done = draw()
    runtime *= contention
    will_fail = done is not None
    if will_fail:
        runtime *= done
    return runtime, will_fail, park.pick_up_machine(below)


def assert_draws_are_the_profiles(manager, attempts=20) -> None:
    """Each stage's closure makes, on the manager's own stream, the starts
    the replaced plan read off ``behavior`` makes; the stream is put back."""
    rng = manager._rng
    saved = rng.bit_generator.state
    plan = replaced_draw_plan(manager.graph, manager.behavior)
    contention = manager.cluster.contention_factor
    park = manager.cluster.machines
    for stage_name, draw in manager._attempt_draws.items():
        ours = [attempt(draw, contention, park, manager._below) for _ in range(attempts)]
        rng.bit_generator.state = saved
        theirs = [
            replaced_attempt(plan, stage_name, rng, contention, park)
            for _ in range(attempts)
        ]
        rng.bit_generator.state = saved
        assert ours == theirs
    assert list(manager._attempt_draws) == list(plan)


class TestBookkeepingCounters:
    """After every dispatched event the job manager's counters equal the
    scans over ``_running`` they replaced, and the values it and the
    cluster keep (contention factor, stage closures) equal the formulas and
    draws they replaced — through speculation, an eviction storm with a
    token-supply shock, rack failures, profile drift and a background
    surge.  The closures are rebuilt exactly when ``behavior`` is
    reassigned, and are then checked against the replaced draw lines."""

    @pytest.mark.parametrize("case", CASES, ids=case_id)
    def test_counters_equal_scans_after_every_event(self, case, monkeypatch):
        def stepping_run(manager, *, max_seconds):
            cluster = manager.cluster
            profile, draws = None, None
            while not manager.finished:
                assert manager.sim.step(), "event queue drained before the job"
                running = manager._running
                assert manager._guaranteed_count == sum(
                    not t.used_spare_token for t in running
                )
                assert manager._duplicates_in_flight == sum(
                    t.is_duplicate for t in running
                )
                assert cluster.contention_factor == contention_by_formula(cluster)
                if manager.behavior is profile:
                    assert manager._attempt_draws is draws
                else:
                    assert manager._attempt_draws is not draws
                    assert_draws_are_the_profiles(manager)
                    profile, draws = manager.behavior, manager._attempt_draws
            return manager.trace

        monkeypatch.setattr(runner, "run_to_completion", stepping_run)
        # Stepping one event at a time is the same run.
        assert trace_digests(run_case(case)) == TestGoldenPins.PINS[case_id(case)]


class TestReadsMoveNothing:
    """Every grant read every 30 s of virtual time, as
    ``test_chaos_invariants``'s sampler reads them: a read of a grant the
    pool left unsettled runs a pass that settles it, and the run's records
    and timelines are the unread run's."""

    @pytest.mark.parametrize("case", [CASES[0], CASES[6]], ids=case_id)
    def test_a_read_run_is_the_unread_run(self, case, monkeypatch):
        run_to_completion = runner.run_to_completion
        unsettled_reads = []

        def reading_run(manager, *, max_seconds):
            pool = manager.cluster.pool

            def read():
                consumers = list(pool._consumers.values())
                unsettled_reads.append(any(c._unsettled for c in consumers))
                grants = [c.grant for c in consumers]
                assert grants == compute_grants(pool.capacity, consumers)

            manager.sim.schedule_every(30.0, read)
            return run_to_completion(manager, max_seconds=max_seconds)

        monkeypatch.setattr(runner, "run_to_completion", reading_run)
        assert trace_digests(run_case(case)) == TestGoldenPins.PINS[case_id(case)]
        assert any(unsettled_reads)


#: The runtime shapes stages are built with: the workload generator's
#: chain, the same chain at ``outlier_prob`` 0 and without its outlier
#: wrapper (the generator's shape then), a sample and a constant.
base_runtimes = st.one_of(
    st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 1.5),
              st.sampled_from([0.0, 0.05, 0.3]), st.floats(1.0, 8.0),
              st.floats(1.0, 500.0)).map(
        lambda a: Truncated(WithOutliers(LogNormal(a[0], a[1]), a[2], a[3]), a[4])
    ),
    st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 1.5), st.floats(1.0, 500.0)).map(
        lambda a: Truncated(LogNormal(a[0], a[1]), a[2])
    ),
    st.lists(st.floats(0.0, 100.0), min_size=1, max_size=5).map(Empirical),
    st.floats(0.0, 100.0).map(Constant),
)
base_inits = st.one_of(
    st.just(Constant(0.0)),
    st.floats(0.0, 10.0).map(Constant),
    st.floats(0.0, 10.0).map(lambda v: Uniform(0.5 * v, 1.5 * v)),
)


def as_with_runtime_scale(bases):
    """Each base bare, or wrapped as ``JobProfile.with_runtime_scale``
    wraps it (``scale`` folds a repeated scale into one ``Scaled``)."""
    return st.one_of(
        bases,
        st.tuples(bases, st.floats(0.2, 5.0), st.floats(0.5, 2.0)).map(
            lambda a: scale_dist(scale_dist(a[0], a[1]), a[2])
        ),
    )


stage_runtimes = as_with_runtime_scale(base_runtimes)
stage_inits = as_with_runtime_scale(base_inits)


class TestAttemptDrawsAreTheReplacedLines:
    """A stage closure, with the caller's contention and pick, makes the
    starts the replaced lines make on a twin stream, and leaves the stream
    where they leave it."""

    @given(
        runtime=stage_runtimes,
        init=stage_inits,
        failure_prob=st.sampled_from([0.0, 0.01, 0.2, 0.9]),
        contention=st.floats(1.0, 3.0),
        machines=st.integers(1, 300),
        down=st.lists(st.integers(0, 299), max_size=20),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equal_starts(self, runtime, init, failure_prob, contention,
                          machines, down, seed):
        stage = StageProfile("s", runtime, init=init, failure_prob=failure_prob)
        park = MachinePark(machines, 1)
        for m in down:
            if m < machines - 1:
                park.fail(m)
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        below = scalar_draws(ours)[1]
        draw = attempt_draws(stage, ours)
        plan = {"s": (runtime.sample, init.sample, failure_prob)}
        for _ in range(40):
            assert attempt(draw, contention, park, below) == replaced_attempt(
                plan, "s", theirs, contention, park
            )
        assert ours.random() == theirs.random()
        assert ours.integers(0, 2**32) == theirs.integers(0, 2**32)

    def test_every_machine_down_is_refused_before_below_draws(self):
        """With no machine up a start makes its attempt draws and then
        refuses, leaving the stream where those draws left it: the park's
        refusal still comes before any ``below`` draw, on both start paths."""
        runtime = Scaled(Truncated(WithOutliers(LogNormal(1.0, 0.5), 0.3, 4.0), 40.0), 1.2)
        init = Scaled(Uniform(0.5, 1.5), 1.2)
        graph = JobGraph("down", [Stage("s", 4)], [])
        profile = JobProfile(
            graph, {"s": StageProfile("s", runtime, init=init, failure_prob=0.5)}
        )
        config = ClusterConfig(
            num_machines=3, slots_per_machine=2, background_guaranteed=0,
            spare_soaker_weight=0.0, machine_mtbf_seconds=None, contention_coeff=0.0,
        )
        manager = JobManager(
            Cluster(Simulator(), config, rng=RngRegistry(0)), graph, profile,
            initial_allocation=2,
        )
        for m in range(config.num_machines):
            manager.cluster.machines.fail(m)
        assert not manager._running
        rng = manager._rng
        for start in (
            lambda: manager._start_task(("s", 0), manager._grant, manager.sim.now),
            lambda: manager._start_wave([("s", 0), ("s", 1)], manager._grant),
        ):
            twin = np.random.default_rng()
            twin.bit_generator.state = rng.bit_generator.state
            attempt_draws(profile.stage("s"), twin)()
            with pytest.raises(MachineError, match="no machines up"):
                start()
            assert rng.bit_generator.state == twin.bit_generator.state


# ----------------------------------------------------------------------
# A completion as the job manager settled it before it used the tracker's
# counters and wrote an ok finish's bookkeeping itself, kept verbatim: every
# completion went through complete_id, and an ok attempt through _record,
# trace.mark_running and _update_demand.
# ----------------------------------------------------------------------


class ReplacedCompletions(JobManager):
    @property
    def _total_tasks(self) -> int:
        # The count the replaced _finish compared with; JobManager no
        # longer keeps it.
        return self.graph.num_vertices

    def _finish(self, task: RunningTask) -> None:
        # Our finish event just fired, so the handle is back on the
        # simulator's free list — drop the reference before anything here
        # can recycle it into a different event.
        task.finish_handle = None
        now = self.sim.now
        running = self._running
        # Inlined _accrue_busy_time.
        if now > self._busy_marker:
            self._busy_token_seconds += len(running) * (now - self._busy_marker)
            self._busy_marker = now
        if self._duplicates_in_flight:
            siblings = self._release(task)
        else:
            # No speculative race in flight: no sibling scan to do.
            siblings = ()
            running.remove(task)
            if not task.used_spare_token:
                self._guaranteed_count -= 1
        if task.will_fail:
            self._record(task, OUTCOME_FAILED, now)
            # A surviving speculative sibling keeps the task alive; only
            # retry when this was the last attempt in flight.
            if not siblings:
                self._retry(task)
        else:
            self._record(task, OUTCOME_OK, now)
            # The losing attempts of a speculative race are cancelled.
            for loser in siblings:
                if loser.finish_handle is not None:
                    loser.finish_handle.cancel()
                    loser.finish_handle = None
                self._release(loser)
                self._record(loser, OUTCOME_SUPERSEDED, now)
            if task.is_duplicate:
                self.duplicates_won += 1
            if self._speculation is not None:
                # Only the straggler scan reads these.
                self._stage_durations.setdefault(task.task_id[0], []).append(
                    now - task.start_time
                )
            self._completed_tasks += 1
            stage, index = task.task_id
            names = self._task_names
            for ready in self._tracker.complete_id(self._task_offsets[stage] + index):
                self._enqueue(names[ready], now)
            if (
                self._completed_tasks >= self._total_tasks
                and self._tracker.all_complete()
            ):
                self._complete_job()
                return
        self.trace.mark_running(now, len(running))
        self._update_demand()
        self._start_ready_tasks(now)


#: A small busy cluster: background demand swings past its guarantee (spare
#: grants shrink: evictions) and machines fail and come back within a run.
LOSSY_CLUSTER = ClusterConfig(
    num_machines=6, slots_per_machine=2, background_guaranteed=6,
    background_mean_demand=8.0, background_min_demand=2, background_max_demand=12,
    background_volatility=0.8, background_resample_seconds=5.0,
    machine_mtbf_seconds=150.0, repair_seconds=20.0, spare_soaker_weight=1.0,
)
#: Eager speculation, so the small stages race duplicates.
EAGER_SPECULATION = SpeculationConfig(
    check_period_seconds=2.0, slowdown_factor=1.2, min_task_seconds=0.5,
    min_observations=1, max_duplicate_fraction=0.5,
)


def lossy_run(manager_class, profile, seed, allocation, speculate):
    """``(manager, trace, ids of the machines that went down, in order)``."""
    sim = Simulator()
    cluster = Cluster(sim, LOSSY_CLUSTER, rng=RngRegistry(seed))
    lost = []
    cluster.machines.listeners.append(lambda m, up: up or lost.append(m))
    manager = manager_class(
        cluster, profile.graph, profile, initial_allocation=allocation,
        speculation=EAGER_SPECULATION if speculate else None,
    )
    return manager, run_to_completion(manager), lost


class TestCompletionsAreTheReplacedLines:
    """The job manager, settling a completion that is not its stage's last
    through the tracker's counters and an ok finish's bookkeeping itself,
    records the run the replaced completion lines record: every record,
    the running and allocation timelines and the job's end, on random
    graphs of pointwise and shuffle edges with failing stages, evictions,
    speculative races and machine loss."""

    @given(
        profile=random_profiles(),
        seed=st.integers(0, 2**32 - 1),
        allocation=st.sampled_from([1, 3, 8]),
        speculate=st.booleans(),
    )
    def test_equal_traces(self, profile, seed, allocation, speculate):
        new, ours, new_lost = lossy_run(JobManager, profile, seed, allocation, speculate)
        old, theirs, old_lost = lossy_run(
            ReplacedCompletions, profile, seed, allocation, speculate
        )
        assert new_lost == old_lost
        assert ours.records == theirs.records
        assert ours.running_timeline == theirs.running_timeline
        assert ours.allocation_timeline == theirs.allocation_timeline
        assert ours.end_time == theirs.end_time
        assert new._busy_token_seconds == old._busy_token_seconds
        assert (new.duplicates_launched, new.duplicates_won) == (
            old.duplicates_launched, old.duplicates_won
        )

    def test_the_runs_reach_every_outcome_and_lose_machines(self):
        """The differential's cluster and speculation do what its strategy
        relies on: over a few runs of one noisy job, attempts fail, are
        evicted and are superseded, and machines go down."""
        graph = JobGraph(
            "mixed",
            [Stage("a", 7), Stage("b", 7), Stage("c", 3)],
            [Edge("a", "b", EdgeType.ONE_TO_ONE), Edge("b", "c", EdgeType.ALL_TO_ALL)],
        )
        profile = JobProfile(graph, {
            s.name: StageProfile(s.name, LogNormal(1.5, 0.6), init=Uniform(0.5, 1.5),
                                 failure_prob=0.05)
            for s in graph.stages
        })
        outcomes, lost = set(), []
        for seed in range(6):
            _, trace, run_lost = lossy_run(JobManager, profile, seed, 3, True)
            outcomes.update(r.outcome for r in trace.records)
            lost += run_lost
        assert outcomes == set(OUTCOMES)
        assert lost
