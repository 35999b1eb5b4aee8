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
from repro.cluster import LoadEpisode
from repro.cluster.machine import MachineError, MachinePark
from repro.cluster.tokens import compute_grants
from repro.experiments import SMOKE, RunConfig, make_policy, run_experiment, trained_job
from repro.experiments import runner
from repro.jobs.profiles import StageProfile
from repro.runtime.jobmanager import attempt_draws
from repro.runtime.speculation import SpeculationConfig
from repro.simkit.distributions import (
    Constant,
    Empirical,
    LogNormal,
    Scaled,
    Truncated,
    Uniform,
    WithOutliers,
)
from repro.simkit.random import scalar_draws

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


stage_runtimes = st.one_of(
    st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 1.5),
              st.sampled_from([0.0, 0.05, 0.3]), st.floats(1.0, 8.0),
              st.floats(1.0, 500.0), st.floats(0.2, 5.0)).map(
        # The workload generator's chain.
        lambda a: Scaled(Truncated(WithOutliers(LogNormal(a[0], a[1]), a[2], a[3]), a[4]), a[5])
    ),
    st.lists(st.floats(0.0, 100.0), min_size=1, max_size=5).map(Empirical),
    st.floats(0.0, 100.0).map(Constant),
)
stage_inits = st.one_of(
    st.just(Constant(0.0)),
    st.floats(0.0, 10.0).map(lambda v: Scaled(Uniform(0.5 * v, 1.5 * v), 1.3)),
)


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
