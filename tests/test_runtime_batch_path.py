"""The batch path (job manager + token pool) pinned run by run, and the job
manager's O(1) bookkeeping and the values the cluster and job manager keep
checked against the scans and formulas they replaced."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.chaos.spec import (
    ChaosSpec,
    EvictionStorm,
    ProfileDrift,
    RackFailure,
    TokenShock,
)
from repro.cluster import LoadEpisode
from repro.cluster.tokens import compute_grants
from repro.experiments import SMOKE, RunConfig, make_policy, run_experiment, trained_job
from repro.experiments import runner
from repro.runtime.speculation import SpeculationConfig

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


def draw_plan_by_profile(manager) -> dict:
    """What each stage's task start draws with, read off ``behavior``."""
    plan = {}
    for stage in manager.graph.stages:
        sp = manager.behavior.stage(stage.name)
        plan[stage.name] = (sp.runtime.sample, sp.init.sample, sp.failure_prob)
    return plan


class TestBookkeepingCounters:
    """After every dispatched event the job manager's counters equal the
    scans over ``_running`` they replaced, and the values it and the
    cluster keep (contention factor, draw plan) equal the formulas they
    replaced — through speculation, an eviction storm with a token-supply
    shock, rack failures, profile drift and a background surge."""

    @pytest.mark.parametrize("case", CASES, ids=case_id)
    def test_counters_equal_scans_after_every_event(self, case, monkeypatch):
        def stepping_run(manager, *, max_seconds):
            cluster = manager.cluster
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
                assert manager._draw_plan == draw_plan_by_profile(manager)
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
