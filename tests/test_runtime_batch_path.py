"""The batch path (job manager + token pool) pinned run by run, and the job
manager's O(1) bookkeeping checked against the scans it replaced."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.chaos.spec import ChaosSpec, EvictionStorm, RackFailure, TokenShock
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
CHAOS = {
    "storm": ChaosSpec(name="storm", eviction_storms=STORMS, token_shocks=SHOCKS),
    "storm+racks": ChaosSpec(
        name="storm+racks", eviction_storms=STORMS, token_shocks=SHOCKS,
        rack_failures=RACKS,
    ),
}

#: (job, policy, seed, deadline seconds or None for the job's short one,
#: speculation on, chaos schedule or None).  Between them the runs retry
#: failures, evict, supersede speculative losers, lose machines and have
#: allocation requests clamped.
CASES = [
    ("A", "jockey", 3, None, False, None),
    ("C", "jockey", 5, 500.0, False, None),
    ("C", "max-allocation", 5, None, False, None),
    ("C", "jockey", 7, None, True, None),
    ("A", "jockey-no-sim", 11, None, True, None),
    ("C", "jockey", 13, 500.0, False, "storm"),
    ("C", "jockey", 19, 600.0, True, "storm+racks"),
]


def case_id(case) -> str:
    job, kind, seed, deadline, speculate, chaos = case
    parts = [job, kind, f"seed{seed}"]
    if deadline is not None:
        parts.append(f"d{deadline:g}")
    if speculate:
        parts.append("spec")
    if chaos is not None:
        parts.append(chaos)
    return "-".join(parts)


def run_case(case):
    job, kind, seed, deadline, speculate, chaos = case
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
            chaos=CHAOS[chaos] if chaos is not None else None,
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
    counters; it passes unchanged on both sides."""

    PINS = json.loads(PINS_PATH.read_text())

    def test_pins_cover_the_cases(self):
        assert list(self.PINS) == [case_id(c) for c in CASES]

    @pytest.mark.parametrize("case", CASES, ids=case_id)
    def test_run_matches_pin(self, case):
        assert trace_digests(run_case(case)) == self.PINS[case_id(case)]


class TestBookkeepingCounters:
    """After every dispatched event the job manager's counters equal the
    scans over ``_running`` they replaced — through speculation, an eviction
    storm with a token-supply shock, and rack failures."""

    @pytest.mark.parametrize("case", CASES, ids=case_id)
    def test_counters_equal_scans_after_every_event(self, case, monkeypatch):
        def stepping_run(manager, *, max_seconds):
            while not manager.finished:
                assert manager.sim.step(), "event queue drained before the job"
                running = manager._running
                assert manager._guaranteed_count == sum(
                    not t.used_spare_token for t in running
                )
                assert manager._duplicates_in_flight == sum(
                    t.is_duplicate for t in running
                )
            return manager.trace

        monkeypatch.setattr(runner, "run_to_completion", stepping_run)
        # Stepping one event at a time is the same run.
        assert trace_digests(run_case(case)) == TestGoldenPins.PINS[case_id(case)]
