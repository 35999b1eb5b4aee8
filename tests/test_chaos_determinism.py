"""Determinism of the chaos subsystem: a fixed seed + spec replays
bit-identically — same trace JSONL bytes, same summary, and the same
sweep digest regardless of how many worker processes run it — plus the
acceptance properties of the ``exp_chaos`` sweep itself.
"""

import dataclasses
import hashlib
import io

import pytest

from repro.chaos.spec import (
    ChaosSpec,
    ControlFaults,
    EvictionStorm,
    ProfileDrift,
    RackFailure,
    TokenShock,
)
from repro.experiments import SMOKE, RunConfig, make_policy, run_experiment, trained_job
from repro.experiments import exp_chaos
from repro.telemetry import export as telemetry_export
from repro.telemetry import trace


def _spec() -> ChaosSpec:
    return ChaosSpec(
        name="det",
        rack_failures=(RackFailure(at=120.0, count=4, repair_seconds=300.0),),
        eviction_storms=(
            EvictionStorm(start=200.0, end=700.0, demand_fraction=0.5),
        ),
        token_shocks=(
            TokenShock(start=250.0, end=900.0, guaranteed_fraction=0.3),
        ),
        profile_drifts=(ProfileDrift(at=150.0, factor=1.4),),
        control_faults=ControlFaults(
            drop_tick_prob=0.1,
            delay_tick_prob=0.1,
            delay_seconds=20.0,
            blackouts=((300.0, 1200.0),),
        ),
    )


@pytest.fixture(scope="module")
def trained():
    return trained_job("C", seed=0, scale=SMOKE)


def _run_once(trained):
    """One chaos run: its result and the trace events it emitted."""
    deadline = trained.short_deadline
    policy = make_policy("jockey", trained, deadline)
    with trace.capture() as recorder:
        result = run_experiment(
            trained,
            policy,
            RunConfig(deadline_seconds=deadline, seed=7, chaos=_spec()),
        )
    return result, recorder.events()


def _jsonl_bytes(events) -> bytes:
    buf = io.StringIO()
    telemetry_export.write_jsonl(events, buf)
    return buf.getvalue().encode("utf-8")


class TestReplayDeterminism:
    def test_trace_jsonl_byte_identical(self, trained):
        (_first, first), (_second, second) = _run_once(trained), _run_once(trained)
        a, b = _jsonl_bytes(first), _jsonl_bytes(second)
        assert hashlib.sha256(a).hexdigest() == hashlib.sha256(b).hexdigest()
        assert a == b
        # The run actually exercised the injectors — this is not a
        # vacuous comparison of two calm runs.
        assert any(e.kind.startswith("chaos.") for e in first)

    def test_chaos_summary_stable(self, trained):
        (first, _), (second, _) = _run_once(trained), _run_once(trained)
        assert first.chaos_summary == second.chaos_summary
        assert first.chaos_summary["machines_failed"] > 0

    def test_intensity_scales_are_distinct(self, trained):
        """Sanity: a different intensity is a different run (guards
        against the spec being silently ignored)."""
        deadline = trained.short_deadline
        results = {}
        for intensity in (0.0, 1.0):
            chaos = dataclasses.replace(_spec(), intensity=intensity)
            policy = make_policy("jockey", trained, deadline)
            results[intensity] = run_experiment(
                trained,
                policy,
                RunConfig(deadline_seconds=deadline, seed=7, chaos=chaos),
            )
        assert (
            results[0.0].chaos_summary["machines_failed"]
            < results[1.0].chaos_summary["machines_failed"]
        )


def _sweep_digest(jobs: str) -> dict:
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_JOBS", jobs)
        return exp_chaos.run(SMOKE, seed=0).digest


class TestSweepDigest:
    @pytest.fixture(scope="class")
    def digest(self):
        return _sweep_digest(jobs="1")

    def test_digest_identical_across_worker_counts(self, digest):
        assert _sweep_digest(jobs="2") == digest

    def test_attainment_monotone_and_fallback_wins(self, digest):
        """The ISSUE's acceptance shape: per-mode SLO attainment is
        monotone non-increasing in intensity, and at the highest
        intensity the degraded-mode fallback attains strictly higher
        utility than the no-fallback ablation."""
        by_mode = {}
        for agg in digest["aggregates"]:
            by_mode.setdefault(agg["mode"], []).append(
                (agg["intensity"], agg["attainment"], agg["mean_utility"])
            )
        for mode, cells in by_mode.items():
            cells.sort()
            attainments = [a for _i, a, _u in cells]
            assert attainments == sorted(attainments, reverse=True), mode
        top = max(digest["intensities"])
        utility = {
            agg["mode"]: agg["mean_utility"]
            for agg in digest["aggregates"]
            if agg["intensity"] == top
        }
        assert utility["fallback"] > utility["no-fallback"]

    def test_digest_records_runs_and_schedule(self, digest):
        assert digest["experiment"] == "chaos"
        assert digest["intensities"] == list(exp_chaos.INTENSITIES)
        assert digest["modes"] == list(exp_chaos.MODES)
        assert len(digest["runs"]) == sum(
            agg["runs"] for agg in digest["aggregates"]
        )
        # The sweep exercised the degraded path and the arbiter-retry
        # path at non-zero intensity.
        hot = [r for r in digest["runs"] if r["intensity"] > 0]
        assert any(r["degraded_ticks"] > 0 for r in hot)
        assert any(r["allocation_deficits"] > 0 for r in hot)
