"""Unit tests for the four evaluation policies."""

import numpy as np
import pytest

from repro.core.control import ControlConfig
from repro.core.cpa import CpaTable
from repro.core.policies import (
    AdaptiveModelPolicy,
    AmdahlPolicy,
    JockeyPolicy,
    MaxAllocationPolicy,
    NoAdaptationPolicy,
)
from repro.core.progress import totalwork
from repro.core.utility import deadline_utility
from repro.runtime.jobmanager import JobSnapshot
from tests.test_core_simulator import deterministic_profile


@pytest.fixture(scope="module")
def artifacts():
    profile = deterministic_profile()  # full runtime 15s at high allocation
    indicator = totalwork(profile)
    table = CpaTable.build(
        profile, indicator, np.random.default_rng(0),
        allocations=(1, 2, 4, 8), reps=3, num_bins=20, sample_dt=2.0,
    )
    return profile, indicator, table


def snapshot(fractions, elapsed, allocation=4):
    return JobSnapshot(fractions, elapsed, running=0, allocation=allocation)


def config():
    return ControlConfig(min_tokens=1, max_tokens=8, allocation_step=1,
                         slack=1.0, hysteresis=1.0, dead_zone_seconds=0.0)


class TestJockeyPolicy:
    def test_initial_allocation_meets_deadline(self, artifacts):
        profile, indicator, table = artifacts
        policy = JockeyPolicy(
            table, indicator, deadline_utility(30.0), config(), profile=profile
        )
        a0 = policy.initial_allocation()
        assert table.predicted_duration(a0, q=0.6) <= 30.0

    def test_adapts_on_tick(self, artifacts):
        profile, indicator, table = artifacts
        policy = JockeyPolicy(
            table, indicator, deadline_utility(80.0), config(), profile=profile
        )
        policy.initial_allocation()
        relaxed = policy.on_tick(snapshot({"map": 0.0, "reduce": 0.0}, 5.0))
        behind = policy.on_tick(snapshot({"map": 0.0, "reduce": 0.0}, 60.0))
        assert behind >= relaxed

    def test_respects_table_floor(self, artifacts):
        profile, indicator, table = artifacts
        policy = JockeyPolicy(
            table, indicator, deadline_utility(1000.0), config(), profile=profile
        )
        assert policy.initial_allocation() >= min(table.allocations)

    def test_change_utility(self, artifacts):
        profile, indicator, table = artifacts
        policy = JockeyPolicy(
            table, indicator, deadline_utility(80.0), config(), profile=profile
        )
        policy.initial_allocation()
        before = policy.on_tick(snapshot({"map": 0.0, "reduce": 0.0}, 0.0))
        policy.change_utility(deadline_utility(20.0))
        after = policy.on_tick(snapshot({"map": 0.0, "reduce": 0.0}, 0.0))
        assert after >= before

    def test_last_decision_exposed(self, artifacts):
        profile, indicator, table = artifacts
        policy = JockeyPolicy(
            table, indicator, deadline_utility(80.0), config(), profile=profile
        )
        assert policy.controller.audit == []
        policy.initial_allocation()
        allocation = policy.on_tick(snapshot({"map": 0.5, "reduce": 0.0}, 10.0))
        last = policy.controller.audit[-1]
        assert (last.phase, last.elapsed, last.allocation) == (
            "tick", 10.0, allocation
        )

    def test_is_adaptive(self, artifacts):
        profile, indicator, table = artifacts
        policy = JockeyPolicy(
            table, indicator, deadline_utility(80.0), config(), profile=profile
        )
        assert policy.adaptive
        assert policy.name == "jockey"


class TestNoAdaptationPolicy:
    def test_static_allocation(self, artifacts):
        profile, indicator, table = artifacts
        policy = NoAdaptationPolicy(
            table, indicator, deadline_utility(30.0), config(), profile=profile
        )
        first = policy.initial_allocation()
        assert policy.initial_allocation() == first
        assert policy.on_tick(snapshot({"map": 0.0, "reduce": 0.0}, 1e6)) is None

    def test_not_adaptive(self, artifacts):
        profile, indicator, table = artifacts
        policy = NoAdaptationPolicy(
            table, indicator, deadline_utility(30.0), config(), profile=profile
        )
        assert not policy.adaptive


class TestAmdahlPolicy:
    def test_uses_amdahl_model(self, artifacts):
        profile, _indicator, _table = artifacts
        policy = AmdahlPolicy(profile, deadline_utility(40.0), config())
        # Amdahl: S=15, P=70 -> at deadline 40 needs 70/25 = 2.8 -> 3.
        assert policy.initial_allocation() == 3

    def test_adapts(self, artifacts):
        profile, _indicator, _table = artifacts
        policy = AmdahlPolicy(profile, deadline_utility(40.0), config())
        policy.initial_allocation()
        behind = policy.on_tick(snapshot({"map": 0.0, "reduce": 0.0}, 30.0))
        assert behind == 8  # pegged to max: impossible to finish in time


class TestAdaptiveModelPolicy:
    def test_reused_policy_after_reset_decides_like_a_fresh_one(self, artifacts):
        profile, indicator, table = artifacts

        def fresh():
            return AdaptiveModelPolicy(
                table, indicator, deadline_utility(60.0), config(),
                profile=profile,
            )

        def run(policy, heaviness):
            out = [policy.initial_allocation()]
            for i, frac in enumerate((0.2, 0.5, 0.9)):
                fractions = {"map": frac, "reduce": 0.0}
                consumed = heaviness * profile.total_work_seconds() \
                    * indicator.progress(fractions)
                out.append(policy.on_tick(JobSnapshot(
                    fractions, 10.0 * (i + 1), running=0, allocation=4,
                    consumed_token_seconds=consumed,
                )))
            return out

        reused = fresh()
        run(reused, heaviness=3.0)
        assert reused.monitor.inflation > 1.5
        reused.reset_run_state()
        second = run(reused, heaviness=1.0)
        reference = fresh()
        assert second == run(reference, heaviness=1.0)
        assert reused.controller.audit == reference.controller.audit


class TestMaxAllocationPolicy:
    def test_constant(self):
        policy = MaxAllocationPolicy(100)
        assert policy.initial_allocation() == 100
        assert policy.on_tick(snapshot({}, 0.0)) is None
        assert not policy.adaptive

    def test_invalid(self):
        with pytest.raises(ValueError):
            MaxAllocationPolicy(0)


class TestBuildPolicy:
    """The one policy factory reproduces what each of the three it
    replaced decided.  ``golden/policy_factory_pins.json`` was recorded on
    the commit that still had ``cli._build_policy``, the old
    ``runner.make_policy`` and ``service.server._build_policy``: per kind,
    ``initial_allocation()`` and the first three ``on_tick`` decisions on
    fixed snapshots of smoke-scale job A (behind schedule, then catching
    up).  Its ``"service"`` rows were re-recorded when the service's slice
    became the top of every controller's grid, not only max-allocation's."""

    @pytest.fixture(scope="class")
    def trained(self):
        from repro.experiments.scenarios import SMOKE, trained_job

        return trained_job("A", scale=SMOKE)

    @staticmethod
    def decisions(policy, trained):
        deadline = trained.short_deadline
        out = [policy.initial_allocation()]
        for frac, at in ((0.02, 0.35), (0.15, 0.6), (0.8, 0.75)):
            out.append(policy.on_tick(JobSnapshot(
                {s: frac for s in trained.learned_profile.stage_names},
                at * deadline, running=10, allocation=20,
                consumed_token_seconds=20.0 * at * deadline,
            )))
        return out

    #: How each old factory parameterised the controller, whose
    #: ``max_tokens`` is the slice.
    OLD_FACTORIES = {
        # repro run / perf run / predict: paper defaults, 100-token slice.
        "cli": lambda width: ControlConfig(),
        # make_policy(kind, trained, deadline).
        "make_policy": lambda width: ControlConfig(),
        # The service: its config.control (here slack 1.5) and a slice of
        # min(capacity 40, widest stage).
        "service": lambda width: ControlConfig(slack=1.5, max_tokens=min(40, width)),
    }

    @pytest.mark.parametrize("factory", sorted(OLD_FACTORIES))
    def test_reproduces_the_old_factories(self, trained, factory):
        import json
        import pathlib

        from repro.core.policies import POLICY_KINDS, build_policy

        pins = json.loads(
            (pathlib.Path(__file__).parent / "golden"
             / "policy_factory_pins.json").read_text(encoding="utf-8")
        )[factory]
        assert sorted(pins) == sorted(POLICY_KINDS)
        width = max(s.num_tasks for s in trained.graph.stages)
        control = self.OLD_FACTORIES[factory](width)
        for kind in POLICY_KINDS:
            policy = build_policy(
                kind,
                table=trained.table,
                indicator=trained.indicator,
                profile=trained.learned_profile,
                utility=deadline_utility(trained.short_deadline),
                control=control,
            )
            assert policy.name == kind
            assert self.decisions(policy, trained) == pins[kind], kind

    def test_make_policy_is_the_trained_job_adapter(self, trained):
        from repro.core.policies import POLICY_KINDS
        from repro.experiments.runner import make_policy

        for kind in POLICY_KINDS:
            policy = make_policy(kind, trained, trained.short_deadline)
            assert policy.name == kind

    def test_unknown_kind_lists_the_kinds(self, artifacts):
        from repro.core.policies import POLICY_KINDS, PolicyError, build_policy

        profile, indicator, table = artifacts
        with pytest.raises(PolicyError) as excinfo:
            build_policy(
                "jokey", table=table, indicator=indicator, profile=profile,
                utility=deadline_utility(60.0), control=config(),
            )
        for kind in POLICY_KINDS:
            assert kind in str(excinfo.value)

    def test_table_and_profile_requirements(self, artifacts):
        from repro.core.policies import PolicyError, build_policy

        profile, indicator, _table = artifacts
        common = dict(utility=deadline_utility(60.0), control=config())
        for kind in ("jockey", "jockey-online-model", "jockey-no-adapt"):
            with pytest.raises(PolicyError, match="needs a C\\(p, a\\) table"):
                build_policy(kind, table=None, indicator=indicator,
                             profile=profile, **common)
        build_policy("jockey-no-sim", table=None, indicator=None,
                     profile=profile, **common)
        with pytest.raises(PolicyError, match="only max-allocation"):
            build_policy("jockey-no-sim", table=None, indicator=None,
                         profile=None, **common)
        policy = build_policy("max-allocation", table=None, indicator=None,
                              profile=None, **common)
        assert policy.initial_allocation() == 8


class TestRunArtifacts:
    def test_controller_policy_leaves_audit_slack_and_ledger(self, artifacts):
        from repro.core.policies import run_artifacts

        profile, indicator, table = artifacts
        policy = JockeyPolicy(table, indicator, deadline_utility(60.0),
                              config(), profile=profile)
        policy.initial_allocation()
        policy.on_tick(snapshot({"map": 0.5, "reduce": 0.0}, 5.0))
        records = run_artifacts(policy)
        assert records == policy.controller.audit and len(records) == 2
        # Each record carries the slack it was decided with ...
        assert [r.slack for r in records] == [config().slack] * 2
        # ... and the ledger is the audit: each carries its bands.
        assert all(r.bands and r.median is not None for r in records)

    def test_static_policy_leaves_nothing_but_the_default_slack(self):
        from repro.core.policies import run_artifacts

        # No controller, no decisions: nothing to read a slack off.
        assert run_artifacts(MaxAllocationPolicy(5)) == []


def slice_peak(records, timeline=()):
    """The largest allocation a run decided or held: every candidate, raw
    and applied allocation of each audit record, and each allocation in a
    run trace's ``allocation_timeline``."""
    return max(
        [a for r in records
         for a in (r.raw, r.allocation, *(c.allocation for c in r.candidates))]
        + [a for _at, a in timeline]
    )


class TestOneSlice:
    """``control.max_tokens`` is the job's slice for every kind: no
    candidate, decision or held allocation of a batch run exceeds it, even
    when the table's floor (10 at smoke scale) lies above it."""

    @pytest.mark.parametrize("top", [8, 16])
    def test_batch_run_stays_within_the_slice(self, top):
        from repro.core.policies import POLICY_KINDS
        from repro.experiments.runner import RunConfig, make_policy, run_experiment
        from repro.experiments.scenarios import SMOKE, trained_job

        trained = trained_job("A", scale=SMOKE)
        deadline = trained.short_deadline / 2  # tight: every kind wants more
        for kind in POLICY_KINDS:
            policy = make_policy(kind, trained, deadline,
                                 control=ControlConfig(max_tokens=top))
            result = run_experiment(
                trained, policy, RunConfig(deadline_seconds=deadline, seed=3)
            )
            peak = slice_peak(result.audit_records, result.trace.allocation_timeline)
            assert peak <= top, kind
            if kind == "max-allocation":
                assert peak == top
