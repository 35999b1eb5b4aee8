"""Property-based stress tests: whatever a chaos schedule throws at a run,
the substrate's core invariants hold.

Each example draws a random :class:`ChaosSpec` (rack losses, storms, token
shocks, drift, control faults, and a global intensity), runs a full
simulated job under it, and checks:

* token grants are never negative and never exceed pool capacity;
* guaranteed entitlements are never displaced by spare work — nobody
  receives spare tokens while any consumer's guaranteed demand is unmet;
* every started task terminates and every vertex completes exactly once;
* simulated time is monotone non-decreasing.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import ChaosEngine, ChaosError, ChaosSpec
from repro.chaos.spec import (
    ControlFaults,
    EvictionStorm,
    ProfileDrift,
    RackFailure,
    TokenShock,
    spec_from_dict,
    spec_to_dict,
)
from repro.cluster import Cluster, ClusterConfig
from repro.jobs.workloads import random_job
from repro.runtime.jobmanager import JobManager, run_to_completion
from repro.simkit.events import Simulator
from repro.simkit.random import RngRegistry


# ----------------------------------------------------------------------
# Spec strategies
# ----------------------------------------------------------------------


@st.composite
def rack_failures(draw):
    return RackFailure(
        at=draw(st.floats(0.0, 1200.0)),
        count=draw(st.integers(0, 8)),
        repair_seconds=draw(st.floats(60.0, 600.0)),
    )


@st.composite
def eviction_storms(draw):
    start = draw(st.floats(0.0, 1200.0))
    return EvictionStorm(
        start=start,
        end=start + draw(st.floats(0.0, 900.0)),
        demand_fraction=draw(st.floats(0.0, 1.0)),
    )


@st.composite
def token_shocks(draw):
    start = draw(st.floats(0.0, 1200.0))
    return TokenShock(
        start=start,
        end=start + draw(st.floats(0.0, 900.0)),
        guaranteed_fraction=draw(st.floats(0.0, 1.0)),
    )


@st.composite
def profile_drifts(draw):
    return ProfileDrift(
        at=draw(st.floats(0.0, 1200.0)),
        factor=draw(st.floats(0.5, 2.0)),
    )


@st.composite
def control_faults(draw):
    blackouts = []
    for _ in range(draw(st.integers(0, 2))):
        start = draw(st.floats(0.0, 1200.0))
        blackouts.append((start, start + draw(st.floats(0.0, 900.0))))
    return ControlFaults(
        drop_tick_prob=draw(st.floats(0.0, 0.5)),
        delay_tick_prob=draw(st.floats(0.0, 0.5)),
        delay_seconds=draw(st.floats(0.0, 60.0)),
        blackouts=tuple(blackouts),
    )


@st.composite
def chaos_specs(draw):
    return ChaosSpec(
        name="prop",
        intensity=draw(st.floats(0.0, 2.0)),
        rack_failures=tuple(draw(st.lists(rack_failures(), max_size=2))),
        eviction_storms=tuple(draw(st.lists(eviction_storms(), max_size=2))),
        token_shocks=tuple(draw(st.lists(token_shocks(), max_size=2))),
        profile_drifts=tuple(draw(st.lists(profile_drifts(), max_size=2))),
        control_faults=draw(control_faults()),
    )


# ----------------------------------------------------------------------
# Full-run invariants
# ----------------------------------------------------------------------


def _run_under_chaos(spec, seed):
    """One small job end-to-end under ``spec``, sampling pool state."""
    generated = random_job(f"chaos{seed}", seed=seed, num_vertices=40)
    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(), rng=RngRegistry(seed))
    manager = JobManager(
        cluster,
        generated.graph,
        generated.profile,
        initial_allocation=20,
        rng=RngRegistry(seed).stream("chaos-prop"),
        deadline=3600.0,
        allocation_retry=True,
    )
    engine = ChaosEngine(
        spec, sim=sim, cluster=cluster, manager=manager, seed=seed
    )
    engine.install()
    samples = []

    def sample():
        pool = cluster.pool
        samples.append((
            sim.now,
            pool.capacity,
            [
                (c.name, c.guaranteed, c.demand,
                 c.grant.total, c.grant.guaranteed_part)
                for c in pool._consumers.values()
            ],
        ))

    sim.schedule_every(30.0, sample)
    trace = run_to_completion(manager, max_seconds=6 * 3600.0)
    return generated, manager, trace, samples


class TestChaosRunInvariants:
    @given(spec=chaos_specs(), seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_full_run_invariants(self, spec, seed):
        generated, manager, trace, samples = _run_under_chaos(spec, seed)

        # The job finished; every vertex completed exactly once.
        assert manager.finished
        ok = [(r.stage, r.index) for r in trace.successful_records()]
        assert len(ok) == generated.graph.num_vertices
        assert len(set(ok)) == generated.graph.num_vertices

        # Every started task terminated inside the simulation.
        for record in trace.records:
            assert record.end_time >= record.start_time >= 0
            assert record.outcome in ("ok", "evicted", "failed")

        # Simulated time is monotone non-decreasing.
        times = [t for t, _cap, _grants in samples]
        assert all(b >= a for a, b in zip(times, times[1:]))

        # Token accounting: grants non-negative, capacity respected, and
        # spare tokens only flow once guaranteed demand is fully served.
        for _t, capacity, grants in samples:
            total_granted = 0
            base_unmet = False
            spare_granted = False
            for _name, guaranteed, demand, total, guaranteed_part in grants:
                assert total >= 0
                assert 0 <= guaranteed_part <= total
                assert guaranteed_part <= guaranteed
                total_granted += total
                if guaranteed_part < min(guaranteed, demand):
                    base_unmet = True
                if total > guaranteed_part:
                    spare_granted = True
            assert total_granted <= capacity
            # "Guaranteed work is never evicted for spare work": spare is
            # handed out only when every guarantee (up to demand) is met.
            assert not (base_unmet and spare_granted)

    @given(spec=chaos_specs())
    @settings(max_examples=50, deadline=None)
    def test_intensity_zero_is_noop(self, spec):
        calm = dataclasses.replace(spec, intensity=0.0).effective()
        assert all(
            rf.count == 0 and not rf.machines for rf in calm.rack_failures
        )
        assert all(s.demand_fraction == 0 for s in calm.eviction_storms)
        assert all(s.guaranteed_fraction == 0 for s in calm.token_shocks)
        assert all(d.factor == 1.0 for d in calm.profile_drifts)
        faults = calm.control_faults
        assert faults.drop_tick_prob == 0 and faults.delay_tick_prob == 0
        assert all(end <= start for start, end in faults.blackouts)

    @given(spec=chaos_specs())
    @settings(max_examples=50, deadline=None)
    def test_json_round_trip_exact(self, spec):
        assert spec_from_dict(spec_to_dict(spec)) == spec

    @given(spec=chaos_specs(), intensity=st.floats(0.0, 3.0))
    @settings(max_examples=50, deadline=None)
    def test_effective_preserves_field_ranges(self, spec, intensity):
        """Folding any intensity never produces an invalid spec (the
        dataclass validators run on construction, so this is mostly a
        does-not-raise property) and is idempotent at 1."""
        scaled = dataclasses.replace(spec, intensity=intensity)
        eff = scaled.effective()
        assert eff.intensity == 1.0
        assert eff.effective() == eff


class TestValidation:
    @pytest.mark.parametrize("build, named", [
        (lambda: RackFailure(at=math.nan), "RackFailure.at"),
        (lambda: RackFailure(at=10.0, repair_seconds=math.nan),
         "RackFailure.repair_seconds"),
        (lambda: ChaosSpec(intensity=math.nan), "ChaosSpec.intensity"),
        # Once folded in by effective(), inf made round() overflow.
        (lambda: ChaosSpec(intensity=math.inf,
                           rack_failures=(RackFailure(at=10.0),)).effective(),
         "ChaosSpec.intensity"),
        # A NaN end slipped past ``end < start``; the injector then dropped
        # the window it could not order and the run had no blackout.
        *((lambda w=window: ControlFaults(blackouts=((0.0, 50.0), w)),
           "ControlFaults.blackouts")
          for window in [(math.nan, 600.0), (100.0, math.nan), (100.0, math.inf),
                         (-1.0, 600.0), (600.0, 100.0)]),
    ], ids=["rack-at-nan", "rack-repair-nan", "intensity-nan", "intensity-inf-effective",
            "blackout-start-nan", "blackout-end-nan", "blackout-end-inf",
            "blackout-start-negative", "blackout-reversed"])
    def test_a_malformed_number_is_refused_at_construction(self, build, named):
        with pytest.raises(ChaosError, match=rf"^{named} must be "):
            build()

    def test_unknown_machine_named(self):
        spec = ChaosSpec(rack_failures=(RackFailure(at=0.0, machines=(999,)),))
        try:
            spec.validate(num_machines=100)
        except ChaosError as exc:
            assert "999" in str(exc)
        else:
            raise AssertionError("expected ChaosError")

    def test_unknown_stage_named(self):
        spec = ChaosSpec(
            profile_drifts=(ProfileDrift(at=0.0, stages=("nope",)),)
        )
        try:
            spec.validate(stage_names=["s00", "s01"])
        except ChaosError as exc:
            assert "nope" in str(exc)
        else:
            raise AssertionError("expected ChaosError")

    def test_valid_spec_passes(self):
        spec = ChaosSpec(
            rack_failures=(RackFailure(at=0.0, machines=(0, 1)),),
            profile_drifts=(ProfileDrift(at=0.0, stages=("s00",)),),
        )
        spec.validate(num_machines=2, stage_names=["s00"])
