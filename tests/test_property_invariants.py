"""Cross-cutting property-based tests (hypothesis) on core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.control import ControlConfig, JockeyController
from repro.core.simulator import simulate_job
from repro.core.utility import deadline_utility
from repro.jobs.workloads import random_job
from repro.simkit.random import RngRegistry


class TestOfflineSimulatorInvariants:
    @given(seed=st.integers(0, 30), allocation=st.sampled_from([1, 3, 8, 40]))
    @settings(max_examples=30, deadline=None)
    def test_every_generated_job_completes(self, seed, allocation):
        generated = random_job(f"prop{seed}", seed=seed, num_vertices=60)
        rng = np.random.default_rng(seed)
        run = simulate_job(generated.profile, allocation, rng)
        assert run.duration > 0
        assert run.total_cpu_seconds > 0

    @given(seed=st.integers(0, 20))
    @settings(max_examples=20, deadline=None)
    def test_duration_bounded_by_serial_and_critical_path(self, seed):
        """duration(a) is at least the critical path and at most the total
        serial work, for any allocation (deterministic profiles only would
        make this exact; stochastic ones still respect the serial bound in
        expectation terms, so we check against the realized CPU time)."""
        generated = random_job(f"bound{seed}", seed=seed, num_vertices=50)
        rng = np.random.default_rng(seed)
        run = simulate_job(generated.profile, 4, rng)
        assert run.duration <= run.total_cpu_seconds + 1e-6
        wide = simulate_job(generated.profile, 10_000, np.random.default_rng(seed))
        assert wide.duration <= run.duration * 1.5 + 1e-6

    @given(seed=st.integers(0, 15))
    @settings(max_examples=15, deadline=None)
    def test_progress_samples_monotone(self, seed):
        from repro.core.progress import totalwork

        generated = random_job(f"mono{seed}", seed=seed, num_vertices=50)
        indicator = totalwork(generated.profile)
        rng = np.random.default_rng(seed)
        run = simulate_job(
            generated.profile, 6, rng, indicator=indicator, sample_dt=5.0
        )
        values = [p for _t, p in run.progress_samples]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


class StubPredictor:
    name = "stub"

    def __init__(self, work):
        self.work = work

    def remaining_seconds(self, fractions, allocation):
        return (1.0 - fractions.get("s", 0.0)) * self.work / allocation

    def remaining_seconds_batch(self, fractions, allocations):
        return [self.remaining_seconds(fractions, a) for a in allocations]


class TestControllerInvariants:
    @given(
        work=st.floats(1_000.0, 1_000_000.0),
        deadline=st.floats(600.0, 7200.0),
        progress=st.floats(0.0, 1.0),
        elapsed=st.floats(0.0, 7200.0),
        hysteresis=st.floats(0.05, 1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_allocation_always_in_bounds(
        self, work, deadline, progress, elapsed, hysteresis
    ):
        ctl = JockeyController(
            StubPredictor(work),
            deadline_utility(deadline),
            ControlConfig(hysteresis=hysteresis, min_tokens=5, max_tokens=100),
            stage_names=("s",),
        )
        ctl.initial_allocation()
        decision = ctl.decide({"s": progress}, elapsed)
        assert 5 <= decision.allocation <= 100
        assert 5 <= decision.raw <= 100

    @given(
        work=st.floats(10_000.0, 500_000.0),
        hysteresis=st.floats(0.05, 0.95),
    )
    @settings(max_examples=50, deadline=None)
    def test_smoothed_between_previous_and_raw(self, work, hysteresis):
        ctl = JockeyController(
            StubPredictor(work),
            deadline_utility(3600.0),
            ControlConfig(hysteresis=hysteresis, min_tokens=5, max_tokens=100),
            stage_names=("s",),
        )
        previous = float(ctl.initial_allocation())
        decision = ctl.decide({"s": 0.0}, elapsed=1800.0)
        lo, hi = sorted((previous, float(decision.raw)))
        assert lo - 1e-9 <= decision.smoothed <= hi + 1e-9

    @given(elapsed=st.floats(0.0, 10_000.0))
    @settings(max_examples=50, deadline=None)
    def test_raw_monotone_in_lateness(self, elapsed):
        """The later the clock (at fixed progress), the more tokens raw
        requests — never fewer."""
        ctl = JockeyController(
            StubPredictor(100_000.0),
            deadline_utility(3600.0),
            ControlConfig(min_tokens=5, max_tokens=100),
            stage_names=("s",),
        )
        ctl.initial_allocation()
        earlier = ctl.decide({"s": 0.3}, elapsed).raw
        later = ctl.decide({"s": 0.3}, elapsed + 300.0).raw
        assert later >= earlier


class TestUtilityInvariants:
    @given(
        deadline=st.floats(60.0, 100_000.0),
        t1=st.floats(0.0, 200_000.0),
        dt=st.floats(0.0, 10_000.0),
    )
    @settings(max_examples=150)
    def test_deadline_utility_monotone_nonincreasing(self, deadline, t1, dt):
        u = deadline_utility(deadline)
        assert u.value(t1 + dt) <= u.value(t1) + 1e-9

    @given(deadline=st.floats(60.0, 100_000.0), shift=st.floats(0.0, 5_000.0))
    @settings(max_examples=100)
    def test_shift_never_increases_utility(self, deadline, shift):
        u = deadline_utility(deadline)
        shifted = u.shifted_left(shift)
        for t in (0.0, deadline, deadline * 1.1):
            assert shifted.value(t) <= u.value(t) + 1e-9


class TestEndToEndConservation:
    @given(seed=st.integers(0, 10))
    @settings(max_examples=10, deadline=None)
    def test_substrate_completes_every_vertex_once(self, seed):
        from repro.runtime.jobmanager import JobManager, run_to_completion
        from repro.simkit.events import Simulator
        from tests.test_runtime_jobmanager import quiet_cluster

        generated = random_job(f"e2e{seed}", seed=seed, num_vertices=40)
        sim = Simulator()
        cluster = quiet_cluster(sim, machines=10, slots=2)
        manager = JobManager(
            cluster, generated.graph, generated.profile,
            initial_allocation=8,
            rng=RngRegistry(seed).stream("e2e"),
        )
        trace = run_to_completion(manager)
        ok = [(r.stage, r.index) for r in trace.successful_records()]
        assert len(ok) == generated.graph.num_vertices
        assert len(set(ok)) == generated.graph.num_vertices
        # Conservation: total CPU equals the sum of successful runtimes.
        assert trace.total_cpu_seconds() == pytest.approx(
            sum(r.run_time for r in trace.successful_records())
        )
