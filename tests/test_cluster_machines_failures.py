"""Unit tests for the machine park, failure injector, and background load."""

import numpy as np
import pytest

from repro.cluster.background import (
    BackgroundError,
    BackgroundLoad,
    LoadEpisode,
    SpareSoaker,
)
from repro.cluster.failures import FailureInjector
from repro.cluster.machine import MachineError, MachinePark
from repro.cluster.tokens import TokenPool
from repro.simkit.events import Simulator
from repro.simkit.random import scalar_draws


class TestMachinePark:
    def test_capacity(self):
        park = MachinePark(10, 4)
        assert park.capacity == 40
        assert park.up_count == 10

    def test_fail_reduces_capacity(self):
        park = MachinePark(10, 4)
        assert park.fail(3)
        assert park.capacity == 36
        assert not park.is_up(3)

    def test_double_fail_is_noop(self):
        park = MachinePark(10, 4)
        park.fail(3)
        assert park.fail(3) is False

    def test_repair_restores(self):
        park = MachinePark(10, 4)
        park.fail(3)
        assert park.repair(3)
        assert park.capacity == 40

    def test_repair_up_machine_is_noop(self):
        assert MachinePark(2, 1).repair(0) is False

    def test_listeners_notified(self):
        park = MachinePark(4, 1)
        events = []
        park.listeners.append(lambda m, up: events.append((m, up)))
        park.fail(2)
        park.repair(2)
        assert events == [(2, False), (2, True)]

    def test_pick_up_machine_avoids_down(self):
        park = MachinePark(3, 1)
        park.fail(0)
        park.fail(1)
        below = scalar_draws(np.random.default_rng(0))[1]
        assert all(park.pick_up_machine(below) == 2 for _ in range(10))

    def test_pick_is_the_generators_integers(self):
        """A pick redraws ``below(num_machines)``, which is numpy's
        ``rng.integers(0, num_machines)`` draw for draw."""
        park = MachinePark(7, 1)
        park.fail(3)
        ours, numpys = np.random.default_rng(4), np.random.default_rng(4)
        below = scalar_draws(ours)[1]
        for _ in range(200):
            expected = int(numpys.integers(0, 7))
            while expected == 3:
                expected = int(numpys.integers(0, 7))
            assert park.pick_up_machine(below) == expected
        assert ours.random() == numpys.random()

    def test_pick_with_all_down_raises(self):
        park = MachinePark(1, 1)
        park.fail(0)
        with pytest.raises(MachineError):
            park.pick_up_machine(scalar_draws(np.random.default_rng(0))[1])

    def test_bad_id(self):
        with pytest.raises(MachineError):
            MachinePark(2, 1).fail(5)

    def test_bad_dimensions(self):
        with pytest.raises(MachineError):
            MachinePark(0, 4)


class TestFailureInjector:
    def test_scripted_failure_and_repair(self):
        sim = Simulator()
        park = MachinePark(5, 2)
        injector = FailureInjector(sim, park, np.random.default_rng(0))
        assert injector.fail_now(1, repair_seconds=50.0)
        assert park.capacity == 8
        sim.run(until=60.0)
        assert park.capacity == 10
        assert injector.failures_injected == 1

    def test_scripted_failure_on_down_machine(self):
        sim = Simulator()
        park = MachinePark(5, 2)
        injector = FailureInjector(sim, park, np.random.default_rng(0))
        injector.fail_now(1)
        assert injector.fail_now(1) is False

    def test_scripted_failure_emits_telemetry(self):
        """Regression: a scripted kill announces itself — trace event,
        dedicated metric, and the ``scripted_failures`` counter — so it
        is distinguishable from organic Poisson churn in any timeline."""
        from repro.telemetry import trace as telemetry_trace
        from repro.telemetry.metrics import REGISTRY

        sim = Simulator()
        park = MachinePark(5, 2)
        injector = FailureInjector(sim, park, np.random.default_rng(0))
        metric = REGISTRY.counter("repro_cluster_scripted_failures_total")
        before = metric.value
        with telemetry_trace.capture() as recorder:
            assert injector.fail_now(2, repair_seconds=40.0)
        events = [e for e in recorder.events()
                  if e.kind == "machine.scripted_kill"]
        assert len(events) == 1
        assert events[0].fields["machine"] == 2
        assert events[0].fields["repair_seconds"] == 40.0
        assert metric.value == before + 1
        assert injector.scripted_failures == 1
        assert injector.failures_injected == 1

    def test_fail_batch_counts_only_newly_downed(self):
        sim = Simulator()
        park = MachinePark(5, 2)
        injector = FailureInjector(sim, park, np.random.default_rng(0))
        injector.fail_now(0)
        assert injector.fail_batch([0, 1, 2], repair_seconds=30.0) == 2
        assert park.up_count == 2
        assert injector.scripted_failures == 3
        sim.run(until=1000.0)
        assert park.up_count == 5

    def test_poisson_failures_occur_and_repair(self):
        sim = Simulator()
        park = MachinePark(50, 2)
        injector = FailureInjector(
            sim, park, np.random.default_rng(1),
            machine_mtbf_seconds=50_000.0, repair_seconds=100.0,
        )
        sim.run(until=20_000.0)
        assert injector.failures_injected > 0
        # All repairs eventually complete.
        sim.run(until=30_000.0)
        assert park.up_count >= 49

    def test_invalid_params(self):
        sim = Simulator()
        park = MachinePark(2, 1)
        with pytest.raises(ValueError):
            FailureInjector(sim, park, np.random.default_rng(0),
                            machine_mtbf_seconds=0.0)
        with pytest.raises(ValueError):
            FailureInjector(sim, park, np.random.default_rng(0),
                            repair_seconds=0.0)

    @pytest.mark.parametrize("field", ["machine_mtbf_seconds", "repair_seconds"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0, 0.0])
    def test_seconds_must_be_positive_and_finite(self, field, value):
        """A NaN once failed only inside the simulator (``delay must be >=
        0, got nan``), and an infinite repair was scheduled at infinity."""
        with pytest.raises(
            ValueError,
            match=f"^FailureInjector {field} must be positive and finite, got",
        ):
            FailureInjector(Simulator(), MachinePark(2, 1),
                            np.random.default_rng(0), **{field: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0, 0.0])
    def test_scripted_repair_must_be_positive_and_finite(self, value):
        park = MachinePark(3, 1)
        injector = FailureInjector(Simulator(), park, np.random.default_rng(0))
        match = "^FailureInjector repair_seconds must be positive and finite, got"
        with pytest.raises(ValueError, match=match):
            injector.fail_now(1, repair_seconds=value)
        with pytest.raises(ValueError, match=match):
            injector.fail_batch([0, 1], repair_seconds=value)
        # Refused before any machine went down.
        assert park.up_count == 3
        assert injector.failures_injected == 0


class TestBackgroundLoad:
    def make(self, sim, pool, **kwargs):
        defaults = dict(
            guaranteed=50, mean_demand=60.0, min_demand=20, max_demand=100,
        )
        defaults.update(kwargs)
        return BackgroundLoad(
            sim, pool, np.random.default_rng(0), **defaults
        )

    def test_demand_stays_within_bounds(self):
        sim = Simulator()
        pool = TokenPool(200)
        load = self.make(sim, pool)
        seen = []
        sim.schedule_every(30.0, lambda: seen.append(load.current_demand))
        sim.run(until=3600.0)
        assert seen
        assert all(20 <= d <= 100 for d in seen)

    def test_demand_fluctuates(self):
        sim = Simulator()
        pool = TokenPool(200)
        load = self.make(sim, pool, volatility=0.3)
        seen = set()
        sim.schedule_every(30.0, lambda: seen.add(load.current_demand))
        sim.run(until=3600.0)
        assert len(seen) > 3

    def test_episode_multiplies_demand(self):
        sim = Simulator()
        pool = TokenPool(500)
        load = self.make(
            sim, pool, volatility=0.0, mean_reversion=0.0,
            max_demand=500,
            episodes=[LoadEpisode(100.0, 200.0, 2.0)],
        )
        sim.run(until=150.0)
        during = load.current_demand
        sim.run(until=250.0)
        after = load.current_demand
        assert during == pytest.approx(120, abs=1)
        assert after == pytest.approx(60, abs=1)

    def test_add_episode_mid_run(self):
        sim = Simulator()
        pool = TokenPool(500)
        load = self.make(sim, pool, volatility=0.0, mean_reversion=0.0,
                         max_demand=500)
        sim.run(until=10.0)
        load.add_episode(LoadEpisode(20.0, 30.0, 3.0))
        sim.run(until=25.0)
        assert load.current_demand == pytest.approx(180, abs=1)
        # An episode already active when added applies at once.
        load.add_episode(LoadEpisode(5.0, 100.0, 2.0))
        assert load.current_demand == pytest.approx(360, abs=1)
        sim.run(until=50.0)
        assert load.current_demand == pytest.approx(120, abs=1)

    def test_invalid_episode(self):
        with pytest.raises(BackgroundError):
            LoadEpisode(10.0, 5.0, 1.0)
        with pytest.raises(BackgroundError):
            LoadEpisode(0.0, 5.0, -1.0)

    @pytest.mark.parametrize("field", ["start", "end", "factor"])
    def test_nan_episode_field_refused(self, field):
        values = {"start": 0.0, "end": 5.0, "factor": 1.0, field: float("nan")}
        with pytest.raises(BackgroundError, match=f"episode {field} is NaN"):
            LoadEpisode(**values)

    def test_episode_may_never_end(self):
        episode = LoadEpisode(5.0, float("inf"), 2.0)
        assert episode.active_at(1e12) and not episode.active_at(4.0)

    def test_invalid_config(self):
        sim = Simulator()
        pool = TokenPool(100)
        with pytest.raises(BackgroundError):
            self.make(sim, pool, guaranteed=-1)
        with pytest.raises(BackgroundError):
            self.make(sim, pool, min_demand=200, max_demand=100)


class TestSpareSoaker:
    def test_soaks_leftover_capacity(self):
        pool = TokenPool(100)
        soaker = SpareSoaker(pool, weight=10.0)
        assert soaker.consumer.grant.total == 100

    def test_yields_to_guaranteed_consumers(self):
        from repro.cluster.tokens import Consumer

        pool = TokenPool(100)
        SpareSoaker(pool, weight=10.0)
        job = pool.register(Consumer("job", 60))
        pool.set_demand("job", 60)
        assert job.grant.total == 60
        assert pool.consumer("spare-soaker").grant.total == 40

    def test_invalid_weight(self):
        with pytest.raises(BackgroundError):
            SpareSoaker(TokenPool(10), weight=0.0)
