"""Unit tests for the Cluster facade: wiring, contention, capacity."""

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.simkit.events import Simulator
from repro.simkit.random import RngRegistry


def make(config=None, seed=0):
    sim = Simulator()
    return sim, Cluster(sim, config or ClusterConfig(), rng=RngRegistry(seed))


class TestWiring:
    def test_capacity_matches_machines(self):
        _sim, cluster = make(ClusterConfig(num_machines=10, slots_per_machine=4,
                                           background_guaranteed=0,
                                           spare_soaker_weight=0.0))
        assert cluster.pool.capacity == 40

    def test_background_registered_when_configured(self):
        _sim, cluster = make()
        assert cluster.background is not None
        assert cluster.pool.consumer("background").guaranteed == \
            cluster.config.background_guaranteed

    def test_no_background_when_zero(self):
        _sim, cluster = make(ClusterConfig(background_guaranteed=0))
        assert cluster.background is None

    def test_soaker_registered(self):
        _sim, cluster = make()
        assert cluster.spare_soaker is not None

    def test_guaranteed_headroom_reflects_background(self):
        _sim, cluster = make()
        assert cluster.guaranteed_headroom() == (
            cluster.config.total_slots - cluster.config.background_guaranteed
        )

    def test_machine_failure_updates_pool_capacity(self):
        _sim, cluster = make()
        before = cluster.pool.capacity
        cluster.machines.fail(0)
        assert cluster.pool.capacity == before - cluster.config.slots_per_machine

    def test_machine_down_listener_called(self):
        _sim, cluster = make()
        downs = []
        cluster.on_machine_down(downs.append)
        cluster.machines.fail(3)
        cluster.machines.repair(3)  # repairs do not notify down-listeners
        assert downs == [3]


class TestContention:
    def config(self, coeff=1.0, threshold=1.0):
        return ClusterConfig(
            background_mean_demand=None,  # demand == guarantee (300/400)
            contention_coeff=coeff,
            contention_threshold=threshold,
        )

    def test_no_contention_below_threshold(self):
        _sim, cluster = make(self.config())
        # demand ~300 of 400 -> load 0.75 < 1.0 threshold.
        assert cluster.contention_factor == 1.0

    def test_contention_grows_with_oversubscription(self):
        sim, cluster = make(ClusterConfig(
            background_mean_demand=500.0,
            background_min_demand=500,
            background_max_demand=500,
            background_volatility=0.0,
            contention_coeff=1.0,
        ))
        # load 500/400 = 1.25 -> factor 1.25.
        assert cluster.contention_factor == pytest.approx(1.25)

    def test_disabled_with_zero_coeff(self):
        _sim, cluster = make(ClusterConfig(
            background_mean_demand=500.0,
            background_min_demand=500,
            background_max_demand=500,
            contention_coeff=0.0,
        ))
        assert cluster.contention_factor == 1.0

    def test_no_background_means_no_contention(self):
        _sim, cluster = make(ClusterConfig(background_guaranteed=0))
        assert cluster.contention_factor == 1.0

    def test_contention_slows_tasks(self):
        """End-to-end: the same job takes contention-factor x longer."""
        from repro.jobs.dag import JobGraph, Stage
        from repro.jobs.profiles import JobProfile, StageProfile
        from repro.runtime.jobmanager import JobManager, run_to_completion
        from repro.simkit.distributions import Constant

        graph = JobGraph("j", [Stage("s", 4)], [])
        profile = JobProfile(
            graph, {"s": StageProfile("s", runtime=Constant(10.0))}
        )
        durations = {}
        for coeff in (0.0, 2.0):
            sim = Simulator()
            cluster = Cluster(
                sim,
                ClusterConfig(
                    background_guaranteed=300,
                    background_mean_demand=500.0,
                    background_min_demand=500,
                    background_max_demand=500,
                    background_volatility=0.0,
                    spare_soaker_weight=0.0,
                    machine_mtbf_seconds=None,
                    contention_coeff=coeff,
                ),
                rng=RngRegistry(0),
            )
            manager = JobManager(cluster, graph, profile, initial_allocation=4)
            durations[coeff] = run_to_completion(manager).duration
        # load 1.25 -> factor 1 + 2*0.25 = 1.5.
        assert durations[2.0] == pytest.approx(durations[0.0] * 1.5)
