"""Unit and integration tests for the job manager on the cluster substrate."""

import pytest

from repro.cluster import Cluster, ClusterConfig, Consumer
from repro.jobs.dag import Edge, EdgeType, JobGraph, Stage
from repro.jobs.profiles import JobProfile, StageProfile
from repro.runtime.jobmanager import JobManager, JobManagerError, run_to_completion
from repro.runtime.speculation import SpeculationConfig
from repro.runtime.task import RunningTask
from repro.simkit.distributions import Constant, LogNormal, Uniform, WithOutliers
from repro.simkit.events import Simulator
from repro.simkit.random import RngRegistry


def quiet_cluster(sim, *, machines=10, slots=4, seed=0):
    """A cluster with no background load, no soaker, no failures —
    deterministic grants equal to the job's guarantee."""
    config = ClusterConfig(
        num_machines=machines,
        slots_per_machine=slots,
        background_guaranteed=0,
        spare_soaker_weight=0.0,
        machine_mtbf_seconds=None,
        contention_coeff=0.0,
    )
    return Cluster(sim, config, rng=RngRegistry(seed))


def two_stage_job(num_maps=6, num_reduces=2, map_time=10.0, reduce_time=5.0,
                  failure_prob=0.0):
    graph = JobGraph(
        "tiny",
        [Stage("map", num_maps), Stage("reduce", num_reduces)],
        [Edge("map", "reduce", EdgeType.ALL_TO_ALL)],
    )
    profile = JobProfile(
        graph,
        {
            "map": StageProfile("map", runtime=Constant(map_time),
                                failure_prob=failure_prob),
            "reduce": StageProfile("reduce", runtime=Constant(reduce_time)),
        },
    )
    return graph, profile


class TestBasicExecution:
    def test_runs_to_completion(self):
        sim = Simulator()
        cluster = quiet_cluster(sim)
        graph, profile = two_stage_job()
        manager = JobManager(cluster, graph, profile, initial_allocation=10)
        trace = run_to_completion(manager)
        assert manager.finished
        assert trace.finished
        ok = trace.successful_records()
        assert len(ok) == graph.num_vertices

    def test_duration_with_full_parallelism(self):
        """6 maps at 10s in parallel, then 2 reduces at 5s: 15s total."""
        sim = Simulator()
        cluster = quiet_cluster(sim)
        graph, profile = two_stage_job()
        manager = JobManager(cluster, graph, profile, initial_allocation=10)
        trace = run_to_completion(manager)
        assert trace.duration == pytest.approx(15.0)

    def test_duration_serialized_by_capacity(self):
        """With a 1-slot cluster the job is fully serial: 6x10 + 2x5 = 70s.
        (Work conservation means a 1-token *guarantee* on an idle cluster
        would still run wide on spare tokens.)"""
        sim = Simulator()
        cluster = quiet_cluster(sim, machines=1, slots=1)
        graph, profile = two_stage_job()
        manager = JobManager(cluster, graph, profile, initial_allocation=1)
        trace = run_to_completion(manager)
        assert trace.duration == pytest.approx(70.0)

    def test_work_conservation_uses_spare(self):
        """A 1-token guarantee on an otherwise idle cluster still runs at
        full parallelism via spare tokens (§2.1)."""
        sim = Simulator()
        cluster = quiet_cluster(sim)
        graph, profile = two_stage_job()
        manager = JobManager(cluster, graph, profile, initial_allocation=1)
        trace = run_to_completion(manager)
        assert trace.duration == pytest.approx(15.0)
        assert trace.spare_fraction() > 0.5

    def test_barrier_semantics(self):
        """No reduce may start before every map ends."""
        sim = Simulator()
        cluster = quiet_cluster(sim)
        graph, profile = two_stage_job()
        manager = JobManager(cluster, graph, profile, initial_allocation=3)
        trace = run_to_completion(manager)
        last_map_end = max(
            r.end_time for r in trace.records if r.stage == "map"
        )
        first_reduce_start = min(
            r.start_time for r in trace.records if r.stage == "reduce"
        )
        assert first_reduce_start >= last_map_end

    def test_each_task_completes_exactly_once(self):
        sim = Simulator()
        cluster = quiet_cluster(sim)
        graph, profile = two_stage_job()
        manager = JobManager(cluster, graph, profile, initial_allocation=4)
        trace = run_to_completion(manager)
        ok = [(r.stage, r.index) for r in trace.successful_records()]
        assert len(ok) == len(set(ok)) == graph.num_vertices

    def test_cpu_seconds_match_task_times(self):
        sim = Simulator()
        cluster = quiet_cluster(sim)
        graph, profile = two_stage_job()
        manager = JobManager(cluster, graph, profile, initial_allocation=10)
        trace = run_to_completion(manager)
        assert trace.total_cpu_seconds() == pytest.approx(6 * 10 + 2 * 5)

    def test_completion_callback(self):
        sim = Simulator()
        cluster = quiet_cluster(sim)
        graph, profile = two_stage_job()
        done = []
        manager = JobManager(
            cluster, graph, profile, initial_allocation=10,
            on_complete=lambda m: done.append(m.graph.name),
        )
        run_to_completion(manager)
        assert done == ["tiny"]

    def test_guarantee_released_after_completion(self):
        sim = Simulator()
        cluster = quiet_cluster(sim)
        graph, profile = two_stage_job()
        manager = JobManager(cluster, graph, profile, initial_allocation=10)
        run_to_completion(manager)
        assert cluster.pool.consumer(manager.name).guaranteed == 0


class TestAllocationControl:
    def test_set_allocation_recorded_in_trace(self):
        sim = Simulator()
        cluster = quiet_cluster(sim)
        graph, profile = two_stage_job()
        manager = JobManager(cluster, graph, profile, initial_allocation=2)
        sim.schedule(5.0, lambda: manager.set_allocation(6))
        trace = run_to_completion(manager)
        allocs = [a for _t, a in trace.allocation_timeline]
        assert allocs[0] == 2
        assert 6 in allocs

    def test_set_allocation_clamped_by_headroom(self):
        sim = Simulator()
        cluster = quiet_cluster(sim, machines=5, slots=2)  # capacity 10
        cluster.pool.register(Consumer("other", 6))
        graph, profile = two_stage_job()
        manager = JobManager(cluster, graph, profile, initial_allocation=2)
        assert manager.set_allocation(100) == 4

    def test_negative_allocation_rejected(self):
        sim = Simulator()
        cluster = quiet_cluster(sim)
        graph, profile = two_stage_job()
        manager = JobManager(cluster, graph, profile)
        with pytest.raises(JobManagerError):
            manager.set_allocation(-1)

    def test_raising_allocation_speeds_job(self):
        """When other pending work soaks the spare tokens, the guarantee is
        the job's real throughput knob."""
        durations = {}
        for alloc in (1, 8):
            sim = Simulator()
            cluster = quiet_cluster(sim)
            soak = cluster.pool.register(Consumer("soak", 0, weight=10_000.0))
            cluster.pool.set_demand("soak", 1000)
            graph, profile = two_stage_job()
            manager = JobManager(cluster, graph, profile, initial_allocation=alloc)
            durations[alloc] = run_to_completion(manager).duration
        assert durations[8] < durations[1]


class TestEviction:
    def test_grant_cut_evicts_and_requeues(self):
        """A competitor claiming guaranteed capacity mid-run evicts the
        job's spare-token tasks; the job still completes correctly."""
        sim = Simulator()
        cluster = quiet_cluster(sim, machines=5, slots=2)  # capacity 10
        competitor = cluster.pool.register(Consumer("competitor", 6))
        graph, profile = two_stage_job(num_maps=8, map_time=30.0)
        manager = JobManager(cluster, graph, profile, initial_allocation=4)
        # Job demand 8 > guarantee 4: it runs 8 tasks using competitor's
        # idle guarantee.  At t=10 the competitor wants its capacity back.
        sim.schedule(10.0, lambda: cluster.pool.set_demand("competitor", 6))
        trace = run_to_completion(manager)
        evicted = [r for r in trace.records if r.outcome == "evicted"]
        assert len(evicted) == 4
        assert all(r.used_spare_token for r in evicted)
        assert len(trace.successful_records()) == graph.num_vertices

    def test_eviction_loses_work(self):
        sim = Simulator()
        cluster = quiet_cluster(sim, machines=5, slots=2)
        cluster.pool.register(Consumer("competitor", 6))
        graph, profile = two_stage_job(num_maps=8, map_time=30.0)
        manager = JobManager(cluster, graph, profile, initial_allocation=4)
        sim.schedule(10.0, lambda: cluster.pool.set_demand("competitor", 6))
        trace = run_to_completion(manager)
        assert trace.wasted_cpu_seconds() > 0

    def test_spare_flag_tracks_guaranteed_part(self):
        sim = Simulator()
        cluster = quiet_cluster(sim, machines=5, slots=2)
        cluster.pool.register(Consumer("idle", 6))  # idle guarantee -> spare
        graph, profile = two_stage_job(num_maps=8, map_time=30.0)
        manager = JobManager(cluster, graph, profile, initial_allocation=4)
        sim.run(until=5.0)
        spare_now = sum(1 for t in manager._running if t.used_spare_token)
        assert manager.tasks_running == 8
        assert spare_now == 4


class TestFailures:
    def test_task_failures_retried(self):
        sim = Simulator()
        cluster = quiet_cluster(sim)
        graph, profile = two_stage_job(failure_prob=0.3)
        manager = JobManager(
            cluster, graph, profile, initial_allocation=10,
            rng=RngRegistry(7).stream("t"),
        )
        trace = run_to_completion(manager)
        failed = [r for r in trace.records if r.outcome == "failed"]
        assert failed, "expected at least one failure at p=0.3"
        assert len(trace.successful_records()) == graph.num_vertices

    def test_machine_failure_kills_and_retries_tasks(self):
        sim = Simulator()
        cluster = quiet_cluster(sim, machines=2, slots=10)
        graph, profile = two_stage_job(num_maps=10, map_time=50.0)
        manager = JobManager(cluster, graph, profile, initial_allocation=10)
        sim.run(until=5.0)
        victims = [t for t in manager._running if t.machine == 0]
        cluster.failures.fail_now(0, repair_seconds=10.0)
        trace = run_to_completion(manager)
        failed = [r for r in trace.records if r.outcome == "failed"]
        assert len(failed) == len(victims)
        assert len(trace.successful_records()) == graph.num_vertices


class TestSnapshot:
    def test_fractions_progress_over_time(self):
        sim = Simulator()
        cluster = quiet_cluster(sim)
        graph, profile = two_stage_job()
        manager = JobManager(cluster, graph, profile, initial_allocation=10)
        snap0 = manager.snapshot()
        assert snap0.stage_fractions == {"map": 0.0, "reduce": 0.0}
        sim.run(until=12.0)
        snap1 = manager.snapshot()
        assert snap1.stage_fractions["map"] == 1.0
        assert snap1.stage_fractions["reduce"] == 0.0
        assert snap1.elapsed == 12.0

    def test_snapshot_reports_allocation(self):
        sim = Simulator()
        cluster = quiet_cluster(sim)
        graph, profile = two_stage_job()
        manager = JobManager(cluster, graph, profile, initial_allocation=3)
        assert manager.snapshot().allocation == 3


def noisy_run(seed, driver, *, speculate=False):
    """A stochastic job (lognormal runtimes, failures, outliers) on a
    cluster with background demand, contention and machine loss, driven to
    its end by ``driver``."""
    sim = Simulator()
    config = ClusterConfig(
        num_machines=20,
        slots_per_machine=4,
        background_guaranteed=30,
        background_mean_demand=50.0,
        background_min_demand=20,
        background_max_demand=70,
        machine_mtbf_seconds=30_000.0,
        spare_soaker_weight=40.0,
    )
    cluster = Cluster(sim, config, rng=RngRegistry(seed))
    graph = JobGraph(
        "noisy",
        [Stage("map", 60), Stage("reduce", 10)],
        [Edge("map", "reduce", EdgeType.ALL_TO_ALL)],
    )
    profile = JobProfile(
        graph,
        {
            "map": StageProfile(
                "map",
                runtime=WithOutliers(LogNormal.from_median_p90(20.0, 45.0), 0.1, 6.0),
                init=Uniform(0.5, 2.0),
                failure_prob=0.05,
            ),
            "reduce": StageProfile(
                "reduce", runtime=LogNormal.from_median_p90(12.0, 20.0)
            ),
        },
    )
    manager = JobManager(
        cluster, graph, profile, initial_allocation=20,
        speculation=SpeculationConfig(check_period_seconds=10.0) if speculate else None,
    )
    return driver(manager)


def per_timestamp_run(manager, *, max_seconds=86_400.0):
    """The driver ``run_to_completion`` replaced, verbatim: re-enter the
    dispatch loop once per timestamp and look at ``finished`` in between."""
    deadline = manager.start_time + max_seconds
    while not manager.finished:
        next_time = manager.sim.peek_time()
        if next_time is None or manager.sim.now >= deadline:
            raise JobManagerError(
                f"job {manager.graph.name!r} did not finish within "
                f"{max_seconds:.0f}s of virtual time"
            )
        manager.sim.run(until=min(next_time, deadline), max_events=10_000)
    return manager.trace


class TestRunToCompletion:
    MESSAGE = "job 'tiny' did not finish within 100s of virtual time"

    def stalled(self, sim):
        cluster = quiet_cluster(sim)
        cluster.pool.register(Consumer("hog", cluster.pool.capacity))
        cluster.pool.set_demand("hog", cluster.pool.capacity)
        graph, profile = two_stage_job()
        return JobManager(cluster, graph, profile, initial_allocation=0)

    def test_stalled_job_raises(self):
        manager = self.stalled(Simulator())
        with pytest.raises(JobManagerError, match="did not finish"):
            run_to_completion(manager, max_seconds=100.0)

    @pytest.mark.parametrize("driver", [run_to_completion, per_timestamp_run])
    def test_same_message_when_the_queue_drains_early(self, driver):
        sim = Simulator()
        manager = self.stalled(sim)
        assert sim.pending_count == 0
        with pytest.raises(JobManagerError) as err:
            driver(manager, max_seconds=100.0)
        assert str(err.value) == self.MESSAGE

    @pytest.mark.parametrize("driver", [run_to_completion, per_timestamp_run])
    def test_same_message_when_max_seconds_is_reached(self, driver):
        sim = Simulator()
        manager = self.stalled(sim)
        sim.schedule_every(30.0, lambda: None)  # the queue never drains
        with pytest.raises(JobManagerError) as err:
            driver(manager, max_seconds=100.0)
        assert str(err.value) == self.MESSAGE
        assert sim.now == 100.0
        # The completion hook the driver chained is gone again.
        assert manager._on_complete is None

    def test_only_the_driven_manager_halts_the_run(self):
        """Two managers on one simulator: the undriven one finishes first
        and the driven one still runs to its end."""
        sim = Simulator()
        cluster = quiet_cluster(sim)
        done = []
        managers = {}
        for name, map_time in (("short", 5.0), ("long", 40.0)):
            graph, profile = two_stage_job(map_time=map_time)
            managers[name] = JobManager(
                cluster, graph, profile, name=name, initial_allocation=4,
                on_complete=lambda m: done.append((m.name, sim.now)),
            )
        trace = run_to_completion(managers["long"])
        assert [name for name, _t in done] == ["short", "long"]
        assert managers["short"].trace.end_time < trace.end_time == sim.now

    @pytest.mark.parametrize(
        "seed, speculate", [(2, False), (9, False), (21, True)]
    )
    def test_one_dispatch_loop_is_the_per_timestamp_run(self, seed, speculate):
        """Entering ``Simulator.run`` once and halting on completion is the
        run the per-timestamp driver produced: every record, both timelines
        and the end time."""
        new = noisy_run(seed, run_to_completion, speculate=speculate)
        old = noisy_run(seed, per_timestamp_run, speculate=speculate)
        assert new == old
        assert any(r.outcome != "ok" for r in new.records)


class TestAttemptIdentity:
    """Running attempts compare by identity: two attempts whose fields all
    match are still two attempts (regression: the generated dataclass
    ``__eq__`` made ``list.remove`` take whichever equal one came first)."""

    def twins(self):
        fields = dict(
            task_id=("twin", 0), attempt=0, ready_time=0.0, start_time=1.0,
            planned_end=11.0, machine=3, used_spare_token=False, will_fail=False,
        )
        return RunningTask(**fields), RunningTask(**fields)

    def test_field_identical_attempts_are_distinct(self):
        first, second = self.twins()
        assert first != second
        assert second not in [first]
        running = [first, second]
        running.remove(second)
        assert running[0] is first

    def test_slotted_attempt_is_removed_by_identity(self):
        sibling, attempt = self.twins()
        assert not hasattr(attempt, "__dict__")
        with pytest.raises(AttributeError):
            attempt.note = "x"
        running = [sibling, attempt]
        running.remove(attempt)
        assert len(running) == 1 and running[0] is sibling

    def test_release_removes_the_attempt_it_was_given(self):
        sim = Simulator()
        graph, profile = two_stage_job()
        manager = JobManager(quiet_cluster(sim), graph, profile, initial_allocation=10)
        first, second = self.twins()
        second.is_duplicate = True
        manager._running.extend([first, second])
        manager._guaranteed_count += 2
        manager._duplicates_in_flight += 1
        assert manager._release(second) == [first]
        assert manager._running[-1] is first
        assert manager._duplicates_in_flight == 0
