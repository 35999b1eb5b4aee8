"""The batched event-dispatch fast path: APIs, queue invariants, and the
byte-identity contract of the job manager's wave starts.

Three layers of evidence that the throughput refactor changed no results:

* API tests for the new fire-and-forget (``call_at`` / ``call_after``) and
  batched (``schedule_batch``) scheduling entry points.
* Hypothesis invariants on the tuple-queue itself: FIFO tie order across
  every scheduling API, cancellation never fires nor reorders survivors,
  and heap compaction never drops a live event.
* Byte-identical run digests (trace JSONL and task records) between the
  batched wave path and the pre-batching scalar start loop, on paired
  seeds, and across ``parallel_map`` worker counts 1 and 2.
"""

import hashlib
import io
import json
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import parallel
from repro.cluster import Cluster, ClusterConfig
from repro.jobs.dag import Edge, EdgeType, JobGraph, Stage
from repro.jobs.profiles import JobProfile, StageProfile
from repro.runtime.jobmanager import JobManager, run_to_completion
from repro.simkit.distributions import LogNormal
from repro.simkit.events import SimulationError, Simulator
from repro.simkit.random import RngRegistry
from repro.telemetry import export as telemetry_export
from repro.telemetry import trace as _trace


# ----------------------------------------------------------------------
# Fire-and-forget scheduling APIs.
# ----------------------------------------------------------------------


class TestCallAfterCallAt:
    def test_call_after_dispatches_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.call_after(3.0, fired.append, "c")
        sim.call_after(1.0, fired.append, "a")
        sim.call_after(2.0, fired.append, "b")
        sim.run()
        assert fired == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_call_at_absolute_time(self):
        sim = Simulator(start_time=100.0)
        seen = []
        sim.call_at(105.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [105.0]

    def test_no_arg_callback_invoked_without_payload(self):
        sim = Simulator()
        calls = []
        sim.call_after(1.0, lambda: calls.append("bare"))
        sim.call_after(2.0, calls.append, "payload")
        sim.run()
        assert calls == ["bare", "payload"]

    def test_payload_may_be_any_object_including_none(self):
        sim = Simulator()
        seen = []
        sim.call_after(1.0, seen.append, None)
        sim.run()
        assert seen == [None]

    def test_call_at_past_raises(self):
        sim = Simulator(start_time=50.0)
        with pytest.raises(SimulationError):
            sim.call_at(49.0, lambda: None)

    def test_call_after_negative_delay_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.call_after(-1.0, lambda: None)

    def test_counts_as_scheduled_and_dispatched(self):
        sim = Simulator()
        sim.call_after(1.0, lambda: None)
        assert sim.events_scheduled == 1
        sim.run()
        assert sim.events_dispatched == 1


class TestScheduleBatch:
    def test_batch_fires_shared_callback_with_payloads(self):
        sim = Simulator()
        seen = []
        sim.schedule_batch([2.0, 1.0, 3.0], seen.append, ["b", "a", "c"])
        sim.run()
        assert seen == ["a", "b", "c"]

    def test_tie_order_follows_position(self):
        sim = Simulator()
        seen = []
        sim.schedule_batch([5.0] * 4, seen.append, list(range(4)))
        sim.run()
        assert seen == [0, 1, 2, 3]

    def test_without_args_callback_takes_no_payload(self):
        sim = Simulator()
        count = []
        sim.schedule_batch([1.0, 2.0], lambda: count.append(sim.now))
        sim.run()
        assert count == [1.0, 2.0]

    def test_empty_batch_is_a_noop(self):
        sim = Simulator()
        assert sim.schedule_batch([], lambda: None) is None
        assert sim.schedule_batch([], lambda: None, cancelable=True) == []
        assert sim.events_scheduled == 0

    def test_length_mismatch_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_batch([1.0, 2.0], lambda x: None, ["only-one"])

    def test_past_time_raises(self):
        sim = Simulator(start_time=10.0)
        with pytest.raises(SimulationError):
            sim.schedule_batch([11.0, 9.0], lambda: None)

    def test_cancelable_batch_returns_handles(self):
        sim = Simulator()
        seen = []
        handles = sim.schedule_batch(
            [1.0, 2.0, 3.0], seen.append, ["a", "b", "c"], cancelable=True
        )
        assert len(handles) == 3
        handles[1].cancel()
        sim.run()
        assert seen == ["a", "c"]

    def test_merge_paths_agree(self):
        """The heappush-loop branch (small batch into a big queue) and the
        extend+heapify branch (batch comparable to the queue) must produce
        the same dispatch order."""

        def build(preload: int, batch: int):
            sim = Simulator()
            order = []
            for i in range(preload):
                sim.call_after(10.0 + i, order.append, f"pre-{i}")
            sim.schedule_batch(
                [5.0 + 0.1 * j for j in range(batch)],
                order.append,
                [f"batch-{j}" for j in range(batch)],
            )
            sim.run()
            return order

        # batch * 4 < queue -> push loop; batch * 4 >= queue -> heapify.
        small = build(preload=50, batch=3)
        large = build(preload=50, batch=40)
        assert small[:3] == ["batch-0", "batch-1", "batch-2"]
        assert large[:40] == [f"batch-{j}" for j in range(40)]

    def test_batch_interleaves_with_scalar_schedules_fifo(self):
        """Equal-time events fire in global scheduling order no matter
        which API queued them."""
        sim = Simulator()
        seen = []
        sim.schedule(7.0, seen.append, "scalar-first")
        sim.schedule_batch([7.0, 7.0], seen.append, ["batch-0", "batch-1"])
        sim.call_at(7.0, seen.append, "call-at-last")
        sim.run()
        assert seen == ["scalar-first", "batch-0", "batch-1", "call-at-last"]


# ----------------------------------------------------------------------
# Hypothesis invariants for the tuple queue.
# ----------------------------------------------------------------------

#: (api, time-bucket) choices: every scheduling API must honor the same
#: global FIFO-among-ties contract.
_APIS = ("schedule", "schedule_at", "call_after", "call_at", "batch")


def _schedule_one(sim, api, t, payload, sink):
    if api == "schedule":
        return sim.schedule(t, sink.append, payload)
    if api == "schedule_at":
        return sim.schedule_at(sim.now + t, sink.append, payload)
    if api == "call_after":
        sim.call_after(t, sink.append, payload)
    elif api == "call_at":
        sim.call_at(sim.now + t, sink.append, payload)
    else:
        sim.schedule_batch([sim.now + t], sink.append, [payload])
    return None


class TestQueueInvariants:
    @given(
        plan=st.lists(
            st.tuples(
                st.sampled_from(_APIS),
                st.integers(min_value=0, max_value=3),
            ),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=60)
    def test_fifo_among_ties_across_all_apis(self, plan):
        """Events at equal times fire in scheduling order regardless of
        which API queued them; across times, dispatch is time-sorted."""
        sim = Simulator()
        fired = []
        for i, (api, bucket) in enumerate(plan):
            _schedule_one(sim, api, float(bucket), (bucket, i), fired)
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(plan)

    @given(
        plan=st.lists(
            st.tuples(
                st.sampled_from(("schedule", "schedule_at", "batch")),
                st.integers(min_value=0, max_value=3),
                st.booleans(),
            ),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=60)
    def test_cancellation_never_fires_nor_reorders(self, plan):
        """Cancelled events never fire; survivors keep exact global order;
        the live-event accounting stays consistent."""
        sim = Simulator()
        fired = []
        expected = []
        for i, (api, bucket, cancel) in enumerate(plan):
            t = float(bucket)
            payload = (bucket, i)
            if api == "schedule":
                handle = sim.schedule(t, fired.append, payload)
            elif api == "schedule_at":
                handle = sim.schedule_at(sim.now + t, fired.append, payload)
            else:
                handle = sim.schedule_batch(
                    [sim.now + t], fired.append, [payload], cancelable=True
                )[0]
            if cancel:
                handle.cancel()
            else:
                expected.append(payload)
        sim.run()
        assert fired == sorted(expected)
        assert sim.events_dispatched == len(expected)
        assert sim.pending_count == 0

    @given(
        live_buckets=st.lists(
            st.integers(min_value=0, max_value=5), min_size=1, max_size=40
        ),
        victims=st.integers(min_value=150, max_value=400),
    )
    @settings(max_examples=25)
    def test_compaction_never_drops_live_events(self, live_buckets, victims):
        """Mass cancellation forces heap rebuilds; every live event still
        fires exactly once, in order."""
        sim = Simulator()
        fired = []
        for i, bucket in enumerate(live_buckets):
            sim.call_after(float(bucket), fired.append, (bucket, i))
        handles = sim.schedule_batch(
            [1000.0 + i for i in range(victims)],
            lambda: None,
            cancelable=True,
        )
        for handle in handles:
            handle.cancel()
        assert sim.compactions > 0  # the storm actually hit the compactor
        sim.run(until=500.0)
        assert fired == sorted(fired)
        assert len(fired) == len(live_buckets)

    @given(cancel_twice=st.booleans())
    @settings(max_examples=10)
    def test_cancel_is_idempotent_and_post_fire_safe(self, cancel_twice):
        sim = Simulator()
        fired = []
        keep = sim.schedule(1.0, fired.append, "live")
        sim.run()
        keep.cancel()  # after fire: documented safe no-op
        if cancel_twice:
            keep.cancel()
        sim.call_after(1.0, fired.append, "after")
        sim.run()
        assert fired == ["live", "after"]

    def test_mixed_storm_is_deterministic(self):
        """Re-launching waves, self-rescheduling chains and cancelled
        long-horizon victims take their order from the queue alone."""
        a, b = _storm(), _storm()
        assert a.compactions > 0  # the victims reached the compactor
        assert (a.now, a.events_scheduled, a.heap_size, a.compactions) == (
            b.now, b.events_scheduled, b.heap_size, b.compactions
        )


def _storm() -> Simulator:
    """5 000 events of: two 192-task completion waves that re-launch on
    drain, eight control chains on integer-mixed delays (no RNG), and a
    ~200 s victim every fourth chain step, cancelled once 32 are out."""
    sim = Simulator()
    offsets = [1.0 + ((i * 2654435761) & 0xFFFF) / 16384.0 for i in range(192)]
    victims = deque()
    left = [0, 0]

    def chain_step(state):
        state[1] += 1
        mixed = (state[0] * 2654435761 + state[1] * 40503) & 0xFFFF
        sim.call_after(0.25 + mixed / 65536.0, chain_step, state)
        if state[1] % 4 == 0:
            victims.append(sim.schedule(200.0 + mixed / 256.0, lambda: None))
            if len(victims) > 32:
                victims.popleft().cancel()

    def launch(wave):
        left[wave] = len(offsets)
        sim.schedule_batch(
            [sim.now + off for off in offsets], task_done, [wave] * len(offsets)
        )

    def task_done(wave):
        left[wave] -= 1
        if not left[wave]:
            launch(wave)

    for chain in range(8):
        sim.call_after(0.001 * (chain + 1), chain_step, [chain, 0])
    launch(0)
    launch(1)
    sim.run(max_events=5_000)
    return sim


# ----------------------------------------------------------------------
# Byte-identity of the job manager's batched wave starts.
# ----------------------------------------------------------------------

#: A small but *stochastic* substrate: background demand, contention,
#: machine failures, lognormal runtimes — every code path whose RNG draw
#: order the wave batching must preserve.
_CONFIG = ClusterConfig(
    num_machines=20,
    slots_per_machine=4,
    background_guaranteed=30,
    background_mean_demand=50.0,
    background_min_demand=20,
    background_max_demand=70,
    machine_mtbf_seconds=30_000.0,
    spare_soaker_weight=40.0,
)


def _stochastic_job():
    graph = JobGraph(
        "waves",
        [Stage("map", 60), Stage("reduce", 10)],
        [Edge("map", "reduce", EdgeType.ALL_TO_ALL)],
    )
    profile = JobProfile(
        graph,
        {
            "map": StageProfile(
                "map",
                runtime=LogNormal.from_median_p90(20.0, 45.0),
                failure_prob=0.05,
            ),
            "reduce": StageProfile(
                "reduce", runtime=LogNormal.from_median_p90(12.0, 20.0)
            ),
        },
    )
    return graph, profile


class _ScalarStartManager(JobManager):
    """The pre-batching start path, verbatim: one ``_start_task`` call per
    ready task.  Used as the reference the batched wave path must match
    byte-for-byte."""

    def _start_ready_tasks(self, now):
        grant = self.consumer.grant
        cap = self._grant_cap(grant)
        started = False
        while self._ready and len(self._running) < cap:
            self._start_task(self._ready.popleft(), grant, now)
            started = True
        if started:
            self.trace.mark_running(now, len(self._running))


def _traced_run(manager_cls, seed, **manager_kwargs):
    """Run the stochastic job under a full trace capture; return the trace
    JSONL bytes and the JSON-serialized task records."""
    with _trace.capture(capacity=1 << 20) as rec:
        sim = Simulator()
        cluster = Cluster(sim, _CONFIG, rng=RngRegistry(seed))
        graph, profile = _stochastic_job()
        manager = manager_cls(
            cluster, graph, profile, initial_allocation=20, **manager_kwargs
        )
        run_trace = run_to_completion(manager)
        events = rec.events()
    buf = io.StringIO()
    telemetry_export.write_jsonl(events, buf)
    records = json.dumps(
        [
            (r.stage, r.index, r.attempt, r.machine, r.start_time,
             r.end_time, r.outcome)
            for r in run_trace.records
        ],
        sort_keys=True,
    ).encode("utf-8")
    return buf.getvalue().encode("utf-8"), records


class TestWaveBatchingByteIdentity:
    @pytest.mark.parametrize("seed", [3, 11])
    def test_batched_waves_match_scalar_starts(self, seed):
        """The tentpole contract: batching the wave's event-queue mechanics
        changes nothing observable — trace bytes and task records are
        identical to the scalar start loop, on paired seeds."""
        batched_jsonl, batched_records = _traced_run(JobManager, seed)
        scalar_jsonl, scalar_records = _traced_run(_ScalarStartManager, seed)
        assert (
            hashlib.sha256(batched_jsonl).hexdigest()
            == hashlib.sha256(scalar_jsonl).hexdigest()
        )
        assert batched_jsonl == scalar_jsonl
        assert batched_records == scalar_records
        # The comparison is not vacuous: the run actually started waves.
        assert b"task.start" in batched_jsonl

    def test_repeated_run_is_byte_identical(self):
        first = _traced_run(JobManager, seed=3)
        second = _traced_run(JobManager, seed=3)
        assert first == second

    def test_different_seeds_differ(self):
        """Guard against the digest comparing constants."""
        a, _ = _traced_run(JobManager, seed=3)
        b, _ = _traced_run(JobManager, seed=11)
        assert a != b


def _digest_for_seed(seed: int) -> str:
    """Top-level (picklable) worker: run one traced job, return its digest."""
    jsonl, records = _traced_run(JobManager, seed)
    return hashlib.sha256(jsonl + records).hexdigest()


class TestDigestAcrossWorkerCounts:
    def test_paired_seeds_identical_at_jobs_1_and_2(self):
        """`REPRO_JOBS`-style fan-out must not perturb results: the same
        paired seeds digest identically whether the runs execute serially
        or across two worker processes."""
        seeds = [3, 11]
        serial = parallel.parallel_map(_digest_for_seed, seeds, jobs=1)
        fanned = parallel.parallel_map(_digest_for_seed, seeds, jobs=2)
        assert serial == fanned
