"""Unit tests for the discrete-event engine."""

import pytest

from repro.simkit.events import (
    PeriodicTask,
    SimulationError,
    Simulator,
    format_time,
)


class TestScheduling:
    def test_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_custom_start_time(self):
        assert Simulator(start_time=12.5).now == 12.5

    def test_schedule_and_run(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5.0]

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, lambda: order.append("c"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(2.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self):
        sim = Simulator()
        order = []
        for label in "abcde":
            sim.schedule(1.0, lambda l=label: order.append(l))
        sim.run()
        assert order == list("abcde")

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(7.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [7.0]

    def test_cannot_schedule_in_past(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    @pytest.mark.parametrize("method", ["call_at", "schedule_at"])
    def test_nan_time_rejected(self, method):
        """``nan < now`` is False, so a NaN time used to be queued, fire,
        and leave ``now`` NaN for the rest of the run."""
        sim = Simulator()
        with pytest.raises(SimulationError, match="t=nan"):
            getattr(sim, method)(float("nan"), lambda: None)
        sim.run()
        assert sim.now == 0.0

    @pytest.mark.parametrize("method", ["call_after", "schedule"])
    def test_nan_delay_rejected(self, method):
        sim = Simulator()
        with pytest.raises(SimulationError, match="got nan"):
            getattr(sim, method)(float("nan"), lambda: None)
        sim.run()
        assert sim.now == 0.0

    def test_events_scheduled_during_dispatch(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append("first")
            sim.schedule(1.0, lambda: fired.append("second"))

        sim.schedule(1.0, first)
        sim.run()
        assert fired == ["first", "second"]
        assert sim.now == 2.0

    def test_zero_delay_event_fires_at_same_time(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: sim.schedule(0.0, lambda: fired.append(sim.now)))
        sim.run()
        assert fired == [1.0]


class TestRunControl:
    def test_run_until_stops_clock_exactly(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        sim.run(until=4.0)
        assert sim.now == 4.0
        assert sim.pending_count == 1

    def test_run_until_fires_event_at_boundary(self):
        sim = Simulator()
        fired = []
        sim.schedule(4.0, lambda: fired.append(True))
        sim.run(until=4.0)
        assert fired == [True]

    def test_run_until_advances_past_empty_queue(self):
        sim = Simulator()
        sim.run(until=100.0)
        assert sim.now == 100.0

    def test_max_events(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(float(i + 1), lambda i=i: fired.append(i))
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_step_dispatches_one(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, lambda: fired.append(2))
        assert sim.step() is True
        assert fired == [1]

    def test_events_dispatched_counter(self):
        sim = Simulator()
        for _ in range(4):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_dispatched == 4

    def test_peek_time(self):
        sim = Simulator()
        assert sim.peek_time() is None
        sim.schedule(3.0, lambda: None)
        assert sim.peek_time() == 3.0


class TestHalt:
    def test_halt_finishes_the_instant_and_keeps_later_events(self):
        sim = Simulator()
        fired = []

        def halting():
            fired.append("halting")
            sim.call_at(sim.now, lambda: fired.append("scheduled-by-halting"))
            sim.halt()

        sim.call_at(5.0, halting)
        sim.call_at(5.0, lambda: fired.append("same-instant"))
        sim.schedule_at(6.0, lambda: fired.append("later"))
        sim.run(until=100.0)
        assert fired == ["halting", "same-instant", "scheduled-by-halting"]
        assert sim.now == 5.0  # the halting instant, not ``until``
        assert sim.events_dispatched == 3
        assert sim.peek_time() == 6.0
        # The next run carries on as if the last had been run(until=5.0).
        sim.run(until=100.0)
        assert fired[-1] == "later"
        assert sim.now == 100.0
        assert sim.events_dispatched == 4

    def test_halt_stops_a_run_without_until(self):
        sim = Simulator()
        fired = []
        sim.call_at(1.0, sim.halt)
        sim.call_at(2.0, lambda: fired.append(2.0))
        sim.run()
        assert (fired, sim.now) == ([], 1.0)
        sim.run()
        assert (fired, sim.now) == ([2.0], 2.0)

    def test_halt_with_nothing_running_does_not_shorten_the_next_run(self):
        sim = Simulator()
        fired = []
        sim.halt()
        sim.call_at(3.0, lambda: fired.append(3.0))
        sim.run(until=10.0)
        assert (fired, sim.now) == ([3.0], 10.0)

    def test_halt_returns_from_the_innermost_run_only(self):
        sim = Simulator()
        fired = []

        def nested():
            sim.call_at(2.0, sim.halt)
            sim.call_at(3.0, lambda: fired.append("inner-later"))
            sim.run(until=50.0)
            fired.append(("inner-returned", sim.now))

        sim.call_at(1.0, nested)
        sim.call_at(4.0, lambda: fired.append("outer-later"))
        sim.run(until=10.0)
        assert fired == [("inner-returned", 2.0), "inner-later", "outer-later"]
        assert sim.now == 10.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append(True))
        handle.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        sim.run()

    def test_cancelled_events_skipped_by_peek(self):
        sim = Simulator()
        h = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        h.cancel()
        assert sim.peek_time() == 2.0


class TestCancelledHeapCompaction:
    """Cancelled entries must not accumulate in the heap forever (the
    speculation scanner cancels timers constantly on long runs)."""

    def test_pending_count_excludes_cancelled(self):
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        for h in handles[:4]:
            h.cancel()
        assert sim.pending_count == 6
        assert sim.cancelled_pending == 4

    def test_compaction_shrinks_heap(self):
        sim = Simulator()
        keep = sim.schedule(1000.0, lambda: None)
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(200)]
        for h in handles:
            h.cancel()
        # 200 cancellations cross both thresholds (>= 64 and > half).
        assert sim.compactions >= 1
        assert sim.heap_size < 50
        assert sim.pending_count == 1
        assert sim.cancelled_pending < 64
        fired = []
        keep.callback = lambda: fired.append(sim.now)
        sim.run()
        assert fired == [1000.0]

    def test_no_compaction_below_threshold(self):
        sim = Simulator()
        for _ in range(100):
            sim.schedule(1.0, lambda: None)
        for h in [sim.schedule(2.0, lambda: None) for _ in range(30)]:
            h.cancel()
        assert sim.compactions == 0
        assert sim.cancelled_pending == 30

    def test_cancel_after_fire_does_not_corrupt_counter(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.run()
        handle.cancel()  # already fired: must not count as cancelled-pending
        assert sim.cancelled_pending == 0

    def test_drop_on_dispatch_decrements_counter(self):
        sim = Simulator()
        h = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        h.cancel()
        assert sim.cancelled_pending == 1
        sim.run()
        assert sim.cancelled_pending == 0
        assert sim.pending_count == 0

    def test_sustained_cancel_churn_bounds_heap(self):
        # The leak scenario: schedule-and-cancel in a loop.  Without
        # compaction the heap grows to ~n; with it, it stays bounded.
        sim = Simulator()
        for _ in range(5000):
            sim.schedule(10.0, lambda: None).cancel()
        assert sim.heap_size < 200
        assert sim.compactions > 0

    def test_publish_metrics_gauges(self):
        from repro.telemetry.metrics import MetricsRegistry

        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(3.0, lambda: None)
        # Cancelled behind a live entry: stays in the heap until reached.
        sim.schedule(5.0, lambda: None).cancel()
        sim.run(until=1.5)
        reg = MetricsRegistry()
        sim.publish_metrics(reg)
        snap = {name: m["values"][""] for name, m in reg.snapshot().items()}
        assert snap["repro_simkit_pending_events"] == 1
        assert snap["repro_simkit_cancelled_pending"] == 1
        assert snap["repro_simkit_events_scheduled"] == 3
        assert snap["repro_simkit_events_dispatched"] == 1
        assert snap["repro_simkit_virtual_time_seconds"] == 1.5


class TestPeriodicTask:
    def test_fires_every_period(self):
        sim = Simulator()
        times = []
        sim.schedule_every(10.0, lambda: times.append(sim.now))
        sim.run(until=35.0)
        assert times == [10.0, 20.0, 30.0]

    def test_first_delay_override(self):
        sim = Simulator()
        times = []
        sim.schedule_every(10.0, lambda: times.append(sim.now), first_delay=1.0)
        sim.run(until=22.0)
        assert times == [1.0, 11.0, 21.0]

    def test_until_bound(self):
        sim = Simulator()
        times = []
        task = sim.schedule_every(10.0, lambda: times.append(sim.now), until=25.0)
        sim.run()
        assert times == [10.0, 20.0]
        assert task.stopped

    def test_stop_from_callback(self):
        sim = Simulator()
        times = []
        task = None

        def tick():
            times.append(sim.now)
            if len(times) == 2:
                task.stop()

        task = sim.schedule_every(5.0, tick)
        sim.run(until=100.0)
        assert times == [5.0, 10.0]

    def test_stop_outside_callback(self):
        sim = Simulator()
        times = []
        task = sim.schedule_every(5.0, lambda: times.append(sim.now))
        sim.run(until=12.0)
        task.stop()
        sim.run(until=100.0)
        assert times == [5.0, 10.0]

    def test_invalid_period(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_every(0.0, lambda: None)


class TestFormatTime:
    @pytest.mark.parametrize(
        "seconds,expected",
        [(0, "0:00:00"), (61, "0:01:01"), (3600, "1:00:00"), (3725.4, "1:02:05")],
    )
    def test_rendering(self, seconds, expected):
        assert format_time(seconds) == expected

    def test_negative_clamped(self):
        assert format_time(-5) == "0:00:00"
