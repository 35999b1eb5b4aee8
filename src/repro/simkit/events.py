"""Discrete-event simulation core.

The :class:`Simulator` owns a virtual clock and a priority queue of pending
events.  Components schedule callbacks at absolute or relative virtual times;
``run`` dispatches them in time order (FIFO among ties).  All model time in
this repository is in *seconds* of virtual time.

Queue representation
--------------------
Heap entries are plain tuples, never per-event objects:

* ``(time, seq, callback, arg)`` — the fire-and-forget fast path
  (:meth:`Simulator.call_after` / :meth:`Simulator.call_at` /
  :meth:`Simulator.schedule_batch`).  Nothing is allocated beyond the tuple
  itself; ``arg`` is the :data:`_NO_ARG` sentinel when the callback takes no
  payload.
* ``(time, seq, None, handle)`` — the cancelable path (:meth:`Simulator.schedule`
  / :meth:`Simulator.schedule_at`).  ``callback is None`` marks the entry as
  handle-carrying; the callback and payload are read *from the handle at fire
  time* so callers may still rebind ``handle.callback`` while queued.

``seq`` is unique, so tuple comparison never reaches elements 2/3 and the
mixed shapes coexist in one heap.  :class:`EventHandle` objects are pooled:
when a handle's event fires (or its cancelled entry is shed) the handle goes
back on a per-simulator free list and the next ``schedule`` reuses it.  The
discipline this buys speed with: **never cancel a handle after its event has
fired** — the object may already represent a different event.  Clear your
reference at fire time instead (the in-repo callers all do).
"""

from __future__ import annotations

import heapq
import time
from typing import Callable, List, Optional, Sequence, Tuple

from repro.perf import instrument as _perf
from repro.telemetry import metrics as _metrics
from repro.telemetry import trace as _trace

#: Sentinel meaning "callback takes no payload argument".
_NO_ARG = object()

#: The horizon of a ``run`` with no ``until``.
_FOREVER = float("inf")

#: Free-list bound: handles beyond this are left to the garbage collector.
_POOL_MAX = 1024


class SimulationError(RuntimeError):
    """Raised on invalid use of the simulator (e.g. scheduling in the past)."""


class EventHandle:
    """A cancelable reference to a scheduled event.

    Handles are recycled through a per-simulator free list once their event
    fires or their cancelled entry is dropped from the heap.  Cancelling an
    already-fired handle is a safe no-op *only while the handle has not been
    reused* — drop references to handles at fire time rather than keeping
    them around to cancel later.
    """

    __slots__ = ("time", "seq", "callback", "arg", "cancelled", "_sim", "_queued")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., None],
        sim: Optional["Simulator"] = None,
        arg: object = _NO_ARG,
    ):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.arg = arg
        self.cancelled = False
        self._sim = sim
        self._queued = sim is not None

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once."""
        if not self._queued:
            # Already fired or already shed from the heap: nothing to do, and
            # crucially nothing to count.
            self.cancelled = True
            return
        if self.cancelled:
            return
        self.cancelled = True
        self._sim._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self.time:.3f}, seq={self.seq}, {state})"


class Simulator:
    """A minimal, fast discrete-event simulator.

    Events are plain callbacks.  Ties in virtual time dispatch in scheduling
    order, which keeps component interactions deterministic.
    """

    #: Rebuild the heap once cancelled entries outnumber live ones (and the
    #: queue is big enough for the O(n) pass to matter).
    COMPACT_MIN_CANCELLED = 64

    def __init__(self, start_time: float = 0.0):
        #: Current virtual time in seconds; only the simulator sets it.  A
        #: plain attribute, not a property: a job manager reads it on every
        #: task finish, and a property read is a Python call.
        self.now = float(start_time)
        self._queue: List[Tuple] = []
        self._seq = 0
        self._dispatched = 0
        self._scheduled = 0
        self._cancelled = 0
        self._compactions = 0
        self._handle_pool: List[EventHandle] = []
        self._until = _FOREVER

    @property
    def events_dispatched(self) -> int:
        """Number of events that have fired so far."""
        return self._dispatched

    @property
    def events_scheduled(self) -> int:
        """Number of events ever scheduled."""
        return self._scheduled

    @property
    def pending_count(self) -> int:
        """Number of *live* events still queued (cancelled ones excluded)."""
        return len(self._queue) - self._cancelled

    @property
    def cancelled_pending(self) -> int:
        """Cancelled events still occupying heap slots."""
        return self._cancelled

    @property
    def heap_size(self) -> int:
        """Raw heap length, live plus cancelled (the leak the compactor bounds)."""
        return len(self._queue)

    @property
    def compactions(self) -> int:
        """How many times the heap was rebuilt to shed cancelled entries."""
        return self._compactions

    # ------------------------------------------------------------------
    # Fire-and-forget scheduling: tuple entries, no handle, no allocation.
    # ------------------------------------------------------------------

    def call_at(
        self, time: float, callback: Callable[..., None], arg: object = _NO_ARG
    ) -> None:
        """Schedule ``callback`` at absolute time ``time`` with no cancel
        handle.  ``arg``, when given, is passed as the callback's single
        positional argument — the payload replaces a per-event closure."""
        if not time >= self.now:  # NaN fails it too
            raise SimulationError(
                f"cannot schedule event at t={time:.3f}, now is t={self.now:.3f}"
            )
        seq = self._seq
        self._seq = seq + 1
        self._scheduled += 1
        heapq.heappush(self._queue, (time, seq, callback, arg))

    def call_after(
        self, delay: float, callback: Callable[..., None], arg: object = _NO_ARG
    ) -> None:
        """Schedule ``callback`` after ``delay`` seconds with no cancel handle."""
        if not delay >= 0:  # NaN fails it too
            raise SimulationError(f"delay must be >= 0, got {delay!r}")
        seq = self._seq
        self._seq = seq + 1
        self._scheduled += 1
        heapq.heappush(self._queue, (self.now + delay, seq, callback, arg))

    def schedule_batch(
        self,
        times: Sequence[float],
        callback: Callable[..., None],
        args: Optional[Sequence[object]] = None,
        *,
        cancelable: bool = False,
    ) -> Optional[List[EventHandle]]:
        """Schedule one shared ``callback`` at each absolute time in ``times``.

        ``args[i]``, when given, is the payload passed to the ``i``-th firing;
        tie order among equal times follows position in ``times``.  The batch
        is merged into the heap in one pass: for batches comparable to the
        queue size a single ``extend`` + ``heapify`` (O(n+k)) replaces k
        heappushes (O(k log n)).

        With ``cancelable=True`` every event gets a pooled
        :class:`EventHandle` and the list of handles is returned (the
        job-manager wave path cancels individual finishes on eviction);
        otherwise entries are fire-and-forget tuples and the return is None.
        """
        times = list(times)
        n = len(times)
        if cancelable and args is None:
            args = (_NO_ARG,) * n
        if args is not None and len(args) != n:
            raise SimulationError(
                f"schedule_batch: {n} times but {len(args)} args"
            )
        if n == 0:
            return [] if cancelable else None
        if min(times) < self.now:
            raise SimulationError(
                f"cannot schedule event at t={min(times):.3f}, now is t={self.now:.3f}"
            )
        seq0 = self._seq
        handles: Optional[List[EventHandle]] = None
        if cancelable:
            pool = self._handle_pool
            handles = []
            entries = []
            for s, (t, a) in enumerate(zip(times, args), seq0):
                if pool:
                    h = pool.pop()
                    h.time = t
                    h.seq = s
                    h.callback = callback
                    h.arg = a
                    h.cancelled = False
                    h._queued = True
                else:
                    h = EventHandle(t, s, callback, self, a)
                entries.append((t, s, None, h))
                handles.append(h)
        elif args is None:
            noarg = _NO_ARG
            entries = [(t, s, callback, noarg) for s, t in enumerate(times, seq0)]
        else:
            entries = [(t, s, callback, a) for s, (t, a) in enumerate(zip(times, args), seq0)]
        self._seq = seq0 + n
        self._scheduled += n
        q = self._queue
        if n * 4 < len(q):
            push = heapq.heappush
            for entry in entries:
                push(q, entry)
        else:
            q.extend(entries)
            heapq.heapify(q)
        return handles

    # ------------------------------------------------------------------
    # Cancelable scheduling: pooled EventHandle entries.
    # ------------------------------------------------------------------

    def schedule_at(
        self, time: float, callback: Callable[..., None], arg: object = _NO_ARG
    ) -> EventHandle:
        """Schedule ``callback`` at absolute virtual time ``time``."""
        if not time >= self.now:  # NaN fails it too
            raise SimulationError(
                f"cannot schedule event at t={time:.3f}, now is t={self.now:.3f}"
            )
        seq = self._seq
        self._seq = seq + 1
        self._scheduled += 1
        pool = self._handle_pool
        if pool:
            handle = pool.pop()
            handle.time = time
            handle.seq = seq
            handle.callback = callback
            handle.arg = arg
            handle.cancelled = False
            handle._queued = True
        else:
            handle = EventHandle(time, seq, callback, self, arg)
        heapq.heappush(self._queue, (time, seq, None, handle))
        return handle

    def schedule(
        self, delay: float, callback: Callable[..., None], arg: object = _NO_ARG
    ) -> EventHandle:
        """Schedule ``callback`` after ``delay`` seconds of virtual time."""
        if not delay >= 0:  # NaN fails it too
            raise SimulationError(f"delay must be >= 0, got {delay!r}")
        return self.schedule_at(self.now + delay, callback, arg)

    def schedule_every(
        self,
        period: float,
        callback: Callable[[], None],
        *,
        first_delay: Optional[float] = None,
        until: Optional[float] = None,
    ) -> "PeriodicTask":
        """Run ``callback`` every ``period`` seconds until cancelled.

        ``first_delay`` defaults to ``period``.  If ``until`` is given, the
        task stops once the next firing would exceed that time.
        """
        if period <= 0:
            raise SimulationError(f"period must be positive, got {period!r}")
        return PeriodicTask(self, period, callback, first_delay=first_delay, until=until)

    # ------------------------------------------------------------------
    # Dispatch.
    # ------------------------------------------------------------------

    def peek_time(self) -> Optional[float]:
        """Time of the next non-cancelled event, or None if empty."""
        self._drop_cancelled()
        return self._queue[0][0] if self._queue else None

    def step(self) -> bool:
        """Dispatch the single next event.  Returns False if none remain."""
        self._drop_cancelled()
        q = self._queue
        if not q:
            return False
        t, _seq, cb, arg = heapq.heappop(q)
        if cb is None:
            handle = arg
            handle._queued = False
            cb = handle.callback
            arg = handle.arg
            pool = self._handle_pool
            if len(pool) < _POOL_MAX:
                pool.append(handle)
        self.now = t
        self._dispatched += 1
        if arg is _NO_ARG:
            cb()
        else:
            cb(arg)
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Dispatch events until the queue drains, ``until`` passes, or
        ``max_events`` have fired in this call.

        When ``until`` is reached, the clock is advanced to exactly ``until``
        and later events remain queued.

        Performance observability pays one attribute check per *call*
        (never per event): with a live collector the whole dispatch loop
        is timed and the counters are derived from the dispatch/heap
        deltas, so the per-event path is identical either way.
        """
        perf = _perf.COLLECTOR
        if not perf.enabled:
            self._run_loop(until, max_events)
            return
        heap_before = len(self._queue)
        start_dispatched = self._dispatched
        start = time.perf_counter()
        try:
            self._run_loop(until, max_events)
        finally:
            perf.record("simkit.run", time.perf_counter() - start)
            perf.count(
                "simkit.events_dispatched", self._dispatched - start_dispatched
            )
            perf.maximum(
                "simkit.heap_peak", max(heap_before, len(self._queue))
            )

    def halt(self) -> None:
        """Finish the events of the current instant, then return from the
        ``run`` in progress.

        Events at ``now`` — including ones scheduled at ``now`` from here on
        — still fire in sequence order; later ones stay queued and the clock
        is *not* advanced to the run's ``until``, so the next ``run``
        continues as if this one had been called with ``until=now``.  With
        no ``run`` in progress this does nothing.
        """
        self._until = self.now

    def _run_loop(self, until: Optional[float], max_events: Optional[int]) -> None:
        # The engine's hot loop.  Everything it touches per event is a local
        # except the horizon ``self._until``, which :meth:`halt` may lower
        # mid-run; cancelled entries are shed inline as they surface at the
        # heap top, so each dispatch pays at most one cancelled-entry check
        # (there is no separate _drop_cancelled pre-scan per iteration).
        # ``fired != max_events`` doubles as the no-limit test: with
        # max_events=None the comparison never becomes equal.  The dispatched
        # counter is settled once per call (in ``finally`` so a raising
        # callback still counts its own dispatch).
        q = self._queue
        pop = heapq.heappop
        pool = self._handle_pool
        pool_max = _POOL_MAX
        noarg = _NO_ARG
        fired = 0
        outer = self._until
        self._until = _FOREVER if until is None else until
        try:
            while q and fired != max_events:
                if q[0][0] > self._until:
                    self.now = self._until
                    break
                t, _s, cb, arg = pop(q)
                if cb is None:
                    handle = arg
                    handle._queued = False
                    if len(pool) < pool_max:
                        pool.append(handle)
                    if handle.cancelled:
                        self._cancelled -= 1
                        continue
                    cb = handle.callback
                    arg = handle.arg
                self.now = t
                fired += 1
                if arg is noarg:
                    cb()
                else:
                    cb(arg)
            else:
                # No later event held the loop back: a drained queue still
                # moves the clock to a finite horizon (after halt(), ``now``).
                if not q and self.now < self._until < _FOREVER:
                    self.now = self._until
        finally:
            self._dispatched += fired
            self._until = outer

    def _drop_cancelled(self) -> None:
        q = self._queue
        pool = self._handle_pool
        while q:
            head = q[0]
            if head[2] is not None:
                return
            handle = head[3]
            if not handle.cancelled:
                return
            heapq.heappop(q)
            handle._queued = False
            self._cancelled -= 1
            if len(pool) < _POOL_MAX:
                pool.append(handle)

    def _note_cancelled(self) -> None:
        """A queued handle was cancelled; compact once the heap is mostly
        dead weight so long runs with heavy cancellation (evictions,
        superseded duplicates) do not leak memory."""
        self._cancelled += 1
        if (
            self._cancelled >= self.COMPACT_MIN_CANCELLED
            and self._cancelled * 2 > len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled entries (O(n)).

        The rebuild is *in place* (slice assignment): the dispatch loop binds
        the queue list to a local, so rebinding ``self._queue`` to a fresh
        list would silently split scheduling from dispatch mid-run.
        """
        q = self._queue
        pool = self._handle_pool
        live = []
        keep = live.append
        for entry in q:
            if entry[2] is None and entry[3].cancelled:
                handle = entry[3]
                handle._queued = False
                if len(pool) < _POOL_MAX:
                    pool.append(handle)
            else:
                keep(entry)
        shed = len(q) - len(live)
        q[:] = live
        heapq.heapify(q)
        self._cancelled = 0
        self._compactions += 1
        rec = _trace.RECORDER
        if rec.enabled:
            rec.emit(self.now, "sim.compact", pending=len(q))
        perf = _perf.COLLECTOR
        if perf.enabled:
            perf.count("simkit.compactions")
            perf.count("simkit.compacted_entries", shed)

    def publish_metrics(self, registry: Optional[_metrics.MetricsRegistry] = None) -> None:
        """Publish queue/clock state as telemetry gauges.  Called at
        collection points (end of a run, CLI export) rather than per event
        to keep the dispatch loop free of instrumentation."""
        reg = registry if registry is not None else _metrics.REGISTRY
        reg.gauge(
            "repro_simkit_pending_events", "Live events still queued"
        ).set(self.pending_count)
        reg.gauge(
            "repro_simkit_cancelled_pending",
            "Cancelled events still occupying heap slots",
        ).set(self._cancelled)
        reg.gauge(
            "repro_simkit_events_scheduled", "Events ever scheduled"
        ).set(self._scheduled)
        reg.gauge(
            "repro_simkit_events_dispatched", "Events dispatched"
        ).set(self._dispatched)
        reg.gauge(
            "repro_simkit_heap_compactions", "Cancelled-entry heap rebuilds"
        ).set(self._compactions)
        reg.gauge(
            "repro_simkit_virtual_time_seconds", "Current virtual clock"
        ).set(self.now)


class PeriodicTask:
    """A self-rescheduling periodic callback; created by ``schedule_every``."""

    def __init__(
        self,
        sim: Simulator,
        period: float,
        callback: Callable[[], None],
        *,
        first_delay: Optional[float] = None,
        until: Optional[float] = None,
    ):
        self._sim = sim
        self._period = period
        self._callback = callback
        self._until = until
        self._stopped = False
        self._handle: Optional[EventHandle] = None
        delay = period if first_delay is None else first_delay
        self._arm(delay)

    @property
    def stopped(self) -> bool:
        return self._stopped

    def _arm(self, delay: float) -> None:
        target = self._sim.now + delay
        if self._until is not None and target > self._until:
            self._stopped = True
            return
        self._handle = self._sim.schedule(delay, self._fire)

    def _fire(self) -> None:
        # Our handle just fired and may be recycled by anything the callback
        # schedules — drop the reference *before* the callback runs so a
        # stop() from inside it cannot cancel an unrelated event.
        self._handle = None
        if self._stopped:
            return
        self._callback()
        if not self._stopped:
            self._arm(self._period)

    def stop(self) -> None:
        """Stop firing.  Safe to call from inside the callback."""
        self._stopped = True
        handle = self._handle
        if handle is not None:
            self._handle = None
            handle.cancel()


def format_time(seconds: float) -> str:
    """Render virtual seconds as ``h:mm:ss`` for logs and reports."""
    seconds = max(0.0, seconds)
    h, rem = divmod(int(round(seconds)), 3600)
    m, s = divmod(rem, 60)
    return f"{h}:{m:02d}:{s:02d}"


__all__ = [
    "EventHandle",
    "PeriodicTask",
    "SimulationError",
    "Simulator",
    "format_time",
]
