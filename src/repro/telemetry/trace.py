"""Structured trace recorder: ring-buffered events, near-zero cost when off.

Every instrumented seam emits :class:`TraceEvent` records — a virtual-time
timestamp, a dotted ``kind`` (``task.start``, ``tokens.grant``,
``control.tick``…), and a flat field dict.  Recording is *disabled by
default*: the module-level :data:`RECORDER` starts as a no-op whose
``enabled`` attribute is ``False``, so hot paths pay exactly one attribute
check:

    rec = trace.RECORDER
    if rec.enabled:
        rec.emit(sim.now, "task.start", job=name, stage=stage)

Enable with :func:`install` (or the :func:`capture` context manager, which
restores the previous recorder on exit).  The active recorder keeps the
most recent ``capacity`` events in a ring buffer; overflow drops the oldest
and is counted in ``dropped``.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from typing import Any, Dict, List, Optional

_TASK = {"job": str, "stage": str, "index": int, "attempt": int}
_PLACED = {"machine": int, "spare": bool, "duplicate": bool}
_BANDS = {f"{side}{level}": float for level in (50, 80, 90, 95) for side in ("lo", "hi")}

#: Every event kind an instrumented seam emits, with its fields' types in
#: emit order.  A trace file is checked against this table once, where it
#: is read (:func:`repro.telemetry.export.read_jsonl`); a seam that emits
#: a new kind or field declares it here.
EVENTS: Dict[str, Dict[str, Any]] = {
    "task.queued": _TASK,
    "task.start": {**_TASK, **_PLACED},
    "task.end": {**_TASK, "outcome": str, **_PLACED, "start": float, "end": float},
    "job.allocation": {"job": str, "requested": int, "applied": int},
    "job.complete": {
        "job": str, "duration": float, "tasks": int, "duplicates_launched": int,
        "duplicates_won": int, "deadline": Optional[float], "start": float, "end": float,
    },
    "control.allocation_deficit": {
        "job": str, "requested": int, "applied": int, "deficit": int, "attempt": int,
    },
    "control.allocation_retry": {"job": str, "requested": int, "attempt": int},
    "control.model_refresh": {
        "predictor": str, "table_swapped": bool, "indicator_swapped": bool,
    },
    # The median and the central bands at predict.NOMINAL_LEVELS.
    "control.predict": {"predictor": str, "median": float, **_BANDS},
    # `predictor`, then the TickRecord fields in the order the controller
    # writes them: Chrome files dump the fields unsorted.
    "control.tick": {
        "predictor": str, "tick": int, "phase": str, "raw": int, "smoothed": float,
        "allocation": int, "dead_zone_triggered": bool, "predicted_remaining": float,
        "utility": float, "progress": Optional[float],
    },
    "control.degraded": {"predictor": str, "mode": str, "staleness": float, "allocation": int},
    "speculation.scan": {
        "job": str, "running": int, "budget": int, "stragglers": int, "launched": int,
    },
    "sim.compact": {"pending": int},
    "sim.offline_run": {
        "job": str, "allocation": int, "duration": float, "failures": int,
        "cpu_seconds": float,
    },
    "tokens.capacity": {"capacity": int},
    "tokens.grant": {
        "consumer": str, "total": int, "guaranteed_part": int, "spare_part": int,
        "demand": int,
    },
    "machine.down": {"machine": int, "up": int},
    "machine.up": {"machine": int, "up": int},
    "machine.scripted_kill": {"machine": int, "repair_seconds": float},
    "chaos.rack_failure": {"machines": List[int], "failed": int, "repair_seconds": float},
    "chaos.eviction_storm": {"demand": int},
    "chaos.token_shock": {"requested": int, "seized": int},
    # A list of stage names, or "all".
    "chaos.profile_drift": {"factor": float, "stages": Any},
    "chaos.blackout": {"window": List[float]},
    "chaos.tick_drop": {"tick_time": float},
    "chaos.tick_delay": {"delay": float},
}

#: The fields a trace written by an earlier version may lack; every other
#: declared field is required.  ``control.tick`` gained ``tick`` and
#: ``phase`` when the initial decision got its own event, and
#: ``job.complete`` gained ``deadline`` with the SLO report.
OPTIONAL_FIELDS: Dict[str, tuple] = {
    "control.tick": ("tick", "phase"),
    "job.complete": ("deadline",),
}


class TraceEvent:
    """One structured event at a virtual-time instant."""

    __slots__ = ("ts", "kind", "fields")

    def __init__(self, ts: float, kind: str, fields: Optional[Dict[str, object]] = None):
        self.ts = float(ts)
        self.kind = kind
        self.fields = fields if fields is not None else {}

    def to_dict(self) -> Dict[str, object]:
        return {"ts": self.ts, "kind": self.kind, "fields": self.fields}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceEvent):
            return NotImplemented
        return (self.ts, self.kind, self.fields) == (other.ts, other.kind, other.fields)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceEvent(ts={self.ts:.3f}, kind={self.kind!r}, fields={self.fields!r})"


class NullRecorder:
    """The disabled recorder: one shared instance, every method a no-op."""

    enabled = False
    emitted = 0
    dropped = 0

    @staticmethod
    def raw(item) -> None:
        pass

    def emit(self, ts: float, kind: str, **fields) -> None:
        pass

    def events(self) -> List[TraceEvent]:
        return []

    def clear(self) -> None:
        pass

    def __len__(self) -> int:
        return 0


class TraceRecorder:
    """Ring-buffered recorder keeping the most recent ``capacity`` events.

    The hot path appends a raw ``(ts, kind, fields)`` tuple;
    :class:`TraceEvent` objects are only materialized on :meth:`events` —
    emit cost is what every instrumented seam pays, materialization happens
    once per run at export time.

    The *hottest* seams (per-task lifecycle, token grants) bypass the
    :meth:`emit` method frame entirely via the pre-bound :attr:`raw`
    append, bumping :attr:`emitted` themselves:

        rec = trace.RECORDER
        if rec.enabled:
            rec.emitted += 1
            rec.raw((ts, "task.start", {"job": job, "stage": stage}))

    Both paths store the identical tuple shape.  ``fields`` in a raw tuple
    may also be a tuple of ``(key, value)`` pairs — cheaper to build than a
    dict literal on per-event paths — and is turned into the dict the rest
    of the stack expects only when :meth:`events` materializes the buffer
    at export time.
    """

    __slots__ = ("capacity", "emitted", "_buffer", "raw")

    enabled = True

    def __init__(self, capacity: int = 65536):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.capacity = capacity
        self._buffer: deque = deque(maxlen=capacity)
        self.emitted = 0
        #: Bound ``deque.append`` — the zero-frame fast path for hot seams.
        self.raw = self._buffer.append

    def emit(self, ts: float, kind: str, **fields) -> None:
        self.emitted += 1
        self._buffer.append((ts, kind, fields))

    @property
    def dropped(self) -> int:
        """Events lost to ring-buffer overflow."""
        return max(0, self.emitted - len(self._buffer))

    def events(self) -> List[TraceEvent]:
        return [
            TraceEvent(ts, kind, fields if type(fields) is dict else dict(fields))
            for ts, kind, fields in self._buffer
        ]

    def clear(self) -> None:
        self._buffer.clear()
        self.emitted = 0

    def __len__(self) -> int:
        return len(self._buffer)

    def __bool__(self) -> bool:
        # A recorder is not a container: an *empty* recorder must still be
        # truthy, or `if recorder:` guards silently skip installation.
        return True


#: The shared no-op instance (identity-comparable: ``RECORDER is NULL``).
NULL = NullRecorder()

#: The active recorder, read directly by instrumented hot paths.
RECORDER = NULL


def install(recorder) -> object:
    """Make ``recorder`` the active recorder; returns the previous one.
    Passing ``None`` disables recording."""
    global RECORDER
    previous = RECORDER
    RECORDER = recorder if recorder is not None else NULL
    return previous


@contextmanager
def capture(capacity: int = 65536):
    """Record everything inside the ``with`` block into a fresh
    :class:`TraceRecorder`; restores the previous recorder on exit.

        with trace.capture() as rec:
            run_to_completion(manager)
        export.write_chrome_trace(rec.events(), "timeline.json")
    """
    rec = TraceRecorder(capacity)
    previous = install(rec)
    try:
        yield rec
    finally:
        install(previous)


__all__ = [
    "EVENTS",
    "NULL",
    "OPTIONAL_FIELDS",
    "NullRecorder",
    "RECORDER",
    "TraceEvent",
    "TraceRecorder",
    "capture",
    "install",
]
