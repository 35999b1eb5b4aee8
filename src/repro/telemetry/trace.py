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
from typing import Dict, Iterator, List, Optional


class TraceEvent:
    """One structured event at a virtual-time instant."""

    __slots__ = ("ts", "kind", "fields")

    def __init__(self, ts: float, kind: str, fields: Optional[Dict[str, object]] = None):
        self.ts = float(ts)
        self.kind = kind
        self.fields = fields if fields is not None else {}

    def to_dict(self) -> Dict[str, object]:
        return {"ts": self.ts, "kind": self.kind, "fields": self.fields}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TraceEvent":
        return cls(float(data["ts"]), str(data["kind"]), dict(data.get("fields") or {}))

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
    of the stack expects only when :meth:`events` / :meth:`iter_events`
    materialize the buffer at export time.
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

    def iter_events(self) -> Iterator[TraceEvent]:
        for ts, kind, fields in self._buffer:
            yield TraceEvent(ts, kind, fields if type(fields) is dict else dict(fields))

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


def disable() -> object:
    """Disable recording; returns the previously active recorder."""
    return install(NULL)


def enabled() -> bool:
    return RECORDER.enabled


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
    "NULL",
    "NullRecorder",
    "RECORDER",
    "TraceEvent",
    "TraceRecorder",
    "capture",
    "disable",
    "enabled",
    "install",
]
