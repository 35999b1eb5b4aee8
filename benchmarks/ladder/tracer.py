"""Span tracer that wraps the repo's public callables from the outside.

Nothing under ``src/`` knows about this module.  A traced run names the
callables to wrap as dotted paths (``package.module:Class.method`` or
``package.module:function``), the tracer swaps each attribute for a timing
wrapper, and restores the originals when the run ends.  A path that no
longer resolves raises :class:`TraceTargetError` naming it, so a rename in
``src/`` fails the traced run loudly while untraced runs never import
this file's targets at all.

Two wrapper kinds share one self-time mechanism (a per-thread "time spent
in wrapped children" cell):

* ``span`` keeps a record per call (name, start, end, parent, run id,
  small annotations) for percentiles and the Chrome trace;
* ``acc`` keeps only a call count, summed inclusive time and summed self
  time.  It is for callables averaging under ~20 us, where a record per
  call would cost more than the call;
* ``sampled`` is ``acc`` timing one call in eight, for callables of a few
  microseconds called hundreds of thousands of times a pass.
"""

from __future__ import annotations

import importlib
import json
import threading
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple


#: A ``sampled`` wrapper times one call in this many (a power of two).
SAMPLE_EVERY = 8


class TraceTargetError(RuntimeError):
    """A trace target's dotted path does not resolve to a callable."""


class Span:
    __slots__ = ("name", "start", "end", "self_ns", "parent", "tid", "run", "args")

    def __init__(self, name, start, parent, tid, run):
        self.name = name
        self.start = start
        self.end = start
        self.self_ns = 0
        self.parent = parent          # the enclosing Span on this thread, or None
        self.tid = tid
        self.run = run                # pass number the span belongs to
        self.args = None

    @property
    def duration_ns(self) -> int:
        return self.end - self.start


class _State:
    """Where the open frame's bookkeeping lives."""

    __slots__ = ("child_ns", "parent")

    def __init__(self):
        self.child_ns = 0             # wrapped time inside the open frame
        self.parent = None            # the open span, or None


class _ThreadState(threading.local):
    """:class:`_State`, one per thread (slower to reach)."""

    def __init__(self):
        self.child_ns = 0
        self.parent = None


class Acc:
    """Call count plus inclusive and self nanoseconds of one callable."""

    __slots__ = ("name", "calls", "total_ns", "self_ns")

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


def resolve(path: str) -> Tuple[object, str, Callable]:
    """``(owner, attribute, callable)`` for ``module:attr[.attr]``."""
    module_name, _, attr_path = path.partition(":")
    if not module_name or not attr_path:
        raise TraceTargetError(f"trace target {path!r} is not module:attr")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise TraceTargetError(
            f"trace target {path!r} does not resolve: {exc}"
        ) from exc
    parts = attr_path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise TraceTargetError(
                f"trace target {path!r} does not resolve: no {part!r}"
            )
    # Look in the owner's own namespace so classmethod/staticmethod
    # wrappers are seen (and restored) as they were declared.
    raw = vars(owner).get(parts[-1], getattr(owner, parts[-1], None))
    func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
    if not callable(func):
        raise TraceTargetError(
            f"trace target {path!r} does not resolve to a callable"
        )
    return owner, parts[-1], raw


class Tracer:
    """Installs wrappers, collects spans and accumulators per pass."""

    def __init__(self, *, threaded: bool):
        """``threaded`` when wrapped callables run on several threads (the
        service workloads); only ``span`` wrappers are safe there."""
        self.spans: List[Span] = []
        self.accs: Dict[str, Acc] = {}
        self.run = 0
        self._local = _ThreadState() if threaded else _State()
        self._installed: List[Tuple[object, str, object]] = []

    # -- manual spans (the benchmark's own regions) ---------------------

    def begin(self, name: str):
        local = self._local
        span = Span(name, perf_counter_ns(), local.parent,
                    threading.get_ident(), self.run)
        # list.append is atomic, so server and worker threads share the list.
        self.spans.append(span)
        token = (span, local.parent, local.child_ns)
        local.parent = span
        local.child_ns = 0
        return token

    def end(self, token, args: Optional[dict] = None) -> Span:
        span, parent, saved_child = token
        local = self._local
        span.end = perf_counter_ns()
        duration = span.end - span.start
        span.self_ns = duration - local.child_ns
        span.args = args
        local.parent = parent
        local.child_ns = saved_child + duration
        return span

    def add_span(self, name: str, start: int, end: int, args=None) -> None:
        """A span observed rather than timed (a worker slot's sleep)."""
        span = Span(name, start, None, threading.get_ident(), self.run)
        span.end = end
        span.self_ns = end - start
        span.args = args
        self.spans.append(span)

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, func, name, annotate):
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            token = begin(name)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                end(token, {"error": type(exc).__name__,
                            "status": getattr(exc, "status", None)})
                raise
            end(token, annotate(args, kwargs, result) if annotate else None)
            return result

        return traced

    def _acc_wrapper(self, func, name):
        acc = self.accs.setdefault(name, Acc(name))
        local = self._local
        now = perf_counter_ns

        # No try/finally: these callables run hundreds of thousands of times
        # a pass and the handler would cost more than they do.  A call that
        # raises is not counted, and the run it belongs to fails anyway.
        def counted(*args, **kwargs):
            saved = local.child_ns
            local.child_ns = 0
            start = now()
            result = func(*args, **kwargs)
            duration = now() - start
            acc.calls += 1
            acc.total_ns += duration
            acc.self_ns += duration - local.child_ns
            local.child_ns = saved + duration
            return result

        return counted

    def _sampled_wrapper(self, func, name):
        """``acc`` for callables so cheap (a few us) that even two clock
        reads per call would distort them: every call is counted, one in
        ``SAMPLE_EVERY`` is timed and stands for the rest."""
        acc = self.accs.setdefault(name, Acc(name))
        local = self._local
        now = perf_counter_ns
        every = SAMPLE_EVERY
        mask = every - 1

        def counted(*args, **kwargs):
            acc.calls += 1
            if acc.calls & mask:
                return func(*args, **kwargs)
            saved = local.child_ns
            local.child_ns = 0
            start = now()
            result = func(*args, **kwargs)
            duration = (now() - start) * every
            acc.total_ns += duration
            acc.self_ns += duration - local.child_ns
            local.child_ns = saved + duration
            return result

        return counted

    def install(self, targets) -> None:
        """Wrap every target; ``targets`` holds ``(path, name, kind,
        annotate)`` tuples with kind ``"span"``, ``"acc"`` or ``"sampled"``.
        Every path is resolved before any is swapped, so a stale one changes
        nothing."""
        resolved = [(resolve(path), name, kind, annotate)
                    for path, name, kind, annotate in targets]
        for (owner, attr, raw), name, kind, annotate in resolved:
            func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            if kind == "acc":
                wrapped = self._acc_wrapper(func, name)
            elif kind == "sampled":
                wrapped = self._sampled_wrapper(func, name)
            else:
                wrapped = self._span_wrapper(func, name, annotate)
            wrapped.__wrapped__ = func
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(wrapped)
            self._installed.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    # -- per-pass bookkeeping ----------------------------------------------

    def start_pass(self, run: int) -> None:
        self.run = run

    def snapshot_accs(self) -> Dict[str, Tuple[int, int, int]]:
        return {n: (a.calls, a.total_ns, a.self_ns) for n, a in self.accs.items()}

    # -- export --------------------------------------------------------------

    def write_chrome_trace(self, path, *, process_name: str) -> None:
        """Chrome trace-event JSON (open in Perfetto or chrome://tracing)."""
        origin = min((s.start for s in self.spans), default=0)
        tids = {}
        ids = {id(span): index for index, span in enumerate(self.spans)}
        events = [{"ph": "M", "pid": 1, "tid": 0, "name": "process_name",
                   "args": {"name": process_name}}]
        for index, span in enumerate(self.spans):
            tid = tids.setdefault(span.tid, len(tids))
            args = {"id": index, "parent": ids.get(id(span.parent), -1),
                    "run": span.run,
                    "self_us": span.self_ns / 1e3}
            if span.args:
                args.update(span.args)
            events.append({
                "ph": "X", "pid": 1, "tid": tid, "name": span.name,
                "cat": span.name.rsplit(".", 1)[0],
                "ts": (span.start - origin) / 1e3,
                "dur": (span.end - span.start) / 1e3,
                "args": args,
            })
        for name, acc in sorted(self.accs.items()):
            events.append({"ph": "M", "pid": 1, "tid": 0, "name": f"acc:{name}",
                           "args": {"calls": acc.calls,
                                    "total_us": acc.total_ns / 1e3,
                                    "self_us": acc.self_ns / 1e3}})
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def union_ns(intervals: List[Tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    covered = 0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered
