"""Hierarchical phase timers, counters, and latency recorders.

The collector answers "where does wall time go?" for one measured span —
a ``repro perf run``.  Three instrument families:

* **phases** — nested named spans (``with perf.phase("simulate"): ...``).
  A phase's key is its slash-joined path from the outermost open phase
  (``run/simulate/control.tick``), so the snapshot is a tree flattened to
  paths: per-path total seconds and entry count.
* **timers** — latency samples (``perf.record("control.tick", dt)``):
  count, sum, min/max, and p50/p95 from a bounded sample reservoir.
* **counters / maxima** — monotone event counts
  (``perf.count("simkit.events_dispatched", n)``) and high-water marks
  (``perf.maximum("simkit.heap_peak", depth)``).

Disabled cost: the module-level :data:`COLLECTOR` starts as :data:`NULL`,
whose ``enabled`` attribute is ``False``.  Hot paths hoist the lookup and
pay exactly one attribute check per *batch* of work, never per event:

    perf = instrument.COLLECTOR
    if perf.enabled:
        perf.count("simkit.events_dispatched", fired)

Collection only ever reads the wall clock — it never touches virtual
time, RNG streams, metrics, or traces, so enabling it cannot perturb a
simulation's results (``tests/test_perf_cli.py`` asserts byte-identical
traces either way).
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

#: Per-timer latency samples kept for percentile estimation; beyond this
#: the count/sum/min/max stay exact and percentiles describe the first
#: ``TIMER_RESERVOIR`` observations.
TIMER_RESERVOIR = 65536


class PerfError(ValueError):
    """Raised on invalid collector use (e.g. exiting an unopened phase)."""


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted non-empty list."""
    if not sorted_values:
        return math.nan
    idx = min(len(sorted_values) - 1, max(0, math.ceil(q * len(sorted_values)) - 1))
    return sorted_values[idx]


class _TimerStat:
    """Latency accumulator for one named timer."""

    __slots__ = ("count", "total", "min", "max", "samples")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = 0.0
        self.samples: List[float] = []

    def add(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds
        if len(self.samples) < TIMER_RESERVOIR:
            self.samples.append(seconds)

    def snapshot(self) -> Dict[str, float]:
        ordered = sorted(self.samples)
        return {
            "count": self.count,
            "sum_seconds": self.total,
            "min_seconds": self.min if self.count else 0.0,
            "max_seconds": self.max,
            "p50_seconds": _percentile(ordered, 0.50) if ordered else 0.0,
            "p95_seconds": _percentile(ordered, 0.95) if ordered else 0.0,
        }


class _Phase:
    """Reusable context manager for one ``PerfCollector.phase`` entry."""

    __slots__ = ("_collector", "_name", "_start")

    def __init__(self, collector: "PerfCollector", name: str):
        self._collector = collector
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_Phase":
        self._collector._push(self._name)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *_exc) -> None:
        elapsed = time.perf_counter() - self._start
        self._collector._pop(self._name, elapsed)


class _NullPhase:
    """Shared no-op phase for the disabled collector."""

    __slots__ = ()

    def __enter__(self) -> "_NullPhase":
        return self

    def __exit__(self, *_exc) -> None:
        pass


_NULL_PHASE = _NullPhase()


class NullCollector:
    """The disabled collector: one shared instance, every method a no-op."""

    enabled = False

    def phase(self, name: str) -> _NullPhase:
        return _NULL_PHASE

    def count(self, name: str, amount: float = 1.0) -> None:
        pass

    def maximum(self, name: str, value: float) -> None:
        pass

    def record(self, name: str, seconds: float) -> None:
        pass

    def snapshot(self) -> Dict[str, Dict]:
        return {"phases": {}, "timers": {}, "counters": {}, "maxima": {}}


class PerfCollector:
    """Accumulates phases/timers/counters for one measured span."""

    enabled = True

    def __init__(self) -> None:
        #: slash-joined phase path -> [total seconds, entry count]
        self._phases: Dict[str, List[float]] = {}
        self._stack: List[str] = []
        self._timers: Dict[str, _TimerStat] = {}
        self._counters: Dict[str, float] = {}
        self._maxima: Dict[str, float] = {}

    # -- phases --------------------------------------------------------

    def phase(self, name: str) -> _Phase:
        """Context manager timing a named span, nested under any open
        phases.  Entering the same name at the same depth accumulates."""
        if not name or "/" in name:
            raise PerfError(f"invalid phase name {name!r}")
        return _Phase(self, name)

    def _push(self, name: str) -> None:
        self._stack.append(name)

    def _pop(self, name: str, elapsed: float) -> None:
        if not self._stack or self._stack[-1] != name:
            raise PerfError(f"phase stack corrupt: closing {name!r}, "
                            f"stack {self._stack!r}")
        path = "/".join(self._stack)
        self._stack.pop()
        stat = self._phases.get(path)
        if stat is None:
            self._phases[path] = [elapsed, 1]
        else:
            stat[0] += elapsed
            stat[1] += 1

    # -- scalars -------------------------------------------------------

    def count(self, name: str, amount: float = 1.0) -> None:
        self._counters[name] = self._counters.get(name, 0.0) + amount

    def maximum(self, name: str, value: float) -> None:
        current = self._maxima.get(name)
        if current is None or value > current:
            self._maxima[name] = value

    def record(self, name: str, seconds: float) -> None:
        stat = self._timers.get(name)
        if stat is None:
            stat = self._timers[name] = _TimerStat()
        stat.add(seconds)

    # -- output --------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict]:
        """JSON-serializable dump: sorted keys so two identical runs emit
        structurally identical documents."""
        return {
            "phases": {
                path: {"seconds": stat[0], "count": int(stat[1])}
                for path, stat in sorted(self._phases.items())
            },
            "timers": {
                name: stat.snapshot()
                for name, stat in sorted(self._timers.items())
            },
            "counters": dict(sorted(self._counters.items())),
            "maxima": dict(sorted(self._maxima.items())),
        }


#: The shared no-op instance (identity-comparable: ``COLLECTOR is NULL``).
NULL = NullCollector()

#: The active collector, read directly by instrumented hot paths.
COLLECTOR = NULL


def install(collector) -> object:
    """Make ``collector`` the active collector; returns the previous one.
    Passing ``None`` disables collection."""
    global COLLECTOR
    previous = COLLECTOR
    COLLECTOR = collector if collector is not None else NULL
    return previous


@contextmanager
def collecting(
    collector: Optional[PerfCollector] = None,
) -> Iterator[PerfCollector]:
    """Collect inside the ``with`` block; restores the previous collector
    on exit.

        with instrument.collecting() as perf:
            run_to_completion(manager)
        print(render_snapshot(perf.snapshot()))
    """
    perf = collector if collector is not None else PerfCollector()
    previous = install(perf)
    try:
        yield perf
    finally:
        install(previous)


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.1f}us"


def render_snapshot(snapshot: Dict[str, Dict], *, wall_seconds: Optional[float] = None) -> str:
    """Deterministic text rendering of a collector snapshot: phase tree
    (indented by depth, with percent-of-wall when the wall time is known),
    then timers, counters, and maxima."""
    lines: List[str] = []
    phases = snapshot.get("phases", {})
    if phases:
        header = "phase breakdown"
        if wall_seconds is not None:
            header += f" (total wall {_fmt_seconds(wall_seconds)})"
        lines.append(header + ":")
        top_total = 0.0
        for path in sorted(phases):
            info = phases[path]
            depth = path.count("/")
            name = path.rsplit("/", 1)[-1]
            if depth == 0:
                top_total += info["seconds"]
            pct = ""
            if wall_seconds:
                pct = f"  {100.0 * info['seconds'] / wall_seconds:5.1f}%"
            lines.append(
                f"  {'  ' * depth}{name:<24s} {_fmt_seconds(info['seconds']):>10s}"
                f"{pct}  x{info['count']}"
            )
        if wall_seconds:
            lines.append(
                f"  (top-level phases sum to {_fmt_seconds(top_total)} = "
                f"{100.0 * top_total / wall_seconds:.1f}% of wall)"
            )
    timers = snapshot.get("timers", {})
    if timers:
        lines.append("timers:")
        for name in sorted(timers):
            t = timers[name]
            lines.append(
                f"  {name:<26s} n={t['count']:<8d} "
                f"p50 {_fmt_seconds(t['p50_seconds']):>9s}  "
                f"p95 {_fmt_seconds(t['p95_seconds']):>9s}  "
                f"max {_fmt_seconds(t['max_seconds']):>9s}  "
                f"sum {_fmt_seconds(t['sum_seconds']):>9s}"
            )
    counters = snapshot.get("counters", {})
    if counters:
        lines.append("counters:")
        for name in sorted(counters):
            lines.append(f"  {name:<34s} {counters[name]:>14.0f}")
    maxima = snapshot.get("maxima", {})
    if maxima:
        lines.append("maxima:")
        for name in sorted(maxima):
            lines.append(f"  {name:<34s} {maxima[name]:>14.0f}")
    if not lines:
        return "perf: nothing collected\n"
    return "\n".join(lines) + "\n"


__all__ = [
    "COLLECTOR",
    "NULL",
    "NullCollector",
    "PerfCollector",
    "PerfError",
    "TIMER_RESERVOIR",
    "collecting",
    "install",
    "render_snapshot",
]
