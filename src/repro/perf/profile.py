"""cProfile wrapper: collapsed-stack export and a deterministic summary.

cProfile records a call *graph* (per-function totals plus caller edges),
not full stacks, so the collapsed export emits one line per caller->callee
edge — ``caller;callee <microseconds>`` — plus a single-frame line per
root function's self time.  That two-level format is directly accepted by
flamegraph.pl / speedscope / inferno and is the honest maximum depth the
profiler's data supports.

The text summary is deterministic in structure: rows sort by cumulative
time (descending) with the function name as tiebreaker, paths are reduced
to basenames, and the column layout is fixed — so two profiles of the
same code diff cleanly even though the measured times vary.
"""

from __future__ import annotations

import cProfile
import io
import pstats
from contextlib import contextmanager
from pathlib import PurePath
from typing import Iterator, List, Optional, Tuple

#: Functions shown by :meth:`ProfileSession.text_summary` by default.
DEFAULT_TOP = 25


def _frame_name(func: Tuple[str, int, str]) -> str:
    """``file:line(name)`` with the file reduced to its basename (machine
    independence); builtins render as ``~(name)`` -> ``<name>``."""
    filename, lineno, name = func
    if filename == "~":
        return f"<{name.strip('<>')}>"
    return f"{PurePath(filename).name}:{lineno}({name})"


class ProfileSession:
    """One cProfile capture with flamegraph-ready exports.

        session = ProfileSession()
        session.start()
        ...work...
        session.stop()
        persist.write_text(path, session.collapsed_stacks())
    """

    def __init__(self) -> None:
        self._profile = cProfile.Profile()
        self._stats: Optional[pstats.Stats] = None
        self._running = False

    @property
    def stopped(self) -> bool:
        return self._stats is not None

    def start(self) -> None:
        if self._running:
            raise RuntimeError("profile session already running")
        self._running = True
        self._profile.enable()

    def stop(self) -> None:
        if not self._running:
            raise RuntimeError("profile session not running")
        self._profile.disable()
        self._running = False
        self._stats = pstats.Stats(self._profile, stream=io.StringIO())

    def _require_stats(self) -> pstats.Stats:
        if self._stats is None:
            raise RuntimeError("profile session must be stopped first")
        return self._stats

    def collapsed_stacks(self) -> str:
        """Flamegraph-collapsed lines, integer microseconds, sorted for
        determinism of structure.  Zero-weight edges are dropped."""
        stats = self._require_stats()
        lines: List[str] = []
        for func, (_cc, _nc, tt, _ct, callers) in stats.stats.items():
            callee = _frame_name(func)
            if not callers:
                weight = int(round(tt * 1e6))
                if weight > 0:
                    lines.append(f"{callee} {weight}")
                continue
            for caller, (_ccc, _cnc, _ctt, cct) in callers.items():
                weight = int(round(cct * 1e6))
                if weight > 0:
                    lines.append(f"{_frame_name(caller)};{callee} {weight}")
        lines.sort()
        return "\n".join(lines) + ("\n" if lines else "")

    def text_summary(self, top: int = DEFAULT_TOP) -> str:
        """Top ``top`` functions by cumulative time, fixed columns."""
        stats = self._require_stats()
        rows = []
        for func, (cc, nc, tt, ct, _callers) in stats.stats.items():
            rows.append((ct, tt, nc, cc, _frame_name(func)))
        rows.sort(key=lambda r: (-r[0], r[4]))
        lines = [
            f"profile: {len(rows)} functions, "
            f"{sum(r[1] for r in rows):.3f}s total self time",
            "",
            f"{'cumtime':>10s} {'selftime':>10s} {'calls':>10s}  function",
            "-" * 72,
        ]
        for ct, tt, nc, cc, name in rows[: max(0, top)]:
            calls = str(nc) if nc == cc else f"{nc}/{cc}"
            lines.append(f"{ct:10.4f} {tt:10.4f} {calls:>10s}  {name}")
        return "\n".join(lines) + "\n"


@contextmanager
def profiling(out_path: Optional[str] = None) -> Iterator[ProfileSession]:
    """Profile the ``with`` block; optionally write collapsed stacks to
    ``out_path`` on exit.

        with profiling("run.folded") as session:
            run_to_completion(manager)
        print(session.text_summary())
    """
    session = ProfileSession()
    session.start()
    try:
        yield session
    finally:
        session.stop()
        if out_path is not None:
            # Imported here: repro.persist imports the model layers, which
            # import repro.perf.instrument, which runs this package's __init__.
            from repro.persist import write_text

            write_text(out_path, session.collapsed_stacks())


__all__ = ["DEFAULT_TOP", "ProfileSession", "profiling"]
