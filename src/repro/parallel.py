"""Process-pool fan-out for embarrassingly parallel simulation units.

Model building (every ``(allocation, rep)`` C(p, a) simulation) and
experiment sweeps (every per-seed replication) are independent units of
work: no shared mutable state, deterministic given their own RNG
substream.  This module gives them one executor abstraction:

* ``parallel_map(fn, items)`` — order-preserving map over a process pool,
  falling back to a plain serial loop when one worker is requested, the
  item count is tiny, or the platform cannot spawn processes (sandboxes).
* Worker count resolution: explicit ``jobs=`` argument wins, then the
  ``REPRO_JOBS`` environment variable, then serial.  ``REPRO_JOBS=0`` (or
  ``auto``) means "use every core".

Determinism is the caller's contract: units must carry their own seed
(see :func:`repro.simkit.random.derive_seed`) so results are identical
at any worker count.  Telemetry caveat: counters incremented inside
worker processes stay in those processes — callers that need aggregate
counts must count results on the parent side.
"""

from __future__ import annotations

import os
import warnings
from typing import Callable, List, Optional, Sequence, TypeVar

from repro.telemetry import metrics as _metrics

T = TypeVar("T")
R = TypeVar("R")

#: Environment variable controlling the default worker count.
JOBS_ENV = "REPRO_JOBS"

_UNITS = _metrics.REGISTRY.counter(
    "repro_parallel_units_total",
    "Work units executed by the parallel executor",
    labelnames=("mode",),
)
_FALLBACKS = _metrics.REGISTRY.counter(
    "repro_parallel_pool_fallbacks_total",
    "Process-pool failures that fell back to serial execution",
)


class ParallelError(ValueError):
    """Raised for invalid executor configuration."""


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a worker count: explicit ``jobs`` > ``REPRO_JOBS`` > 1.

    ``0`` or ``"auto"`` (env) selects ``os.cpu_count()``; negative values
    are rejected.  The result is always >= 1.
    """
    if jobs is None:
        raw = os.environ.get(JOBS_ENV, "").strip()
        if not raw:
            return 1
        if raw.lower() == "auto":
            jobs = 0
        else:
            try:
                jobs = int(raw)
            except ValueError:
                raise ParallelError(
                    f"{JOBS_ENV}={raw!r} is not an integer (or 'auto')"
                ) from None
    if jobs < 0:
        raise ParallelError(f"jobs must be >= 0, got {jobs!r}")
    if jobs == 0:
        jobs = os.cpu_count() or 1
    return max(1, int(jobs))


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    *,
    jobs: Optional[int] = None,
) -> List[R]:
    """Apply ``fn`` to every item, preserving order.

    With one worker (the default) this is a serial loop; with more it
    fans out over a process pool.  ``fn`` and the items must be picklable
    in the pool case.  Pool start-up failures (restricted sandboxes,
    missing semaphores) degrade to the serial loop with a warning rather
    than crashing — results are identical either way.
    """
    workers = resolve_jobs(jobs)
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        _UNITS.labels(mode="serial").inc(len(items))
        return [fn(item) for item in items]
    try:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(workers, len(items))
        ) as pool:
            results = list(pool.map(fn, items))
        _UNITS.labels(mode="process").inc(len(items))
        return results
    except (OSError, ImportError, PermissionError) as exc:
        _FALLBACKS.inc()
        warnings.warn(
            f"process pool unavailable ({exc}); running {len(items)} units "
            "serially",
            RuntimeWarning,
            stacklevel=2,
        )
        _UNITS.labels(mode="serial").inc(len(items))
        return [fn(item) for item in items]


__all__ = ["JOBS_ENV", "ParallelError", "parallel_map", "resolve_jobs"]
