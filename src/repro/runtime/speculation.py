"""Speculative execution of straggler tasks (paper §4.4's extra knob).

The paper lists "the aggressiveness of mitigating stragglers [Mantri]"
among the additional control knobs that could broaden what Jockey can do
to meet SLOs.  This module provides the knob: when a running task has been
executing far longer than its stage's typical duration, the job manager
launches a duplicate attempt on a different machine; the first attempt to
finish wins and the loser is cancelled (outcome ``superseded``).

Duplicates only ever use capacity the job already holds but cannot fill
with ready tasks, so speculation never displaces first-attempt work.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.settable import Count, NonNegative, Positive, check, refuse
from repro.telemetry import metrics as _metrics
from repro.telemetry import trace as _trace

_SCANS = _metrics.REGISTRY.counter(
    "repro_runtime_speculation_scans_total", "Straggler scans performed"
)
_STRAGGLERS = _metrics.REGISTRY.counter(
    "repro_runtime_stragglers_total", "Tasks flagged as stragglers"
)
_DUPLICATES = _metrics.REGISTRY.counter(
    "repro_runtime_duplicates_total", "Duplicate attempts launched"
)


@dataclass(frozen=True)
class SpeculationScan:
    """Outcome of one straggler scan — the per-lifecycle visibility the
    task-cloning literature says speculation policies need to be debugged."""

    running: int
    budget: int
    stragglers: int
    launched: int


def record_scan(ts: float, job: str, scan: SpeculationScan) -> None:
    """Count the scan and, when tracing, emit a ``speculation.scan`` event
    (only for scans that actually found stragglers, to keep traces lean).

    Scans fire every check period for every speculating job, so the
    counters honor the registry's advisory hot-path flag."""
    if _metrics.REGISTRY.enabled:
        _SCANS.inc()
        if scan.stragglers:
            _STRAGGLERS.inc(scan.stragglers)
        if scan.launched:
            _DUPLICATES.inc(scan.launched)
    rec = _trace.RECORDER
    if rec.enabled and scan.stragglers:
        rec.emit(
            ts, "speculation.scan",
            job=job,
            running=scan.running,
            budget=scan.budget,
            stragglers=scan.stragglers,
            launched=scan.launched,
        )


@dataclass(frozen=True)
class SpeculationConfig:
    """Straggler-mitigation policy knobs."""

    #: How often to scan running tasks for stragglers.
    check_period_seconds: Positive = 30.0
    #: An attempt is a straggler once it has run ``slowdown_factor`` times
    #: the stage's observed median duration.
    slowdown_factor: Positive = 2.0
    #: Never speculate on tasks younger than this (cheap tasks finish
    #: before the duplicate would help).
    min_task_seconds: NonNegative = 20.0
    #: Completed tasks needed in a stage before its median is trusted.
    min_observations: Count = 3
    #: At most this fraction of the current grant may run duplicates.
    max_duplicate_fraction: Positive = 0.2

    def __post_init__(self):
        check(self, ValueError)
        if self.slowdown_factor <= 1:
            refuse(self, "slowdown_factor", "> 1", ValueError)
        if self.max_duplicate_fraction > 1:
            refuse(self, "max_duplicate_fraction", "in (0, 1]", ValueError)


__all__ = ["SpeculationConfig", "SpeculationScan", "record_scan"]
