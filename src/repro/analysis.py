"""Trace analysis: what operators look at when a run surprises them.

The paper's operators "monitor critical jobs and are alerted when they fall
behind" (§1); this module provides the post-hoc tooling for that workflow
over recorded :class:`~repro.jobs.trace.RunTrace` objects:

* :func:`utilization_timeline` — running-task count integrated per bucket;
* :func:`stage_gantt` — a text Gantt chart of stage activity spans;
* :func:`critical_path_tasks` — the realized chain of task completions
  that determined the job's latency (each link is the last input to
  become available for the next task);
* :func:`summarize_trace` — a one-screen operational summary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.jobs.dag import EdgeType, JobGraph, one_to_one_range
from repro.jobs.trace import RunTrace, TaskRecord


class AnalysisError(ValueError):
    """Raised for traces the analysis cannot interpret."""


def utilization_timeline(
    trace: RunTrace, *, bucket_seconds: float = 60.0
) -> List[Tuple[float, float]]:
    """Average number of running tasks per time bucket.

    Returns (bucket start, mean concurrency) pairs covering the run.
    """
    if not trace.finished:
        raise AnalysisError("trace has not finished")
    if bucket_seconds <= 0:
        raise AnalysisError("bucket must be positive")
    duration = trace.duration
    if duration <= 0:
        return []
    n = int(duration // bucket_seconds) + 1
    busy = [0.0] * n
    for record in trace.records:
        start = record.start_time - trace.start_time
        end = record.end_time - trace.start_time
        first = int(start // bucket_seconds)
        last = min(int(end // bucket_seconds), n - 1)
        for b in range(first, last + 1):
            lo = max(start, b * bucket_seconds)
            hi = min(end, (b + 1) * bucket_seconds)
            if hi > lo:
                busy[b] += hi - lo
    return [
        (b * bucket_seconds, busy[b] / bucket_seconds) for b in range(n)
    ]


def stage_gantt(trace: RunTrace, *, width: int = 60) -> str:
    """A text Gantt chart: one row per stage, '█' where tasks ran."""
    if not trace.finished:
        raise AnalysisError("trace has not finished")
    duration = max(trace.duration, 1e-9)
    spans: Dict[str, List[Tuple[float, float]]] = {}
    order: List[str] = []
    for record in trace.records:
        if record.stage not in spans:
            spans[record.stage] = []
            order.append(record.stage)
        spans[record.stage].append(
            (
                (record.start_time - trace.start_time) / duration,
                (record.end_time - trace.start_time) / duration,
            )
        )
    name_width = max((len(s) for s in order), default=5)
    lines = []
    for stage in order:
        cells = [" "] * width
        for lo, hi in spans[stage]:
            first = min(int(lo * width), width - 1)
            last = min(int(hi * width), width - 1)
            for i in range(first, last + 1):
                cells[i] = "█"
        lines.append(f"{stage:<{name_width}} |{''.join(cells)}|")
    return "\n".join(lines)


@dataclass(frozen=True)
class CriticalLink:
    """One hop on the realized critical path."""

    stage: str
    index: int
    start_time: float
    end_time: float
    queue_seconds: float


def critical_path_tasks(trace: RunTrace, graph: JobGraph) -> List[CriticalLink]:
    """The realized critical path: walk back from the last-finishing task
    through, at each hop, the input task that finished last.

    Uses only successful attempts.  Returns links in execution order.
    """
    if not trace.finished:
        raise AnalysisError("trace has not finished")
    done: Dict[Tuple[str, int], TaskRecord] = {}
    for record in trace.records:
        if record.succeeded:
            done[(record.stage, record.index)] = record
    if not done:
        raise AnalysisError("trace has no successful tasks")

    def inputs_of(stage: str, index: int) -> List[Tuple[str, int]]:
        result: List[Tuple[str, int]] = []
        for edge in graph.in_edges(stage):
            n_src = graph.stage(edge.src).num_tasks
            if edge.kind is EdgeType.ALL_TO_ALL:
                result.extend((edge.src, j) for j in range(n_src))
            else:
                lo, hi = one_to_one_range(
                    index, graph.stage(stage).num_tasks, n_src
                )
                result.extend((edge.src, j) for j in range(lo, hi + 1))
        return result

    current = max(done.values(), key=lambda r: r.end_time)
    chain = [current]
    while True:
        inputs = inputs_of(current.stage, current.index)
        records = [done[t] for t in inputs if t in done]
        if not records:
            break
        current = max(records, key=lambda r: r.end_time)
        chain.append(current)
    chain.reverse()
    return [
        CriticalLink(
            stage=r.stage,
            index=r.index,
            start_time=r.start_time,
            end_time=r.end_time,
            queue_seconds=r.queue_time,
        )
        for r in chain
    ]


def summarize_trace(trace: RunTrace, graph: Optional[JobGraph] = None) -> str:
    """A one-screen operational summary of a finished run."""
    if not trace.finished:
        raise AnalysisError("trace has not finished")
    ok = trace.successful_records()
    bad = [r for r in trace.records if not r.succeeded]
    lines = [
        f"job {trace.job_name!r}: {trace.duration / 60:.1f} min, "
        f"{trace.total_cpu_seconds() / 3600:.1f} CPU-hours over "
        f"{len(ok)} tasks",
    ]
    if trace.deadline is not None:
        verdict = "met" if trace.met_deadline() else "MISSED"
        lines.append(
            f"  deadline {trace.deadline / 60:.0f} min -> {verdict} "
            f"({100 * trace.duration / trace.deadline:.0f}%)"
        )
    if bad:
        kinds: Dict[str, int] = {}
        for r in bad:
            kinds[r.outcome] = kinds.get(r.outcome, 0) + 1
        wasted = trace.wasted_cpu_seconds()
        lines.append(
            f"  bad attempts: "
            + ", ".join(f"{k}={v}" for k, v in sorted(kinds.items()))
            + f" ({wasted / 3600:.2f} CPU-hours wasted)"
        )
    if trace.allocation_timeline:
        allocations = [a for _t, a in trace.allocation_timeline]
        lines.append(
            f"  allocation start/max/end: {allocations[0]}/"
            f"{max(allocations)}/{allocations[-1]} tokens; "
            f"{100 * trace.spare_fraction():.0f}% of tasks on spare"
        )
    if graph is not None:
        chain = critical_path_tasks(trace, graph)
        path_exec = sum(l.end_time - l.start_time for l in chain)
        path_queue = sum(l.queue_seconds for l in chain)
        lines.append(
            f"  realized critical path: {len(chain)} tasks, "
            f"{path_exec / 60:.1f} min executing + "
            f"{path_queue / 60:.1f} min queued "
            f"({100 * (path_exec + path_queue) / max(trace.duration, 1e-9):.0f}% "
            f"of latency)"
        )
    return "\n".join(lines)


__all__ = [
    "AnalysisError",
    "CriticalLink",
    "critical_path_tasks",
    "stage_gantt",
    "summarize_trace",
    "utilization_timeline",
]
