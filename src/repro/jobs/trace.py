"""Run traces: the record of one execution of a job.

A :class:`RunTrace` is produced by the cluster runtime and consumed by
:mod:`repro.jobs.profiles` to build the statistics Jockey trains on (the
paper uses "a single production run" the same way).  It also backs the
evaluation metrics (aggregate CPU time, queueing quantiles, oracle
allocation), and :func:`critical_path_tasks` walks the chain of tasks that
set a run's latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.jobs.dag import EdgeType, JobGraph, one_to_one_range


class TraceError(ValueError):
    """Raised for malformed traces."""


OUTCOME_OK = "ok"
OUTCOME_FAILED = "failed"
OUTCOME_EVICTED = "evicted"
#: A speculative duplicate cancelled because its sibling finished first.
OUTCOME_SUPERSEDED = "superseded"
#: Every outcome a :class:`TaskRecord` may carry.
OUTCOMES = (OUTCOME_OK, OUTCOME_FAILED, OUTCOME_EVICTED, OUTCOME_SUPERSEDED)


class _TaskRecordFields(NamedTuple):
    stage: str
    index: int
    attempt: int
    ready_time: float
    start_time: float
    end_time: float
    outcome: str = OUTCOME_OK
    machine: Optional[int] = None
    used_spare_token: bool = False


_new_tuple = tuple.__new__


class TaskRecord(_TaskRecordFields):
    """One attempt of one task (vertex).

    An immutable tuple: a run builds one per attempt (tens of thousands a
    sweep) and ships traces across process pools, so the record is a
    tuple checked once in ``__new__``.  Every way to build one —
    positional, keyword, ``_make`` / ``_replace``, unpickling — goes
    through that check."""

    __slots__ = ()

    def __new__(
        cls,
        stage: str,
        index: int,
        attempt: int,
        ready_time: float,
        start_time: float,
        end_time: float,
        outcome: str = OUTCOME_OK,
        machine: Optional[int] = None,
        used_spare_token: bool = False,
    ) -> "TaskRecord":
        if outcome not in OUTCOMES:
            raise TraceError(f"unknown outcome {outcome!r}")
        if not ready_time <= start_time <= end_time:
            raise TraceError(
                f"non-monotonic times for {stage}[{index}]: "
                f"ready={ready_time}, start={start_time}, "
                f"end={end_time}"
            )
        if attempt < 0:
            raise TraceError(f"negative attempt {attempt}")
        return _new_tuple(cls, (
            stage, index, attempt, ready_time, start_time, end_time,
            outcome, machine, used_spare_token,
        ))

    @classmethod
    def _make(cls, iterable) -> "TaskRecord":
        return cls(*iterable)

    @property
    def queue_time(self) -> float:
        """Seconds spent waiting between readiness and execution."""
        return self.start_time - self.ready_time

    @property
    def run_time(self) -> float:
        """Seconds spent holding a token."""
        return self.end_time - self.start_time

    @property
    def succeeded(self) -> bool:
        return self.outcome == OUTCOME_OK


class OutcomeTally(NamedTuple):
    """What :meth:`RunTrace.tally` counts in one read of the records."""

    #: Aggregate token-holding time of successful attempts.
    cpu_seconds: float
    #: Fraction of successful attempts that ran on spare tokens.
    spare_fraction: float
    evictions: int
    failures: int


@dataclass
class RunTrace:
    """Everything recorded about one run of a job."""

    job_name: str
    start_time: float = 0.0
    end_time: Optional[float] = None
    records: List[TaskRecord] = field(default_factory=list)
    #: (time, guaranteed allocation requested by the policy) step samples.
    allocation_timeline: List[Tuple[float, int]] = field(default_factory=list)
    #: (time, number of running tasks) step samples.
    running_timeline: List[Tuple[float, int]] = field(default_factory=list)
    deadline: Optional[float] = None
    metadata: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def add(self, record: TaskRecord) -> None:
        self.records.append(record)

    def mark_allocation(self, time: float, allocation: int) -> None:
        if self.allocation_timeline and self.allocation_timeline[-1][1] == allocation:
            return
        self.allocation_timeline.append((time, allocation))

    def mark_running(self, time: float, running: int) -> None:
        if self.running_timeline and self.running_timeline[-1][1] == running:
            return
        self.running_timeline.append((time, running))

    # ------------------------------------------------------------------
    # Derived statistics
    # ------------------------------------------------------------------

    @property
    def duration(self) -> float:
        """Job completion latency in seconds."""
        if self.end_time is None:
            raise TraceError(f"job {self.job_name!r} has not finished")
        return self.end_time - self.start_time

    @property
    def finished(self) -> bool:
        return self.end_time is not None

    def met_deadline(self) -> bool:
        if self.deadline is None:
            raise TraceError("trace has no deadline")
        return self.duration <= self.deadline

    def successful_records(self) -> List[TaskRecord]:
        return [r for r in self.records if r.succeeded]

    def tally(self) -> OutcomeTally:
        """CPU seconds, spare fraction, evictions and failures, in one read
        of the records."""
        ok_run_times: List[float] = []
        spare = evictions = failures = 0
        for r in self.records:
            outcome = r.outcome
            if outcome == OUTCOME_OK:
                ok_run_times.append(r.end_time - r.start_time)
                if r.used_spare_token:
                    spare += 1
            elif outcome == OUTCOME_EVICTED:
                evictions += 1
            elif outcome == OUTCOME_FAILED:
                failures += 1
        return OutcomeTally(
            sum(ok_run_times),
            spare / len(ok_run_times) if ok_run_times else 0.0,
            evictions,
            failures,
        )

    def total_cpu_seconds(self) -> float:
        """Aggregate token-holding time of *successful* attempts — the
        paper's 'total work' / aggregate CPU time ``T``."""
        return self.tally().cpu_seconds

    def wasted_cpu_seconds(self) -> float:
        """Token-holding time of failed and evicted attempts."""
        return sum(r.run_time for r in self.records if not r.succeeded)

    def stage_runtimes(self) -> Dict[str, List[float]]:
        """Per-stage successful-attempt run times."""
        out: Dict[str, List[float]] = {}
        for r in self.records:
            if r.succeeded:
                out.setdefault(r.stage, []).append(r.run_time)
        return out

    def stage_queue_times(self) -> Dict[str, List[float]]:
        """Per-stage successful-attempt queue times."""
        out: Dict[str, List[float]] = {}
        for r in self.records:
            if r.succeeded:
                out.setdefault(r.stage, []).append(r.queue_time)
        return out

    def stage_attempt_counts(self) -> Dict[str, Tuple[int, int]]:
        """Per-stage (total attempts, failed-or-evicted attempts)."""
        out: Dict[str, Tuple[int, int]] = {}
        for r in self.records:
            total, bad = out.get(r.stage, (0, 0))
            out[r.stage] = (total + 1, bad + (0 if r.succeeded else 1))
        return out

    def stage_relative_spans(self) -> Dict[str, Tuple[float, float]]:
        """Per-stage (start, end) as fractions of job duration — the typical
        relative stage times used by the ``minstage`` indicator (§5.4)."""
        if self.end_time is None:
            raise TraceError(f"job {self.job_name!r} has not finished")
        duration = max(self.duration, 1e-9)
        spans: Dict[str, Tuple[float, float]] = {}
        for r in self.records:
            if not r.succeeded:
                continue
            rel_start = (r.start_time - self.start_time) / duration
            rel_end = (r.end_time - self.start_time) / duration
            lo, hi = spans.get(r.stage, (rel_start, rel_end))
            spans[r.stage] = (min(lo, rel_start), max(hi, rel_end))
        return spans

    def allocation_seconds(self) -> float:
        """Integral of the requested guaranteed allocation over the run
        (token-seconds) — the numerator of the cluster-impact metric."""
        if self.end_time is None:
            raise TraceError(f"job {self.job_name!r} has not finished")
        if not self.allocation_timeline:
            return 0.0
        total = 0.0
        timeline = list(self.allocation_timeline) + [(self.end_time, 0)]
        for (t0, alloc), (t1, _next_alloc) in zip(timeline, timeline[1:]):
            t1 = min(t1, self.end_time)
            if t1 > t0:
                total += alloc * (t1 - t0)
        return total

    def allocation_excess_seconds(self, threshold: int) -> float:
        """Token-seconds requested above ``threshold`` tokens — used for the
        allocation-above-oracle impact metric."""
        if self.end_time is None:
            raise TraceError(f"job {self.job_name!r} has not finished")
        if not self.allocation_timeline:
            return 0.0
        total = 0.0
        timeline = list(self.allocation_timeline) + [(self.end_time, 0)]
        for (t0, alloc), (t1, _next_alloc) in zip(timeline, timeline[1:]):
            t1 = min(t1, self.end_time)
            if t1 > t0 and alloc > threshold:
                total += (alloc - threshold) * (t1 - t0)
        return total

    def spare_fraction(self) -> float:
        """Fraction of successful task attempts that ran on spare tokens."""
        return self.tally().spare_fraction


@dataclass(frozen=True)
class CriticalLink:
    """One hop on the realized critical path."""

    stage: str
    index: int
    start_time: float
    end_time: float
    queue_seconds: float


def critical_path_tasks(trace: RunTrace, graph: JobGraph) -> List[CriticalLink]:
    """The realized critical path: the chain of task completions that
    determined the job's latency.  Walks back from the last-finishing task
    through, at each hop, the input task that finished last.

    Uses only successful attempts.  Returns links in execution order.
    """
    if not trace.finished:
        raise TraceError("trace has not finished")
    done: Dict[Tuple[str, int], TaskRecord] = {}
    for record in trace.records:
        if record.succeeded:
            done[(record.stage, record.index)] = record
    if not done:
        raise TraceError("trace has no successful tasks")

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


__all__ = [
    "CriticalLink",
    "OUTCOME_EVICTED",
    "OUTCOME_FAILED",
    "OUTCOME_OK",
    "OUTCOME_SUPERSEDED",
    "OUTCOMES",
    "OutcomeTally",
    "RunTrace",
    "TaskRecord",
    "TraceError",
    "critical_path_tasks",
]
