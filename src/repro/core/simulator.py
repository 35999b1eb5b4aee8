"""Jockey's offline job simulator (paper §4.1).

Simulates one execution of a job at a fixed token allocation using only the
job's *profile* (per-stage runtime/init distributions, failure
probabilities) and its DAG.  It captures the features the paper names —
outliers, barriers, task restarts after failures — and deliberately omits
what the paper's simulator omits (input-size variation, duplicate/speculative
tasks).  It never sees the live cluster: the gap between this model and the
substrate is what the online control loop must absorb.

The simulator is the workhorse behind the C(p, a) tables: each simulated run
contributes one ``(p_t, T − t)`` sample per sampling interval.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.jobs.dag import DependencyTracker
from repro.jobs.profiles import JobProfile, StageProfile
from repro.settable import is_count, is_positive_finite
from repro.simkit import distributions as _dist
from repro.telemetry import metrics as _metrics
from repro.telemetry import trace as _trace

_SIMULATIONS = _metrics.REGISTRY.counter(
    "repro_core_simulations_total", "Offline C(p, a) simulation runs"
)
_SIM_FAILURES = _metrics.REGISTRY.counter(
    "repro_core_simulated_failures_total", "Task failures inside offline runs"
)
_SIM_SECONDS = _metrics.REGISTRY.histogram(
    "repro_core_simulated_duration_seconds", "Offline simulated job durations"
)


class SimulatorError(RuntimeError):
    """Raised when a simulation cannot make progress."""


class _StageSampler:
    """Chunked per-stage random draws for the hot task-start path.

    Each stage owns an independent RNG substream (seeded from the run's
    generator at simulation start, in stage order).  The draw-order
    contract: task starts of a stage consume one ``(runtime+init,
    failure-uniform, failure-runtime-fraction)`` slot each, in start
    order, produced in fixed-size vectorized blocks — so a stage's draw
    sequence depends only on how many of its tasks have started, never on
    how other stages interleave.  That is what lets the sampling be
    batched without changing results between runs.

    What a slot means is resolved for the whole block at refill, with the
    comparisons and the one IEEE multiply a per-start resolution would do:
    slot ``i`` fails iff ``fail_u[i] < failure_prob`` and then costs
    ``raw_costs[i] * fail_frac[i]``.  The task loop reads ``costs[pos]`` and
    ``fails[pos]`` and advances ``pos`` itself (refilling at ``chunk``);
    ``raw_costs`` is for an attempt the livelock guard forces to succeed.
    """

    __slots__ = ("_sp", "_rng", "chunk", "pos", "costs", "fails", "raw_costs")

    def __init__(self, sp: StageProfile, seed: int, num_tasks: int):
        self._sp = sp
        self._rng = np.random.default_rng(seed)
        self.chunk = min(256, max(16, num_tasks))
        self.pos = self.chunk  # the first start refills
        self.costs: List[float] = []
        self.fails: List[bool] = []
        self.raw_costs: List[float] = []

    def refill(self) -> None:
        sp, rng, k = self._sp, self._rng, self.chunk
        raw = _dist.sample_n(sp.runtime, rng, k) + _dist.sample_n(sp.init, rng, k)
        fail_us = rng.random(k)
        fail_fracs = rng.uniform(0.05, 0.95, k)
        fails = fail_us < sp.failure_prob
        costs = np.where(fails, raw * fail_fracs, raw)
        # Python floats (same values): the task loop does scalar arithmetic.
        self.raw_costs = raw.tolist()
        self.costs = costs.tolist()
        self.fails = fails.tolist()
        self.pos = 0


@dataclass
class SimulatedRun:
    """Result of one offline simulation."""

    allocation: int
    duration: float
    total_cpu_seconds: float
    failures: int
    #: (time, progress) pairs at the sampling interval, if an indicator was
    #: supplied.  Progress is the indicator's value in [0, 1].
    progress_samples: List[Tuple[float, float]] = field(default_factory=list)
    #: Per-stage (start, end) as fractions of job duration.
    stage_spans: Dict[str, Tuple[float, float]] = field(default_factory=dict)

    def remaining_samples(self) -> List[Tuple[float, float]]:
        """Convert progress samples into (progress, remaining time) pairs —
        the raw material of C(p, a)."""
        return [(p, self.duration - t) for t, p in self.progress_samples]


def simulate_job(
    profile: JobProfile,
    allocation: int,
    rng: np.random.Generator,
    *,
    indicator=None,
    sample_dt: float = 15.0,
    max_task_attempts: int = 20,
    track_spans: bool = False,
) -> SimulatedRun:
    """Simulate one run of ``profile``'s job at a constant ``allocation``.

    Scheduling is greedy FIFO over ready tasks: whenever fewer than
    ``allocation`` tasks are running and a task is ready, it starts.  Failed
    attempts lose their partial work and re-queue, exactly as in the
    substrate runtime.

    Randomness: each stage draws from its own substream seeded off ``rng``
    at simulation start (one ``rng.integers`` draw per stage, in stage
    order), and per-task samples are produced in vectorized blocks — see
    :class:`_StageSampler` for the draw-order contract.
    """
    if not is_count(allocation):
        raise SimulatorError(
            f"allocation must be an integer >= 1, got {allocation!r}"
        )
    if not is_count(max_task_attempts):
        raise SimulatorError(
            f"max_task_attempts must be an integer >= 1, got {max_task_attempts!r}"
        )
    if not is_positive_finite(sample_dt):
        raise SimulatorError(
            f"sample_dt must be finite and > 0, got {sample_dt!r}"
        )
    graph = profile.graph
    # Tasks are the tracker's global ids from here to the end of the loop.
    tracker = DependencyTracker(graph)
    ready = deque(tracker.initially_ready_ids())
    if not ready:
        raise SimulatorError(f"job {graph.name!r} has no runnable root tasks")
    if indicator is not None:
        # Bound once, before any draw: the indicator's stages as tracker
        # positions (an unknown name is refused here), so a sample reads
        # the tracker's counts in the indicator's order.
        positions = tracker.stage_positions(indicator.stage_names)
        progress_at = indicator.progress_at
        fractions_at = tracker.fractions_at

    #: One sampler per stage, in stage order.
    samplers = [
        _StageSampler(
            profile.stage(stage.name), int(rng.integers(0, 2**63)), stage.num_tasks
        )
        for stage in graph.stages
    ]
    stage_of = tracker.stage_of
    # Hoisted telemetry handles: one registry/recorder resolution per run,
    # not per task or per metric update.
    metrics_on = _metrics.REGISTRY.enabled
    rec = _trace.RECORDER
    #: running tasks as (finish_time, seq, task id, will_fail); seq is unique,
    #: so ties on finish_time break on start order and nothing past it compares.
    running: List[Tuple[float, int, int, bool]] = []
    #: The task that just finished is still ``running[0]``: the first start
    #: after it takes its place in one ``heapreplace`` (pop, then push).
    vacated = False
    in_flight = 0
    seq = 0
    now = 0.0
    total_cpu = 0.0
    failures = 0
    attempts: Dict[int, int] = {}
    first_start: List[Optional[float]] = [None] * len(samplers)
    last_end: List[Optional[float]] = [None] * len(samplers)
    samples: List[Tuple[float, float]] = []
    next_sample = 0.0 if indicator is not None else float("inf")

    heappush = heapq.heappush
    heappop = heapq.heappop
    heapreplace = heapq.heapreplace
    popleft = ready.popleft
    release = ready.append
    complete_id = tracker.complete_id
    pending, counts, dependents = tracker.counters()

    while True:
        # Greedy FIFO: fill free tokens from the head of the ready queue.
        while ready and in_flight < allocation:
            task = popleft()
            stage = stage_of[task]
            sampler = samplers[stage]
            pos = sampler.pos
            if pos == sampler.chunk:
                sampler.refill()
                pos = 0
            sampler.pos = pos + 1
            runtime = sampler.costs[pos]
            will_fail = sampler.fails[pos]
            if will_fail and attempts.get(task, 0) + 1 >= max_task_attempts:
                will_fail = False  # give up on failing: avoid livelock
                runtime = sampler.raw_costs[pos]
            total_cpu += runtime
            if track_spans and first_start[stage] is None:
                first_start[stage] = now
            if vacated:
                heapreplace(running, (now + runtime, seq, task, will_fail))
                vacated = False
            else:
                heappush(running, (now + runtime, seq, task, will_fail))
            seq += 1
            in_flight += 1
        if vacated:
            heappop(running)
            vacated = False
        if not running:
            break
        finish_time, _seq, task, will_fail = running[0]
        vacated = True
        in_flight -= 1
        # Sample progress at interval boundaries strictly before this event:
        # nothing completes between them, so one value serves them all.
        up_to = finish_time - 1e-9
        if next_sample <= up_to:
            progress = progress_at(fractions_at(positions))
            while next_sample <= up_to:
                samples.append((next_sample, progress))
                next_sample += sample_dt
        now = finish_time
        if will_fail:
            failures += 1
            attempts[task] = attempts.get(task, 0) + 1
            ready.append(task)
        else:
            stage = stage_of[task]
            left_in_stage = pending[stage] - 1
            if left_in_stage > 0:
                # Not the stage's last: settled here as complete_id would
                # (DependencyTracker.counters).  The last goes there.
                pending[stage] = left_in_stage
                for j in dependents[task]:
                    left = counts[j] = counts[j] - 1
                    if not left:
                        release(j)
            else:
                ready.extend(complete_id(task))
            if track_spans:
                last_end[stage] = now

    if not tracker.all_complete():
        unfinished = [
            s.name
            for s in graph.stages
            if not tracker.is_stage_complete(s.name)
        ]
        raise SimulatorError(
            f"simulation of {graph.name!r} stalled with incomplete stages "
            f"{unfinished[:5]}"
        )

    duration = now
    spans: Dict[str, Tuple[float, float]] = {}
    if track_spans and duration > 0:
        # Every stage started and ended: the run drained.
        for stage, start, end in zip(graph.stages, first_start, last_end):
            lo = start / duration
            hi = end / duration
            spans[stage.name] = (min(lo, 1.0), min(max(hi, lo), 1.0))
    if indicator is not None:
        samples.append((duration, progress_at(fractions_at(positions))))
    if metrics_on:
        _SIMULATIONS.inc()
        _SIM_FAILURES.inc(failures)
        _SIM_SECONDS.observe(duration)
    if rec.enabled:
        rec.emit(0.0, "sim.offline_run",
                 job=graph.name, allocation=allocation,
                 duration=duration, failures=failures,
                 cpu_seconds=total_cpu)
    return SimulatedRun(
        allocation=allocation,
        duration=duration,
        total_cpu_seconds=total_cpu,
        failures=failures,
        progress_samples=samples,
        stage_spans=spans,
    )


def simulate_relative_spans(
    profile: JobProfile,
    rng: np.random.Generator,
    *,
    allocation: Optional[int] = None,
) -> Dict[str, Tuple[float, float]]:
    """Typical relative stage (start, end) times from a simulation.

    With ``allocation=None`` the job runs unconstrained (one token per
    vertex — effectively infinite parallelism), which is how the paper
    derives the ``minstage-inf`` indicator's schedule: it 'focusses on the
    critical path'.
    """
    if allocation is None:
        allocation = profile.graph.num_vertices
    run = simulate_job(profile, allocation, rng, track_spans=True)
    return run.stage_spans


__all__ = [
    "SimulatedRun",
    "SimulatorError",
    "simulate_job",
    "simulate_relative_spans",
]
