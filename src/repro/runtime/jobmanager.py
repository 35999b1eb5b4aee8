"""The job manager: executes a job DAG on the simulated cluster.

Mirrors the modified Cosmos job manager the paper used for its experiments
(§5.1): it tracks per-stage completion fractions ``f_s``, exposes them to
progress indicators, applies allocation changes from the control policy, and
records a full :class:`~repro.jobs.trace.RunTrace`.

Scheduling semantics follow §2.1/§2.4 of the paper:

* each running task holds one token; the pool grants
  ``min(guaranteed, demand)`` plus a weighted-fair share of spare tokens;
* tasks started beyond the guaranteed part ride on spare tokens and are
  the first to be *evicted* (work lost) when the grant shrinks;
* failed or evicted tasks re-enter the ready queue and recompute from
  scratch, delaying downstream barriers.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.tokens import Consumer, Grant
from repro.jobs.dag import DependencyTracker, JobGraph
from repro.jobs.profiles import JobProfile, StageProfile
from repro.jobs.trace import (
    OUTCOME_EVICTED,
    OUTCOME_FAILED,
    OUTCOME_OK,
    OUTCOME_SUPERSEDED,
    OUTCOMES,
    RunTrace,
    TaskRecord,
)
from repro.runtime.speculation import SpeculationConfig, SpeculationScan, record_scan
from repro.runtime.task import RunningTask, TaskId
from repro.simkit.distributions import Distribution, Scaled
from repro.simkit.random import scalar_draws
from repro.telemetry import metrics as _metrics
from repro.telemetry import trace as _trace

_TASKS = _metrics.REGISTRY.counter(
    "repro_runtime_tasks_total",
    "Task attempts reaching a terminal state",
    labelnames=("outcome",),
)
#: Cache the per-outcome children so the hot path is one attribute call.
_TASK_OUTCOMES = {
    outcome: _TASKS.labels(outcome=outcome) for outcome in OUTCOMES
}
_TASK_SECONDS = _metrics.REGISTRY.histogram(
    "repro_runtime_task_seconds",
    "Wall time of terminal task attempts",
    labelnames=("outcome",),
)
_TASK_SECONDS_OUTCOMES = {
    outcome: _TASK_SECONDS.labels(outcome=outcome) for outcome in _TASK_OUTCOMES
}
#: The ok outcome's cells, which ``_finish`` updates without ``_record``.
_OK_TASKS = _TASK_OUTCOMES[OUTCOME_OK]
_OK_SECONDS = _TASK_SECONDS_OUTCOMES[OUTCOME_OK]
_STARTS = _metrics.REGISTRY.counter(
    "repro_runtime_task_starts_total", "Task attempts started"
).labels()
_ALLOCATION_DEFICITS = _metrics.REGISTRY.counter(
    "repro_control_allocation_deficits_total",
    "Allocation requests the pool could not fully honor",
)
_ALLOCATION_RETRIES = _metrics.REGISTRY.counter(
    "repro_control_allocation_retries_total",
    "Backoff retries of clamped allocation requests",
)
_JOBS_DONE = _metrics.REGISTRY.counter(
    "repro_runtime_jobs_completed_total", "Jobs run to completion"
)
_JOB_SECONDS = _metrics.REGISTRY.histogram(
    "repro_runtime_job_seconds", "Job durations"
)


#: Allocation-retry backoff (``allocation_retry=True``): a clamped request
#: is re-asked after 5 s, 10 s, 20 s, ... of virtual time, five times at most.
RETRY_BACKOFF_SECONDS = 5.0
RETRY_BACKOFF_FACTOR = 2.0
RETRY_MAX_ATTEMPTS = 5


class JobManagerError(RuntimeError):
    """Raised on invalid job-manager operations."""


#: An attempt's draws: ``() -> (runtime before contention, the fraction of
#: it done before the attempt dies, or None when it will not fail)``.
AttemptDraws = Callable[[], Tuple[float, Optional[float]]]


def _unscaled(dist: Distribution) -> Tuple[Distribution, float]:
    """``(base, factor)``: a ``Scaled`` draws ``base() * factor``, so its
    factor folds into the caller's arithmetic.  Anything else is its own
    base with factor 1.0, and ``x * 1.0`` is ``x`` bit for bit."""
    if isinstance(dist, Scaled):
        return dist.base, dist.factor
    return dist, 1.0


def attempt_draws(stage: StageProfile, rng: np.random.Generator) -> AttemptDraws:
    """One stage's attempt draws on ``rng``, in the order the determinism
    contract fixes: runtime, init, then, only for a stage that can fail,
    the failure check and the fraction done.

    The ``Scaled`` that ``JobProfile.with_runtime_scale`` puts around the
    runtime and the init is folded into the closure's own arithmetic, so
    the closure makes the draws and float operations of
    ``runtime.sample(rng) + init.sample(rng)`` and the failure lines, in
    their order, and every value is the same bits."""
    runtime, runtime_factor = _unscaled(stage.runtime)
    init, init_factor = _unscaled(stage.init)
    failure_prob = stage.failure_prob
    runtime_draw, init_draw = runtime.drawer(rng), init.drawer(rng)
    if not failure_prob > 0:
        return lambda: (
            runtime_draw() * runtime_factor + init_draw() * init_factor, None
        )
    double = scalar_draws(rng)[0]

    def draw() -> Tuple[float, Optional[float]]:
        seconds = runtime_draw() * runtime_factor + init_draw() * init_factor
        if double() < failure_prob:
            # The attempt dies after doing only part of its work: a uniform
            # draw on [0.05, 0.95), spelled as the arithmetic numpy's
            # Generator.uniform does on the same next_double.
            return seconds, 0.05 + (0.95 - 0.05) * double()
        return seconds, None

    return draw


class JobSnapshot:
    """What the control policy can observe about a running job (§4.3):
    per-stage completion fractions and elapsed time."""

    __slots__ = (
        "stage_fractions",
        "elapsed",
        "running",
        "allocation",
        "consumed_token_seconds",
    )

    def __init__(
        self,
        stage_fractions: Dict[str, float],
        elapsed: float,
        running: int,
        allocation: int,
        consumed_token_seconds: float = 0.0,
    ):
        self.stage_fractions = stage_fractions
        self.elapsed = elapsed
        self.running = running
        self.allocation = allocation
        #: Cumulative busy token-time — the observable signal the online
        #: model-correction monitor uses (paper §5.6).
        self.consumed_token_seconds = consumed_token_seconds


class JobManager:
    """Runs one job on the cluster."""

    def __init__(
        self,
        cluster: Cluster,
        graph: JobGraph,
        behavior: JobProfile,
        *,
        name: Optional[str] = None,
        initial_allocation: int = 10,
        rng: Optional[np.random.Generator] = None,
        on_complete: Optional[Callable[["JobManager"], None]] = None,
        deadline: Optional[float] = None,
        speculation: Optional[SpeculationConfig] = None,
        use_spare_tokens: bool = True,
        spare_weight: Optional[float] = None,
        allocation_retry: bool = False,
    ):
        if behavior.graph is not graph and behavior.graph.name != graph.name:
            raise JobManagerError("behavior profile does not match graph")
        self.cluster = cluster
        self.sim = cluster.sim
        self.graph = graph
        self.name = name or f"job:{graph.name}"
        self._rng = rng if rng is not None else cluster.rng.stream(f"jm:{self.name}")
        self._below = scalar_draws(self._rng)[1]
        self.behavior = behavior
        self._on_complete = on_complete
        self._tracker = DependencyTracker(graph)
        # A completion goes through the tracker's id core: (stage, index)
        # to id and back are two reads of these, not a translating call.
        self._task_offsets = self._tracker.stage_offsets
        self._task_names = self._tracker.task_names
        self._stage_of = self._tracker.stage_of
        #: The tracker's live counters, for the completions ``_finish``
        #: settles itself (``DependencyTracker.counters``).
        self._pending, self._counts, self._dependents = self._tracker.counters()
        self._ready: Deque[TaskId] = deque()
        self._ready_times: Dict[TaskId, float] = {}
        self._attempts: Dict[TaskId, int] = {}
        self._running: List[RunningTask] = []
        #: Running attempts holding a guaranteed token / that are speculative
        #: duplicates, counted as ``_running`` and the token classes change.
        self._guaranteed_count = 0
        self._duplicates_in_flight = 0
        self._busy_token_seconds = 0.0
        self._busy_marker = self.sim.now
        self._speculation = speculation
        #: §2.4's experiment: when False, the job runs on guaranteed tokens
        #: only, never riding (evictable, fluctuating) spare capacity.
        self._use_spare_tokens = use_spare_tokens
        self._speculative_demand = 0
        self._stage_durations: Dict[str, List[float]] = {}
        self.duplicates_launched = 0
        self.duplicates_won = 0
        self._completed_tasks = 0
        # Arbiter-rejection handling: when the pool clamps a request below
        # what was asked, optionally re-ask on a deterministic exponential
        # backoff (chaos runs turn this on; a newer request supersedes any
        # pending retry).
        self._allocation_retry = allocation_retry
        self._retry_handle = None
        self._last_requested: Optional[int] = None
        self.allocation_deficits = 0
        self.allocation_retries = 0
        self.start_time = self.sim.now
        self.finished = False
        self.trace = RunTrace(
            job_name=graph.name,
            start_time=self.start_time,
            deadline=deadline,
        )
        #: ``trace.add`` without its call: one record per attempt.
        self._add_record = self.trace.records.append
        #: ``trace.mark_running``'s list, which ``_finish`` steps itself.
        self._running_timeline = self.trace.running_timeline
        # Fair-share weight for *spare* distribution.  Default: the
        # guarantee (WFQ analogy, §2.6); pass an explicit value to model
        # schedulers that split spare per pending job instead (§2.1 does
        # not prescribe a weighting).
        #: The grant the pool last handed ``_on_grant`` (the consumer's, read
        #: without the pool's settle check).
        self._grant = Grant()
        self.consumer: Consumer = cluster.pool.register(
            Consumer(self.name, 0, weight=spare_weight, on_grant=self._on_grant)
        )
        self._set_demand_of = cluster.pool.set_demand_of
        cluster.on_machine_down(self._on_machine_down)
        for task_id in self._tracker.initially_ready():
            self._enqueue(task_id, self.start_time)
        self.set_allocation(initial_allocation)
        self._update_demand()
        if self._speculation is not None:
            self.sim.schedule_every(
                self._speculation.check_period_seconds, self._speculate
            )

    # ------------------------------------------------------------------
    # Control interface
    # ------------------------------------------------------------------

    @property
    def behavior(self) -> JobProfile:
        """The profile tasks are drawn from; chaos ``ProfileDrift``
        reassigns it mid-run."""
        return self._behavior

    @behavior.setter
    def behavior(self, profile: JobProfile) -> None:
        self._behavior = profile
        #: Per stage, the one spelling of an attempt's draws that
        #: ``_start_task`` and ``_start_wave`` both call.
        self._attempt_draws: Dict[str, AttemptDraws] = {
            stage.name: attempt_draws(profile.stage(stage.name), self._rng)
            for stage in self.graph.stages
        }

    @property
    def allocation(self) -> int:
        """Currently requested guaranteed tokens."""
        return self.consumer.guaranteed

    def set_allocation(self, tokens: int, *, _retry_attempt: int = 0) -> int:
        """Request ``tokens`` guaranteed tokens (Jockey's knob).  The pool
        may clamp to the cluster's guaranteed headroom; the applied value is
        returned and recorded in the trace.

        When the clamp bites (the arbiter could not honor the request) the
        deficit is recorded in telemetry, and — with ``allocation_retry``
        on — the same request is retried on an exponential backoff until
        honored, superseded by a newer request, or out of attempts."""
        if tokens < 0:
            raise JobManagerError(f"negative allocation {tokens!r}")
        if _retry_attempt == 0:
            self._last_requested = tokens
            self._cancel_pending_retry()
        applied = self.cluster.pool.set_guaranteed(self.name, tokens)
        self.trace.mark_allocation(self.sim.now, applied)
        rec = _trace.RECORDER
        if rec.enabled:
            rec.emit(self.sim.now, "job.allocation",
                     job=self.name, requested=tokens, applied=applied)
        if applied < tokens and not self.finished:
            self.allocation_deficits += 1
            _ALLOCATION_DEFICITS.inc()
            if rec.enabled:
                rec.emit(self.sim.now, "control.allocation_deficit",
                         job=self.name, requested=tokens, applied=applied,
                         deficit=tokens - applied, attempt=_retry_attempt)
            if self._allocation_retry and _retry_attempt < RETRY_MAX_ATTEMPTS:
                delay = RETRY_BACKOFF_SECONDS * RETRY_BACKOFF_FACTOR ** _retry_attempt
                self._retry_handle = self.sim.schedule(
                    delay, self._retry_allocation, (tokens, _retry_attempt + 1)
                )
        return applied

    def _cancel_pending_retry(self) -> None:
        if self._retry_handle is not None:
            self._retry_handle.cancel()
            self._retry_handle = None

    def _retry_allocation(self, request) -> None:
        """Backoff retry of a clamped request; a newer request (different
        target) or job completion makes it a no-op."""
        tokens, attempt = request
        self._retry_handle = None
        if self.finished or tokens != self._last_requested:
            return
        self.allocation_retries += 1
        _ALLOCATION_RETRIES.inc()
        rec = _trace.RECORDER
        if rec.enabled:
            rec.emit(self.sim.now, "control.allocation_retry",
                     job=self.name, requested=tokens, attempt=attempt)
        self.set_allocation(tokens, _retry_attempt=attempt)

    def snapshot(self) -> JobSnapshot:
        """Observable state for progress indicators and the control loop."""
        self._accrue_busy_time()
        return JobSnapshot(
            stage_fractions=self._tracker.stage_fractions(),
            elapsed=self.sim.now - self.start_time,
            running=len(self._running),
            allocation=self.allocation,
            consumed_token_seconds=self._busy_token_seconds,
        )

    def _accrue_busy_time(self) -> None:
        """Integrate the running-task count over time (token-seconds)."""
        now = self.sim.now
        if now > self._busy_marker:
            self._busy_token_seconds += len(self._running) * (now - self._busy_marker)
        self._busy_marker = now

    @property
    def consumed_token_seconds(self) -> float:
        self._accrue_busy_time()
        return self._busy_token_seconds

    @property
    def elapsed(self) -> float:
        return self.sim.now - self.start_time

    @property
    def tasks_running(self) -> int:
        return len(self._running)

    # ------------------------------------------------------------------
    # Scheduling internals
    # ------------------------------------------------------------------

    def _enqueue(self, task_id: TaskId, now: float) -> None:
        self._ready.append(task_id)
        self._ready_times.setdefault(task_id, now)
        rec = _trace.RECORDER
        if rec.enabled:
            rec.emitted += 1
            rec.raw((now, "task.queued",
                     (("job", self.name), ("stage", task_id[0]),
                      ("index", task_id[1]),
                      ("attempt", self._attempts.get(task_id, 0)))))

    def _update_demand(self) -> None:
        if self.finished:
            demand = 0
        else:
            demand = (
                len(self._ready) + len(self._running) + self._speculative_demand
            )
        self.cluster.pool.set_demand_of(self.consumer, demand)

    def _grant_cap(self, grant: Grant) -> int:
        """How many tasks this job may run under the current grant."""
        return grant.total if self._use_spare_tokens else grant.guaranteed_part

    def _on_grant(self, grant: Grant) -> None:
        self._grant = grant
        if self.finished:
            return
        cap = self._grant_cap(grant)
        if len(self._running) > cap:
            self._evict(len(self._running) - cap)
        self._start_ready_tasks(self.sim.now)
        self._rebalance_tokens()

    def _rebalance_tokens(self) -> None:
        """Keep token classes consistent after the guaranteed part of the
        grant changes: a grown guarantee promotes the oldest spare tasks
        onto guaranteed tokens; a shrunk one demotes the youngest
        guaranteed tasks onto (evictable) spare tokens.  Each task holds a
        specific token — completions pass tokens to new tasks in
        ``_start_task``."""
        guaranteed_part = self._grant.guaranteed_part
        g_count = self._guaranteed_count
        if g_count < guaranteed_part:
            spare = sorted(
                (t for t in self._running if t.used_spare_token),
                key=lambda t: t.start_time,
            )
            for task in spare[: guaranteed_part - g_count]:
                task.used_spare_token = False
                self._guaranteed_count += 1
        elif g_count > guaranteed_part:
            guaranteed = sorted(
                (t for t in self._running if not t.used_spare_token),
                key=lambda t: t.start_time,
                reverse=True,
            )
            for task in guaranteed[: g_count - guaranteed_part]:
                task.used_spare_token = True
                self._guaranteed_count -= 1

    def _start_ready_tasks(self, now: float) -> None:
        grant = self._grant
        # _grant_cap, inlined: this runs after every finish.
        cap = grant.total if self._use_spare_tokens else grant.guaranteed_part
        ready = self._ready
        room = cap - len(self._running)
        if not ready or room <= 0:
            return
        n = len(ready) if len(ready) < room else room
        if n == 1:
            self._start_task(ready.popleft(), grant, now)
        else:
            self._start_wave([ready.popleft() for _ in range(n)], grant)
        self.trace.mark_running(now, len(self._running))

    def _start_wave(self, task_ids: Sequence[TaskId], grant: Grant) -> None:
        """Start a whole wave of ready tasks with one batched heap insert.

        Each task draws through its stage's ``_attempt_draws`` closure, the
        one :meth:`_start_task` calls — the scalar draw order is part of the
        repo's determinism contract — so wave starts are byte-identical to
        the one-at-a-time path.  What the wave batches is the mechanics:
        one ``schedule_batch`` presorted merge instead of N heappushes, the
        shared bound ``_finish`` callback with the task as payload instead
        of N closures, and buffered tuple trace records.
        """
        self._accrue_busy_time()
        now = self.sim.now
        draws = self._attempt_draws
        below = self._below
        contention = self.cluster.contention_factor
        pick = self.cluster.machines.pick_up_machine
        attempts = self._attempts
        ready_times = self._ready_times
        guaranteed_part = grant.guaranteed_part
        g_count = self._guaranteed_count
        running_append = self._running.append
        rec = _trace.RECORDER
        emit = rec.enabled
        name = self.name
        tasks: List[RunningTask] = []
        times: List[float] = []
        for task_id in task_ids:
            stage_name = task_id[0]
            runtime, done = draws[stage_name]()
            runtime *= contention
            will_fail = done is not None
            if will_fail:
                runtime *= done
            machine = pick(below)
            attempt = attempts.get(task_id, 0)
            used_spare = g_count >= guaranteed_part
            if not used_spare:
                g_count += 1
            task = RunningTask(
                task_id=task_id,
                attempt=attempt,
                ready_time=ready_times.pop(task_id, now),
                start_time=now,
                planned_end=now + runtime,
                machine=machine,
                used_spare_token=used_spare,
                will_fail=will_fail,
                spare_at_start=used_spare,
                is_duplicate=False,
            )
            tasks.append(task)
            times.append(now + runtime)
            running_append(task)
            if emit:
                rec.emitted += 1
                rec.raw((now, "task.start",
                         (("job", name), ("stage", stage_name),
                          ("index", task_id[1]), ("attempt", attempt),
                          ("machine", machine), ("spare", used_spare),
                          ("duplicate", False))))
        self._guaranteed_count = g_count
        handles = self.sim.schedule_batch(times, self._finish, tasks, cancelable=True)
        for task, handle in zip(tasks, handles):
            task.finish_handle = handle
        _STARTS.inc(len(tasks))

    def _start_task(
        self, task_id: TaskId, grant: Grant, now: float, *, is_duplicate: bool = False
    ) -> None:
        # Inlined _accrue_busy_time: a no-op when _finish already accrued.
        if now > self._busy_marker:
            self._busy_token_seconds += len(self._running) * (now - self._busy_marker)
            self._busy_marker = now
        stage_name = task_id[0]
        runtime, done = self._attempt_draws[stage_name]()
        # Oversubscription slows every task: tokens do not shield network
        # bandwidth or disk queues (§2.1).
        runtime *= self.cluster.contention_factor
        will_fail = done is not None
        if will_fail:
            runtime *= done
        machine = self.cluster.machines.pick_up_machine(self._below)
        attempt = self._attempts.get(task_id, 0)
        # Take a guaranteed token if one is free (e.g. just released by a
        # finishing task), otherwise ride on spare.
        used_spare = self._guaranteed_count >= grant.guaranteed_part
        if not used_spare:
            self._guaranteed_count += 1
        if is_duplicate:
            self._duplicates_in_flight += 1
            ready_time = now
        else:
            ready_time = self._ready_times.pop(task_id, now)
        planned_end = now + runtime
        task = RunningTask(
            task_id, attempt, ready_time, now, planned_end, machine,
            used_spare, will_fail, used_spare, is_duplicate,
        )
        task.finish_handle = self.sim.schedule_at(planned_end, self._finish, task)
        self._running.append(task)
        _STARTS.inc()
        rec = _trace.RECORDER
        if rec.enabled:
            rec.emitted += 1
            rec.raw((now, "task.start",
                     (("job", self.name), ("stage", stage_name),
                      ("index", task_id[1]), ("attempt", attempt),
                      ("machine", machine), ("spare", used_spare),
                      ("duplicate", is_duplicate))))

    def _record(self, task: RunningTask, outcome: str, end_time: float) -> None:
        stage, index = task.task_id
        self._add_record(
            TaskRecord(
                stage, index, task.attempt, task.ready_time, task.start_time,
                end_time, outcome, task.machine, task.spare_at_start,
            )
        )
        counter = _TASK_OUTCOMES.get(outcome)
        if counter is not None:
            counter.inc()
            _TASK_SECONDS_OUTCOMES[outcome].observe(end_time - task.start_time)
        rec = _trace.RECORDER
        if rec.enabled:
            self._emit_end(rec, task, outcome, end_time)

    def _emit_end(self, rec, task: RunningTask, outcome: str, end_time: float) -> None:
        """The ``task.end`` event of a terminal attempt."""
        # `start`/`end` make the exporter render this as a Perfetto span.
        rec.emitted += 1
        rec.raw((end_time, "task.end",
                 (("job", self.name), ("stage", task.task_id[0]),
                  ("index", task.task_id[1]), ("attempt", task.attempt),
                  ("outcome", outcome), ("machine", task.machine),
                  ("spare", task.spare_at_start),
                  ("duplicate", task.is_duplicate),
                  ("start", task.start_time), ("end", end_time))))

    def _release(self, task: RunningTask) -> Sequence[RunningTask]:
        """Take an attempt off the running list, token and all.  Returns its
        sibling attempts still in flight: only a speculative race has any,
        so the scan runs only while a duplicate is running."""
        siblings: Sequence[RunningTask] = ()
        if self._duplicates_in_flight:
            siblings = [
                t
                for t in self._running
                if t.task_id == task.task_id and t is not task
            ]
            if task.is_duplicate:
                self._duplicates_in_flight -= 1
        self._running.remove(task)
        if not task.used_spare_token:
            self._guaranteed_count -= 1
        return siblings

    def _finish(self, task: RunningTask) -> None:
        # Our finish event just fired, so the handle is back on the
        # simulator's free list — drop the reference before anything here
        # can recycle it into a different event.
        task.finish_handle = None
        now = self.sim.now
        running = self._running
        # Inlined _accrue_busy_time.
        if now > self._busy_marker:
            self._busy_token_seconds += len(running) * (now - self._busy_marker)
            self._busy_marker = now
        if self._duplicates_in_flight:
            siblings = self._release(task)
        else:
            # No speculative race in flight: no sibling scan to do.
            siblings = ()
            running.remove(task)
            if not task.used_spare_token:
                self._guaranteed_count -= 1
        if task.will_fail:
            self._record(task, OUTCOME_FAILED, now)
            # A surviving speculative sibling keeps the task alive; only
            # retry when this was the last attempt in flight.
            if not siblings:
                self._retry(task)
        else:
            # _record(task, OUTCOME_OK, now) without its outcome lookups.
            stage, index = task.task_id
            start = task.start_time
            self._add_record(TaskRecord(
                stage, index, task.attempt, task.ready_time, start, now,
                OUTCOME_OK, task.machine, task.spare_at_start,
            ))
            seconds = now - start
            _OK_TASKS.inc()
            _OK_SECONDS.observe(seconds)
            rec = _trace.RECORDER
            if rec.enabled:
                self._emit_end(rec, task, OUTCOME_OK, now)
            # The losing attempts of a speculative race are cancelled.
            for loser in siblings:
                if loser.finish_handle is not None:
                    loser.finish_handle.cancel()
                    loser.finish_handle = None
                self._release(loser)
                self._record(loser, OUTCOME_SUPERSEDED, now)
            if task.is_duplicate:
                self.duplicates_won += 1
            if self._speculation is not None:
                # Only the straggler scan reads these.
                self._stage_durations.setdefault(stage, []).append(seconds)
            self._completed_tasks += 1
            task_id = self._task_offsets[stage] + index
            names = self._task_names
            pending = self._pending
            s = self._stage_of[task_id]
            left_in_stage = pending[s] - 1
            if left_in_stage > 0:
                # Not the stage's last: settled here as complete_id would
                # (DependencyTracker.counters).  The last goes there.
                pending[s] = left_in_stage
                counts = self._counts
                for j in self._dependents[task_id]:
                    left = counts[j] = counts[j] - 1
                    if not left:
                        self._enqueue(names[j], now)
            else:
                for ready in self._tracker.complete_id(task_id):
                    self._enqueue(names[ready], now)
                if self._tracker.all_complete():
                    self._complete_job()
                    return
        # trace.mark_running and _update_demand, spelled out (the job is not
        # finished: its last completion returned above).
        in_flight = len(running)
        timeline = self._running_timeline
        if not timeline or timeline[-1][1] != in_flight:
            timeline.append((now, in_flight))
        self._set_demand_of(
            self.consumer, len(self._ready) + in_flight + self._speculative_demand
        )
        self._start_ready_tasks(now)

    def _retry(self, task: RunningTask) -> None:
        """Re-queue a failed or evicted attempt; its work is lost."""
        self._attempts[task.task_id] = task.attempt + 1
        self._ready_times[task.task_id] = self.sim.now
        self._ready.append(task.task_id)

    def _evict(self, count: int) -> None:
        """Kill ``count`` running tasks: most recently started first, which
        preferentially hits spare-token tasks (they start last when the
        guarantee is already saturated)."""
        self._accrue_busy_time()
        victims = sorted(
            self._running, key=lambda t: (t.used_spare_token, t.start_time)
        )[-count:]
        for task in victims:
            if task.finish_handle is not None:
                task.finish_handle.cancel()
                task.finish_handle = None
            siblings = self._release(task)
            self._record(task, OUTCOME_EVICTED, self.sim.now)
            if not siblings:
                self._retry(task)
        self.trace.mark_running(self.sim.now, len(self._running))
        self._update_demand()

    def _on_machine_down(self, machine_id: int) -> None:
        if self.finished:
            return
        self._accrue_busy_time()
        victims = [t for t in self._running if t.machine == machine_id]
        for task in victims:
            if task.finish_handle is not None:
                task.finish_handle.cancel()
                task.finish_handle = None
            siblings = self._release(task)
            self._record(task, OUTCOME_FAILED, self.sim.now)
            if not siblings:
                self._retry(task)
        if victims:
            self.trace.mark_running(self.sim.now, len(self._running))
            self._update_demand()
            self._start_ready_tasks(self.sim.now)

    def _speculate(self) -> None:
        """Launch duplicates for straggling attempts (paper §4.4's
        straggler-mitigation knob; see :mod:`repro.runtime.speculation`)."""
        if self.finished or self._speculation is None:
            return
        config = self._speculation
        if self._ready:
            return  # capacity is better spent on first attempts
        budget = max(
            1,
            int(
                config.max_duplicate_fraction
                * max(self.consumer.guaranteed, len(self._running), 1)
            ),
        )
        active_duplicates = self._duplicates_in_flight
        duplicated = {t.task_id for t in self._running if t.is_duplicate}
        stragglers = []
        for task in sorted(
            (
                t
                for t in self._running
                if not t.is_duplicate and t.task_id not in duplicated
            ),
            key=lambda t: t.start_time,
        ):
            if active_duplicates + len(stragglers) >= budget:
                break
            durations = self._stage_durations.get(task.task_id[0], ())
            if len(durations) < config.min_observations:
                continue
            median = sorted(durations)[len(durations) // 2]
            elapsed = self.sim.now - task.start_time
            threshold = max(
                config.min_task_seconds, config.slowdown_factor * median
            )
            if elapsed > threshold:
                stragglers.append(task)
        if not stragglers:
            record_scan(self.sim.now, self.name,
                        SpeculationScan(running=len(self._running), budget=budget,
                                        stragglers=0, launched=0))
            return
        # Ask the pool for room to race the stragglers; it may grant less.
        self._speculative_demand = len(stragglers)
        self._update_demand()
        grant = self._grant
        launched = 0
        for task in stragglers:
            if len(self._running) >= self._grant_cap(grant):
                break
            self._start_task(task.task_id, grant, self.sim.now, is_duplicate=True)
            self.duplicates_launched += 1
            launched += 1
        self._speculative_demand = 0
        self._update_demand()
        self.trace.mark_running(self.sim.now, len(self._running))
        record_scan(self.sim.now, self.name,
                    SpeculationScan(running=len(self._running), budget=budget,
                                    stragglers=len(stragglers), launched=launched))

    def _complete_job(self) -> None:
        self.finished = True
        self.trace.end_time = self.sim.now
        self.trace.mark_running(self.sim.now, 0)
        duration = self.sim.now - self.start_time
        _JOBS_DONE.inc()
        _JOB_SECONDS.observe(duration)
        rec = _trace.RECORDER
        if rec.enabled:
            rec.emit(self.sim.now, "job.complete",
                     job=self.name, duration=duration,
                     tasks=self._completed_tasks,
                     duplicates_launched=self.duplicates_launched,
                     duplicates_won=self.duplicates_won,
                     deadline=self.trace.deadline,
                     start=self.start_time, end=self.sim.now)
        self._update_demand()
        self.cluster.pool.set_guaranteed(self.name, 0)
        if self._on_complete is not None:
            self._on_complete(self)


def run_to_completion(
    manager: JobManager, *, max_seconds: float = 86_400.0
) -> RunTrace:
    """Drive the simulator until the job finishes: one ``Simulator.run``,
    halted by *this* manager's completion (another manager sharing the
    simulator does not stop it).  Raises if the job does not finish within
    ``max_seconds`` of virtual time (degenerate configs) or the event queue
    drains first."""
    sim = manager.sim
    deadline = manager.start_time + max_seconds
    chained = manager._on_complete

    def halt_when_done(done: JobManager) -> None:
        if chained is not None:
            chained(done)
        sim.halt()

    manager._on_complete = halt_when_done
    try:
        if not manager.finished and sim.now < deadline:
            sim.run(until=deadline)
    finally:
        manager._on_complete = chained
    if not manager.finished:
        raise JobManagerError(
            f"job {manager.graph.name!r} did not finish within "
            f"{max_seconds:.0f}s of virtual time"
        )
    return manager.trace


__all__ = ["JobManager", "JobManagerError", "JobSnapshot", "run_to_completion"]
