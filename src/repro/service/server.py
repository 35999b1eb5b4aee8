"""The live arbiter: a JSON-over-HTTP cluster manager.

This is the first execution substrate where tasks run *outside* the
simulator.  The service keeps the whole Jockey stack intact — market
admission at the front door, the C(p, a) controller re-planning every
tick, the prediction observatory publishing interval forecasts — and
swaps only the bottom layer: instead of simkit events, work is leased
over HTTP to real worker processes which execute subprocess commands or
profile-sampled sleeps.

Time.  All control math stays in *virtual seconds* (the time base of
profiles, deadlines, and C(p, a) tables).  A single
:class:`~repro.core.clock.WallClock` with ``time_scale`` wall-seconds
per virtual-second maps the service's life onto that axis, so a profile
trained on tens-of-minutes jobs replays against live workers in a few
wall seconds without retraining.  The service reads it once per request
or tick (``ClusterService.now()``) and tells each controller the job's
elapsed time, ``now - started_v``, exactly as the batch runner tells it
simulator time.

Protocol (all request/response bodies JSON)::

    GET  /healthz                     liveness + drain state
    GET  /metrics                     Prometheus exposition
    GET  /v1/state                    full snapshot (jobs, workers, tenants)
    GET  /v1/templates                submittable templates + market sizing
    GET  /v1/jobs/<id>                job status
    GET  /v1/jobs/<id>/result         terminal outcome (409 while running)
    GET  /v1/jobs/<id>/deadline       latest prediction-observatory interval
    GET  /v1/jobs/<id>/report?format= standard run report (text | html)
    POST /v1/workers/register         {name, slots} -> worker_id
    POST /v1/workers/heartbeat        {worker_id}
    POST /v1/workers/lease            {worker_id, max_tasks} -> tasks
    POST /v1/tasks/complete           {worker_id, task_id, outcome,
                                       lease_max?} -> chained tasks
    POST /v1/jobs                     submit (template | bundle | command)
    POST /v1/shutdown                 {drain: bool}

Worker loss is detected by heartbeat timeout: leased tasks of a silent
worker are recorded as evicted attempts (feeding the existing failure
telemetry) and re-queued, so a killed worker degrades the run without
crashing it.
"""

from __future__ import annotations

import json
import math
import socket
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro import persist
from repro.chaos.injectors import BlackoutPredictor
from repro.chaos.spec import ControlFaults
from repro.core.clock import WallClock
from repro.core.control import ControlConfig, ControlError
from repro.core.policies import PolicyError, build_policy, run_artifacts
from repro.core.progress import ProgressError, totalwork_with_q
from repro.core.utility import deadline_utility
from repro.jobs.dag import DependencyTracker, JobGraph, Stage
from repro.jobs.trace import (
    OUTCOME_EVICTED,
    OUTCOME_FAILED,
    OUTCOME_OK,
    RunTrace,
    TaskRecord,
)
from repro.market.admission import MarketAdmission
from repro.market.tenant import JobSpec as MarketJobSpec
from repro.market.tenant import MarketError, Tenant
from repro.runtime.jobmanager import JobSnapshot
from repro.service.client import HeadError, read_head
from repro.service.models import TemplateError, TemplateModelStore, TrainedTemplate
from repro.settable import Amount, Count, Positive, check, is_count, refuse
from repro.simkit.random import derive_seed
from repro.telemetry import metrics as _metrics
from repro.telemetry.audit import TickRecord
from repro.telemetry.exposition import render_prometheus


_JOBS_SUBMITTED = _metrics.REGISTRY.counter(
    "repro_service_jobs_submitted_total",
    "Jobs submitted to the live service",
    labelnames=("outcome",),
)
_JOBS_FINISHED = _metrics.REGISTRY.counter(
    "repro_service_jobs_finished_total",
    "Live jobs reaching a terminal state",
    labelnames=("outcome",),
)
_TASKS = _metrics.REGISTRY.counter(
    "repro_service_task_attempts_total",
    "Task attempts completed (or lost) on live workers",
    labelnames=("outcome",),
)
_LEASES = _metrics.REGISTRY.counter(
    "repro_service_leases_total", "Task leases granted to workers"
)
_TICKS = _metrics.REGISTRY.counter(
    "repro_service_ticks_total",
    "Live control-loop ticks",
    labelnames=("disposition",),
)
_WORKERS_LOST = _metrics.REGISTRY.counter(
    "repro_service_workers_lost_total",
    "Workers declared dead by heartbeat timeout",
)
_WORKERS_GAUGE = _metrics.REGISTRY.gauge(
    "repro_service_workers", "Live registered workers"
)
_RUNNING_GAUGE = _metrics.REGISTRY.gauge(
    "repro_service_jobs_running", "Jobs currently executing"
)
_CONNECTIONS = _metrics.REGISTRY.counter(
    "repro_service_connections_total",
    "TCP connections accepted by the arbiter",
)
_REQUESTS = _metrics.REGISTRY.counter(
    "repro_service_requests_total",
    "HTTP requests routed by the arbiter (requests / connections is the "
    "keep-alive reuse ratio)",
    labelnames=("endpoint",),
)
#: Counter cells are plain floats and handler threads run concurrently.
_REQUESTS_LOCK = threading.Lock()


class ServiceError(RuntimeError):
    """A request the service refuses; carries the HTTP status to send."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = int(status)


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs for one :class:`ClusterService`.

    ``tick_seconds`` and ``heartbeat_timeout`` are *virtual* and *wall*
    seconds respectively: the control period belongs to the model's time
    base, liveness detection to the real one.  The arbiter still tells
    time once — liveness is stamped with ``ClusterService.now()`` and the
    timeout divided by ``time_scale`` at the sweep.
    """

    host: str = "127.0.0.1"
    port: Amount = 0
    #: Guaranteed-token capacity of the experimental slice.  Sized so a
    #: small host can physically deliver it: every running token costs
    #: one HTTP completion round-trip per task.  Measured closed-loop
    #: ceiling on the 2-vCPU reference host (two slots, 1 ms tasks; the
    #: ``service_saturate`` workload of benchmarks/ladder, ``work_per_s``):
    #: ~870 completions per wall second with a TCP connection per
    #: request, ~1 340 on persistent connections.
    capacity_tokens: Count = 40
    #: Control period in virtual seconds (the paper re-plans every ~10 s
    #: of job time; profiles here live on a minutes scale).  Re-planning
    #: holds the service lock, so much shorter periods steal wall time
    #: from the completion path on small hosts.
    tick_seconds: Positive = 60.0
    #: Wall seconds per virtual second (0.02 -> 50x compression).
    #: Deeper compression is possible but squeezes HTTP round-trip
    #: latency into ever-larger *virtual* overheads per task, opening a
    #: gap between the simulation-trained C(p, a) model and live runs.
    time_scale: Positive = 0.02
    #: Wall seconds of silence before a worker is declared lost.
    heartbeat_timeout: Positive = 5.0
    max_task_attempts: Count = 4
    seed: Amount = 0
    #: (tenant, quota) pairs; empty means one "default" tenant owning the
    #: whole capacity.
    tenants: Tuple[Tuple[str, int], ...] = ()
    #: Every controller's parameters; its ``slack`` is also the one
    #: admission reserves against and ``template_info`` sizes with.
    control: ControlConfig = field(default_factory=ControlConfig)
    #: Control-plane chaos applied to the *live* loop (dropped ticks,
    #: predictor blackouts).  Blackout windows are virtual seconds since
    #: service start.
    control_faults: Optional[ControlFaults] = None

    def __post_init__(self):
        check(self, ServiceError)
        if self.port > 65535:
            refuse(self, "port", "an integer in [0, 65535]", ServiceError)
        if not all(is_count(quota) for _tenant, quota in self.tenants):
            refuse(self, "tenants", "(name, integer >= 1) pairs", ServiceError)

    @property
    def effective_poll_seconds(self) -> float:
        """Wall-seconds poll interval handed to workers: ~2 virtual
        seconds of wall time bounded to [5 ms, 50 ms], so idle polling
        costs only a couple of *virtual* seconds regardless of
        compression."""
        return max(0.005, min(0.05, 2.0 * self.time_scale))


@dataclass
class _Worker:
    worker_id: str
    name: str
    slots: int
    last_seen: float                     # virtual seconds (service.now())
    lost: bool = False
    #: task_id -> job_id for every lease this worker holds.
    leased: Dict[str, str] = field(default_factory=dict)


@dataclass
class _Lease:
    task_id: str
    worker_id: str
    stage: str
    index: int
    attempt: int
    ready_v: float
    start_v: float


_TERMINAL = ("completed", "failed", "rejected")


class LiveJob:
    """One job's server-side state (always mutated under the service lock)."""

    def __init__(
        self,
        *,
        job_id: str,
        name: str,
        tenant: str,
        graph: JobGraph,
        trained: Optional[TrainedTemplate],
        policy_kind: str,
        policy,
        deadline_seconds: float,
        submitted_v: float,
        command: Optional[List[str]] = None,
        task_seconds: float = 1.0,
    ):
        self.job_id = job_id
        self.name = name
        self.tenant = tenant
        self.graph = graph
        self.trained = trained
        self.policy_kind = policy_kind
        self.policy = policy
        self.deadline_seconds = float(deadline_seconds)
        self.submitted_v = float(submitted_v)
        self.command = list(command) if command else None
        self.task_seconds = float(task_seconds)

        self.status = "queued"
        self.reject_reason: Optional[str] = None
        self.market = None               # MarketJob once admitted
        self.started_v: Optional[float] = None
        self.allocation = 0
        self.consumed_token_seconds = 0.0
        self.workers_lost = 0

        self.tracker = DependencyTracker(graph)
        self.done: set = set()           # (stage, index) first successes
        self.attempts: Dict[Tuple[str, int], int] = {}
        self.ready: Deque[Tuple[Tuple[str, int], float]] = deque()
        self.running: Dict[str, _Lease] = {}
        self.trace: Optional[RunTrace] = None

    # -- observation ---------------------------------------------------

    def snapshot(self, now: float) -> JobSnapshot:
        """What the controller sees at ``now`` (the tick's one clock
        reading): elapsed is ``now - started_v``."""
        return JobSnapshot(
            self.tracker.stage_fractions(),
            max(0.0, now - self.started_v),
            running=len(self.running),
            allocation=self.allocation,
            consumed_token_seconds=self.consumed_token_seconds,
        )

    @property
    def terminal(self) -> bool:
        return self.status in _TERMINAL

    def latest_prediction(self) -> Optional[TickRecord]:
        """The newest decision that carried an interval forecast."""
        controller = getattr(self.policy, "controller", None)
        audit = controller.audit if controller is not None else ()
        return next((r for r in reversed(audit) if r.bands), None)

    # -- serialization -------------------------------------------------

    def describe(self, now: float) -> Dict:
        info = {
            "job_id": self.job_id,
            "name": self.name,
            "tenant": self.tenant,
            "status": self.status,
            "policy": self.policy_kind,
            "deadline_seconds": self.deadline_seconds,
            "allocation": self.allocation,
            "running_tasks": len(self.running),
            "completed_tasks": len(self.done),
            "total_tasks": self.graph.num_vertices,
            "stage_fractions": self.tracker.stage_fractions(),
            "workers_lost": self.workers_lost,
        }
        if self.reject_reason:
            info["reason"] = self.reject_reason
        if self.market is not None:
            info["guarantee"] = self.market.guarantee
        if self.started_v is not None:
            end = self.trace.end_time if self.trace and self.trace.finished else now
            info["elapsed_seconds"] = max(0.0, end - self.started_v)
        if self.trace is not None and self.trace.finished:
            info["duration_seconds"] = self.trace.duration
            info["met_deadline"] = self.trace.duration <= self.deadline_seconds
        return info


#: Each request body's fields and their types (:func:`repro.persist.spec_fields`);
#: a field a request leaves out takes the default its method names.
_REGISTER = {"name": str, "slots": int}
_HEARTBEAT = {"worker_id": str}
_LEASE = {"worker_id": str, "max_tasks": int}
_COMPLETE = {"worker_id": str, "task_id": str, "outcome": str, "lease_max": int}
_SHUTDOWN = {"drain": bool}
#: A submission's ``bundle`` is typed by ``persist.bundle_from_dict``.
_SUBMIT = {"deadline_minutes": float, "tenant": str, "policy": str, "name": Optional[str],
           "template": Optional[str], "bundle": Any, "command": Any}
_COMMAND = {"argv": List[str], "tasks": int, "task_seconds": float}


def _serialize_prediction(rec: TickRecord) -> Dict:
    return {
        "tick": rec.tick,
        "elapsed": rec.elapsed,
        "allocation": rec.allocation,
        "median": rec.median,
        "bands": [
            {"level": b.level, "lo": b.lo, "hi": b.hi} for b in rec.bands
        ],
    }


class ClusterService:
    """The arbiter: admission, allocation, leasing, liveness — one lock."""

    def __init__(
        self,
        config: ServiceConfig = ServiceConfig(),
        *,
        store: Optional[TemplateModelStore] = None,
    ):
        self.config = config
        self.store = store if store is not None else TemplateModelStore(
            seed=config.seed
        )
        self.clock: Optional[WallClock] = None
        self._lock = threading.RLock()
        self._admission = MarketAdmission(slack=config.control.slack)
        tenant_pairs = config.tenants or (("default", config.capacity_tokens),)
        self._tenants = {
            name: Tenant(name=name, quota=int(quota))
            for name, quota in tenant_pairs
        }
        self._jobs: Dict[str, LiveJob] = {}
        #: Jobs with status "running", ordered by (started_v, job_id):
        #: the FIFO service order of ``_grant_tasks``.
        self._running: List[LiveJob] = []
        #: sum(len(job.running)) over every job, kept where leases move.
        self._running_tasks = 0
        self._workers: Dict[str, _Worker] = {}
        self._job_seq = 0
        self._worker_seq = 0
        self._rng = np.random.default_rng(derive_seed(config.seed, "service-durations"))
        self._chaos_rng = np.random.default_rng(derive_seed(config.seed, "service-chaos"))
        self._draining = False
        self._drained = threading.Event()
        self._stop = threading.Event()
        self._httpd: Optional[_ServiceHTTPServer] = None
        self._http_thread: Optional[threading.Thread] = None
        self._control_thread: Optional[threading.Thread] = None
        self._port: Optional[int] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> int:
        """Bind, start the HTTP and control threads, return the port."""
        if self._httpd is not None:
            raise ServiceError("service already started", status=409)
        self.clock = WallClock(time_scale=self.config.time_scale)
        self._httpd = _ServiceHTTPServer(
            (self.config.host, self.config.port), self
        )
        self._port = self._httpd.server_address[1]
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-service-http",
            daemon=True,
        )
        self._http_thread.start()
        self._control_thread = threading.Thread(
            target=self._control_loop, name="repro-service-control", daemon=True
        )
        self._control_thread.start()
        return self._port

    @property
    def port(self) -> Optional[int]:
        return self._port

    @property
    def url(self) -> str:
        if self._port is None:
            raise ServiceError("service not started", status=409)
        return f"http://{self.config.host}:{self._port}"

    def now(self) -> float:
        """Virtual seconds since the service started."""
        return self.clock.now() if self.clock is not None else 0.0

    @property
    def shutdown_requested(self) -> bool:
        """True once a stop should proceed: an immediate stop was
        requested, or a drain was requested and the last job finished."""
        if self._stop.is_set():
            return True
        with self._lock:
            return self._draining and self._drained.is_set()

    def stop(self, *, drain: bool = True, timeout: Optional[float] = 30.0) -> None:
        """Shut down; with ``drain`` wait for live jobs to finish first."""
        if drain:
            with self._lock:
                self._draining = True
                if not self._has_open_jobs():
                    self._drained.set()
            self._drained.wait(timeout)
        self._stop.set()
        if drain:
            # Keep answering for a couple of poll intervals so workers
            # see the shutdown flag and exit cleanly instead of timing
            # out against a closed socket.
            time.sleep(3.0 * self.config.effective_poll_seconds)
        if self._control_thread is not None:
            self._control_thread.join(timeout=5.0)
            self._control_thread = None
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd.close_connections()
            # The handlers' only path to this service: without it a
            # stopped service is freed by refcount, jobs and traces too.
            self._httpd.service = None
            self._httpd = None
        if self._http_thread is not None:
            self._http_thread.join(timeout=5.0)
            self._http_thread = None

    def __enter__(self) -> "ClusterService":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop(drain=False)

    def _has_open_jobs(self) -> bool:
        return any(not job.terminal for job in self._jobs.values())

    # ------------------------------------------------------------------
    # Control loop
    # ------------------------------------------------------------------

    def _control_loop(self) -> None:
        tick_wall = max(0.005, self.config.tick_seconds * self.config.time_scale)
        while not self._stop.is_set():
            if self._stop.wait(tick_wall):
                break
            try:
                self.tick()
            except Exception:                      # pragma: no cover
                # A control hiccup must never take the arbiter down; the
                # next tick retries from current state.
                _TICKS.labels(disposition="error").inc()

    def tick(self) -> None:
        """One live control period: liveness sweep, admission, re-plan."""
        now = self.now()
        with self._lock:
            self._sweep_workers(now)
            self._admit_queued(now)
            disposition = self._tick_disposition()
            _TICKS.labels(disposition=disposition).inc()
            if disposition == "ok":
                self._replan(now)
            if self._draining and not self._has_open_jobs():
                self._drained.set()
            _WORKERS_GAUGE.set(
                sum(1 for w in self._workers.values() if not w.lost)
            )
            _RUNNING_GAUGE.set(len(self._running))

    def _tick_disposition(self) -> str:
        faults = self.config.control_faults
        if faults is None:
            return "ok"
        p_skip = faults.drop_tick_prob + faults.delay_tick_prob
        if p_skip > 0 and self._chaos_rng.random() < p_skip:
            # Live loop folds "delayed" into "dropped": a decision that
            # misses its period is applied at the next one anyway.
            return "dropped"
        return "ok"

    def _sweep_workers(self, now: float) -> None:
        # Configured in wall seconds, compared on the service clock: one
        # wall second is 1 / time_scale virtual seconds.
        timeout = self.config.heartbeat_timeout / self.config.time_scale
        for worker in list(self._workers.values()):
            if worker.lost or now - worker.last_seen <= timeout:
                continue
            worker.lost = True
            _WORKERS_LOST.inc()
            for task_id, job_id in list(worker.leased.items()):
                job = self._jobs.get(job_id)
                if job is None:
                    continue
                lease = job.running.pop(task_id, None)
                if lease is None:
                    continue
                self._running_tasks -= 1
                end_v = max(now, lease.start_v)
                if job.trace is not None:
                    job.trace.add(TaskRecord(
                        stage=lease.stage,
                        index=lease.index,
                        attempt=lease.attempt,
                        ready_time=lease.ready_v,
                        start_time=lease.start_v,
                        end_time=end_v,
                        outcome=OUTCOME_EVICTED,
                    ))
                    job.trace.mark_running(end_v, len(job.running))
                _TASKS.labels(outcome="lost").inc()
                job.workers_lost += 1
                # Re-queue for another worker; eviction does not count
                # against max_task_attempts (the task did nothing wrong).
                job.ready.append(((lease.stage, lease.index), end_v))
            worker.leased.clear()

    def _admit_queued(self, now: float) -> None:
        admitted, rejected = self._admission.tick(self._tenants, now)
        for market_job in admitted:
            job = self._jobs.get(market_job.spec.name)
            if job is not None and job.status == "queued":
                job.market = market_job
                self._activate(job, now)
        # A spec the admission tick drops takes its job with it, for the
        # reason the tick gave.
        for spec, reason in rejected:
            job = self._jobs.get(spec.name)
            if job is not None and job.status == "queued":
                job.status = "rejected"
                job.reject_reason = reason
                _JOBS_FINISHED.labels(outcome="rejected").inc()

    def _replan(self, now: float) -> None:
        for job in self._jobs.values():
            if job.status != "running" or not job.policy.adaptive:
                continue
            try:
                new_alloc = job.policy.on_tick(job.snapshot(now))
            except Exception:
                # PredictorUnavailable escapes only from misconfiguration;
                # the controller itself degrades internally.  Hold.
                new_alloc = None
            if new_alloc is not None and new_alloc != job.allocation:
                job.allocation = max(1, int(new_alloc))
                if job.trace is not None:
                    job.trace.mark_allocation(now, job.allocation)

    # ------------------------------------------------------------------
    # Jobs
    # ------------------------------------------------------------------

    def submit(self, body: Dict) -> Dict:
        """Admit one submission through the market front door."""
        fields = persist.spec_fields(body, _SUBMIT, ServiceError, path="submit",
                                    required=["deadline_minutes"])
        tenant_name = fields.get("tenant", "default")
        policy_kind = fields.get("policy", "jockey")
        deadline_v = fields["deadline_minutes"] * 60.0
        if not 0 < deadline_v < math.inf:
            raise ServiceError("deadline_minutes must be positive and finite, "
                               f"got {fields['deadline_minutes']!r}")
        template, bundle, command = map(fields.get, ("template", "bundle", "command"))
        if sum(x is not None for x in (template, bundle, command)) != 1:
            raise ServiceError("submit needs exactly one of template, bundle, command")
        if command is not None:
            command = persist.spec_fields(command, _COMMAND, ServiceError,
                                          path="submit.command", required=["argv"])
            num_tasks, task_seconds = command.get("tasks", 1), command.get("task_seconds", 1.0)
            if not command["argv"] or num_tasks < 1 or not task_seconds > 0:
                raise ServiceError("command needs a non-empty argv and positive "
                                   "tasks and task_seconds")
            if num_tasks > sys.float_info.max or not num_tasks * task_seconds < math.inf:
                raise ServiceError("submit.command.tasks x task_seconds is beyond float range")

        # Resolve the model outside the service lock: a cold template
        # trains for seconds and must not block heartbeats.
        trained: Optional[TrainedTemplate] = None
        try:
            if template is not None:
                trained = self.store.get(template)
            elif bundle is not None:
                trained = self.store.from_bundle_payload(bundle)
        except TemplateError as exc:
            raise ServiceError(str(exc)) from exc

        with self._lock:
            if self._draining:
                raise ServiceError("service is draining", status=503)
            tenant = self._tenants.get(tenant_name)
            if tenant is None:
                raise ServiceError(
                    f"unknown tenant {tenant_name!r} "
                    f"(registered: {', '.join(sorted(self._tenants))})",
                    status=404,
                )
            now = self.now()
            job_id = f"job-{self._job_seq + 1:05d}"
            table = profile = None
            if trained is not None:
                task_seconds = 0.0
                graph, profile, table = trained.graph, trained.profile, trained.table
                work = trained.total_work_seconds
                width = self._slice(trained.width)
                name = fields.get("name") or trained.name
            else:
                name = fields.get("name") or f"cmd-{job_id}"
                graph = JobGraph(name, [Stage("cmd", num_tasks)], [])
                work = num_tasks * task_seconds
                width = self._slice(num_tasks)
            control = self.config.control
            try:
                policy = build_policy(
                    policy_kind,
                    table=table,
                    indicator=(
                        totalwork_with_q(profile) if table is not None else None
                    ),
                    profile=profile,
                    utility=deadline_utility(deadline_v),
                    control=replace(control, max_tokens=width),
                )
                spec = MarketJobSpec(
                    name=job_id,
                    tenant=tenant_name,
                    work=work,
                    width=width,
                    deadline_seconds=deadline_v,
                    submit_seconds=now,
                )
            except (ControlError, PolicyError, ProgressError, MarketError) as exc:
                raise ServiceError(str(exc)) from exc
            # Everything that can refuse the request has had its say; only
            # now does the job take an id and exist.
            self._job_seq += 1
            job = LiveJob(
                job_id=job_id,
                name=name,
                tenant=tenant_name,
                graph=graph,
                trained=trained,
                policy_kind=policy_kind,
                policy=policy,
                deadline_seconds=deadline_v,
                submitted_v=now,
                command=command and command["argv"],
                task_seconds=task_seconds,
            )
            self._jobs[job_id] = job
            tenant.submitted += 1
            outcome, market_job, reason = self._admission.admit_one(
                tenant, spec, now
            )
            _JOBS_SUBMITTED.labels(outcome=outcome).inc()
            if outcome == "admitted":
                job.market = market_job
                self._activate(job, now)
            elif outcome == "queued":
                tenant.queue.append(spec)
            else:
                job.status = "rejected"
                job.reject_reason = reason
                _JOBS_FINISHED.labels(outcome="rejected").inc()
            response = {
                "job_id": job_id,
                "status": job.status,
                "deadline_seconds": deadline_v,
            }
            if reason:
                response["reason"] = reason
            if job.market is not None:
                response["guarantee"] = job.market.guarantee
            prediction = job.latest_prediction()
            if prediction is not None:
                response["prediction"] = _serialize_prediction(prediction)
            return response

    def _activate(self, job: LiveJob, now: float) -> None:
        """Queued -> running: start the trace, pick the first allocation."""
        job.status = "running"
        job.started_v = now
        # Once per job, on a list already in order: cheap.
        self._running.append(job)
        self._running.sort(key=lambda j: (j.started_v, j.job_id))
        job.trace = RunTrace(
            job_name=job.name, start_time=now, deadline=job.deadline_seconds
        )
        controller = getattr(job.policy, "controller", None)
        faults = self.config.control_faults
        if controller is not None and faults is not None and faults.blackouts:
            controller.predictor = BlackoutPredictor(
                controller.predictor, self.now, faults.blackouts
            )
        try:
            job.allocation = max(1, int(job.policy.initial_allocation()))
        except Exception:
            # Degraded start (e.g. blackout at t=0): hold the market
            # guarantee until the predictor comes back.
            job.allocation = job.market.guarantee if job.market else 1
        job.trace.mark_allocation(now, job.allocation)
        for task in job.tracker.initially_ready():
            job.ready.append((task, now))

    def _end_job(self, job: LiveJob, now: float, failure: Optional[str]) -> None:
        """Running -> terminal, exactly once per job: leave the grant
        order, close the trace, count the outcome and hand the guarantee
        back to the tenant.  ``failure`` is the reason a failed job gives;
        None completes it."""
        self._running.remove(job)
        job.trace.end_time = max(now, job.trace.start_time)
        met = failure is None and job.trace.duration <= job.deadline_seconds
        if failure is None:
            job.status = "completed"
            _JOBS_FINISHED.labels(outcome="met" if met else "missed").inc()
        else:
            job.status = "failed"
            job.reject_reason = failure
            _JOBS_FINISHED.labels(outcome="failed").inc()
        tenant = self._tenants.get(job.tenant)
        if tenant is not None:
            market_job = tenant.release(job.job_id)
            if market_job is not None:
                market_job.finished_at = now
                if failure is None:
                    market_job.remaining = 0.0
            tenant.completed += 1
            if met:
                tenant.met += 1

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------

    def register_worker(self, body: Dict) -> Dict:
        fields = persist.spec_fields(body, _REGISTER, ServiceError, path="register")
        name, slots = fields.get("name", "worker"), fields.get("slots", 1)
        if slots < 1:
            raise ServiceError(f"slots must be >= 1, got {slots!r}")
        with self._lock:
            self._worker_seq += 1
            worker_id = f"w-{self._worker_seq:03d}"
            self._workers[worker_id] = _Worker(
                worker_id=worker_id,
                name=name,
                slots=slots,
                last_seen=self.now(),
            )
            _WORKERS_GAUGE.set(
                sum(1 for w in self._workers.values() if not w.lost)
            )
        return {
            "worker_id": worker_id,
            "poll_seconds": self.config.effective_poll_seconds,
            # Completions refresh liveness too, so a busy worker only
            # needs this slow safety beat — not one per poll interval.
            "heartbeat_seconds": max(0.1, self.config.heartbeat_timeout / 5.0),
            "time_scale": self.config.time_scale,
        }

    def _worker(self, worker_id: str) -> _Worker:
        worker = self._workers.get(worker_id)
        if worker is None:
            raise ServiceError(f"unknown worker {worker_id!r}", status=404)
        if worker.lost:
            raise ServiceError(
                f"worker {worker_id!r} was declared lost "
                "(heartbeat timeout); re-register",
                status=409,
            )
        return worker

    def heartbeat(self, body: Dict) -> Dict:
        worker_id = persist.spec_fields(body, _HEARTBEAT, ServiceError, path="heartbeat",
                                        required=["worker_id"])["worker_id"]
        with self._lock:
            worker = self._worker(worker_id)
            worker.last_seen = self.now()
            return {"ok": True, "shutdown": self._stop.is_set()}

    def lease(self, body: Dict) -> Dict:
        """Hand out ready tasks up to each job's current allocation."""
        fields = persist.spec_fields(body, _LEASE, ServiceError, path="lease",
                                     required=["worker_id"])
        max_tasks = fields.get("max_tasks", 1)
        with self._lock:
            worker = self._worker(fields["worker_id"])
            worker.last_seen = self.now()
            granted = self._grant_tasks(worker, max_tasks)
            return {
                "tasks": granted,
                "poll_seconds": self.config.effective_poll_seconds,
                "shutdown": self._stop.is_set(),
            }

    def _grant_tasks(self, worker: _Worker, max_tasks: int) -> List[Dict]:
        """Grant up to ``max_tasks`` ready tasks to ``worker`` (lock held)."""
        granted: List[Dict] = []
        if max_tasks <= 0 or self._stop.is_set():
            return granted
        now = self.now()
        # Earliest-started first: FIFO service order, stable across calls.
        for job in self._running:
            while (
                job.ready
                and len(job.running) < job.allocation
                and self._running_tasks < self.config.capacity_tokens
                and len(granted) < max_tasks
            ):
                granted.append(self._grant(job, worker, now))
            if len(granted) >= max_tasks:
                break
        if granted:
            _LEASES.inc(len(granted))
        return granted

    def _grant(self, job: LiveJob, worker: _Worker, now: float) -> Dict:
        (stage, index), ready_v = job.ready.popleft()
        attempt = job.attempts.get((stage, index), 0)
        task_id = f"{job.job_id}/{stage}/{index}/{attempt}"
        job.running[task_id] = _Lease(
            task_id=task_id,
            worker_id=worker.worker_id,
            stage=stage,
            index=index,
            attempt=attempt,
            ready_v=ready_v,
            start_v=now,
        )
        worker.leased[task_id] = job.job_id
        self._running_tasks += 1
        if job.trace is not None:
            job.trace.mark_running(now, len(job.running))
        payload = {"task_id": task_id, "job_id": job.job_id, "stage": stage}
        if job.command is not None:
            payload["mode"] = "command"
            payload["argv"] = list(job.command)
        else:
            profile_stage = job.trained.profile.stage(stage)
            duration_v = max(
                0.0,
                float(profile_stage.init.sample(self._rng))
                + float(profile_stage.runtime.sample(self._rng)),
            )
            payload["mode"] = "sleep"
            payload["wall_seconds"] = duration_v * self.config.time_scale
        return payload

    def complete_task(self, body: Dict) -> Dict:
        fields = persist.spec_fields(body, _COMPLETE, ServiceError, path="complete",
                                     required=["worker_id", "task_id"])
        task_id = fields["task_id"]
        outcome = fields.get("outcome", OUTCOME_OK)
        if outcome not in (OUTCOME_OK, OUTCOME_FAILED):
            raise ServiceError(f"unknown outcome {outcome!r}")
        lease_max = fields.get("lease_max", 0)
        with self._lock:
            worker = self._workers.get(fields["worker_id"])
            if worker is None or worker.lost:
                # A zombie finishing after its heartbeat lapsed: the task
                # was already re-queued; the result is stale.
                raise ServiceError(
                    f"stale completion for {task_id!r}: worker no longer live",
                    status=409,
                )
            clock_now = self.now()
            worker.last_seen = clock_now
            job_id = task_id.split("/", 1)[0]
            job = self._jobs.get(job_id)
            lease = job.running.get(task_id) if job is not None else None
            if lease is None or lease.worker_id != worker.worker_id:
                raise ServiceError(
                    f"no live lease for {task_id!r} held by "
                    f"{worker.worker_id!r}",
                    status=409,
                )
            del job.running[task_id]
            self._running_tasks -= 1
            worker.leased.pop(task_id, None)
            # A failed job's other leases still report in: their slots are
            # free again, and the job stays as it ended.
            if not job.terminal:
                self._settle(job, lease, outcome, max(clock_now, lease.start_v))
            reply = {"ok": True, "job_status": job.status}
            # Piggybacked lease: chaining the next task onto the
            # completion reply removes a full poll interval of *virtual*
            # dead time per task, which at high compression is the
            # difference between meeting and missing deadlines.
            if lease_max > 0:
                reply["tasks"] = self._grant_tasks(worker, lease_max)
            return reply

    def _settle(self, job: LiveJob, lease: _Lease, outcome: str, now: float) -> None:
        """Record a running job's finished task attempt (lock held): an ok
        one releases its successors, a failed one is retried until it has
        failed ``max_task_attempts`` times, which fails the job."""
        record = TaskRecord(
            stage=lease.stage,
            index=lease.index,
            attempt=lease.attempt,
            ready_time=lease.ready_v,
            start_time=lease.start_v,
            end_time=now,
            outcome=outcome,
        )
        job.trace.add(record)
        job.trace.mark_running(now, len(job.running))
        _TASKS.cell(outcome).inc()
        key = (lease.stage, lease.index)
        if outcome == OUTCOME_OK:
            job.consumed_token_seconds += record.run_time
            if key not in job.done:
                job.done.add(key)
                for task in job.tracker.complete(lease.stage, lease.index):
                    job.ready.append((task, now))
            if job.tracker.all_complete():
                self._end_job(job, now, None)
        else:
            attempts = job.attempts.get(key, 0) + 1
            job.attempts[key] = attempts
            if attempts >= self.config.max_task_attempts:
                self._end_job(
                    job, now,
                    f"task {lease.stage}[{lease.index}] failed {attempts} times",
                )
            else:
                job.ready.append((key, now))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def _job(self, job_id: str) -> LiveJob:
        job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError(f"unknown job {job_id!r}", status=404)
        return job

    def job_status(self, job_id: str) -> Dict:
        with self._lock:
            return self._job(job_id).describe(self.now())

    def job_result(self, job_id: str) -> Dict:
        with self._lock:
            job = self._job(job_id)
            if not job.terminal:
                raise ServiceError(
                    f"job {job_id!r} still {job.status}", status=409
                )
            info = job.describe(self.now())
            if job.trace is not None and job.trace.finished:
                info["total_cpu_seconds"] = job.trace.total_cpu_seconds()
                info["wasted_cpu_seconds"] = job.trace.wasted_cpu_seconds()
                info["allocation_seconds"] = job.trace.allocation_seconds()
            return info

    def job_deadline(self, job_id: str) -> Dict:
        """The prediction-observatory view: the interval the controller
        currently promises for this job's completion time."""
        with self._lock:
            job = self._job(job_id)
            now = self.now()
            info = {
                "job_id": job_id,
                "status": job.status,
                "deadline_seconds": job.deadline_seconds,
                "elapsed_seconds": (
                    max(0.0, now - job.started_v)
                    if job.started_v is not None else 0.0
                ),
            }
            prediction = job.latest_prediction()
            info["prediction"] = (
                _serialize_prediction(prediction)
                if prediction is not None else None
            )
            if prediction is not None:
                info["on_track"] = prediction.median <= job.deadline_seconds
            return info

    def job_report(self, job_id: str, fmt: str = "text") -> str:
        """The standard run report (same renderer as ``repro run``)."""
        from repro.telemetry import report as telemetry_report

        if fmt not in ("text", "html"):
            raise ServiceError(f"unknown report format {fmt!r}")
        with self._lock:
            job = self._job(job_id)
            if job.trace is None or not job.trace.finished:
                raise ServiceError(
                    f"job {job_id!r} has no finished trace yet", status=409
                )
            table = job.trained.table if job.trained is not None else None
            run_report = telemetry_report.from_audit_and_trace(
                job.trace,
                run_artifacts(job.policy),
                policy=job.policy_kind,
                table=table,
                title=f"{job.name} / {job.policy_kind} (live)",
                notes=(
                    f"live service run; {job.workers_lost} task attempts "
                    "lost to worker failures",
                ) if job.workers_lost else (),
            )
        if fmt == "html":
            return telemetry_report.render_html(run_report)
        return telemetry_report.render_text(run_report)

    def healthz(self) -> Dict:
        with self._lock:
            return {
                "status": "draining" if self._draining else "ok",
                "time_scale": self.config.time_scale,
                "virtual_now": self.now(),
                "jobs": len(self._jobs),
                "workers": sum(
                    1 for w in self._workers.values() if not w.lost
                ),
            }

    def state(self) -> Dict:
        with self._lock:
            now = self.now()
            return {
                "virtual_now": now,
                "time_scale": self.config.time_scale,
                "capacity_tokens": self.config.capacity_tokens,
                "draining": self._draining,
                "jobs": [
                    job.describe(now)
                    for _, job in sorted(self._jobs.items())
                ],
                "workers": [
                    {
                        "worker_id": w.worker_id,
                        "name": w.name,
                        "slots": w.slots,
                        "lost": w.lost,
                        "leased_tasks": len(w.leased),
                    }
                    for _, w in sorted(self._workers.items())
                ],
                "tenants": {
                    name: tenant.stats()
                    for name, tenant in sorted(self._tenants.items())
                },
                "admission": {
                    "admitted": self._admission.stats.admitted,
                    "rejected": self._admission.stats.rejected,
                    "queue_waits": self._admission.stats.queue_waits,
                },
            }

    def templates(self) -> Dict:
        """Submittable templates; sizing is filled in lazily (asking for a
        template's sizing trains it, which warms the submit path too)."""
        return {"templates": list(self.store.available())}

    def _slice(self, width: int) -> int:
        """The most tokens a job ``width`` tasks wide can run on: the top of
        its policy's grid, and what admission and the quota reserve."""
        return min(self.config.capacity_tokens, width, self.config.control.max_tokens)

    def template_info(self, name: str) -> Dict:
        try:
            trained = self.store.get(name)
        except TemplateError as exc:
            raise ServiceError(str(exc), status=404) from exc
        width = self._slice(trained.width)
        work = trained.total_work_seconds
        return {
            "template": name,
            "stages": {
                s.name: s.num_tasks for s in trained.graph.stages
            },
            "total_work_seconds": work,
            "width": width,
            # Smallest relative deadline the market will ever admit at
            # full width (callers should submit with headroom above it).
            "min_feasible_seconds": (
                self.config.control.slack * work / max(1, width)
            ),
        }

    def request_shutdown(self, body: Dict) -> Dict:
        drain = persist.spec_fields(body, _SHUTDOWN, ServiceError,
                                    path="shutdown").get("drain", True)
        with self._lock:
            self._draining = True
            if not drain or not self._has_open_jobs():
                self._drained.set()
        if not drain:
            self._stop.set()
        return {"ok": True, "draining": drain}


# ----------------------------------------------------------------------
# HTTP plumbing (same http.server idiom as telemetry/exposition.py)
# ----------------------------------------------------------------------


class _ServiceHTTPServer(ThreadingHTTPServer):
    """A thread per *connection*, each one tracked so ``stop()`` can end it.

    The stdlib default listen backlog of 5 drops (RST) connections the
    moment a fleet's first wave lands; a deep backlog absorbs it without
    touching any request handling.
    """

    daemon_threads = True
    request_queue_size = 128

    def __init__(self, address: Tuple[str, int], service: ClusterService):
        super().__init__(address, _Handler)
        self.service: Optional[ClusterService] = service
        self._open: Dict[socket.socket, threading.Thread] = {}
        self._open_lock = threading.Lock()

    def process_request(self, request, client_address) -> None:
        _CONNECTIONS.inc()          # only the accept loop runs this
        thread = threading.Thread(
            target=self.process_request_thread,
            args=(request, client_address),
            name="repro-service-conn",
            daemon=True,
        )
        with self._open_lock:
            self._open[request] = thread
        thread.start()

    def shutdown_request(self, request) -> None:
        with self._open_lock:
            self._open.pop(request, None)
        super().shutdown_request(request)

    def close_connections(self) -> None:
        """End every open connection and join its handler thread (call
        after ``shutdown()``: nothing is accepted any more)."""
        with self._open_lock:
            open_now = list(self._open.items())
        for request, _thread in open_now:
            try:
                # Wakes a handler blocked reading the next request.
                request.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass                # the peer already reset it
        for _request, thread in open_now:
            thread.join(timeout=5.0)


_POST_ROUTES = {
    "/v1/workers/register": "register_worker",
    "/v1/workers/heartbeat": "heartbeat",
    "/v1/workers/lease": "lease",
    "/v1/tasks/complete": "complete_task",
    "/v1/jobs": "submit",
    "/v1/shutdown": "request_shutdown",
}
_GET_ROUTES = {
    "/healthz": "healthz",
    "/v1/state": "state",
    "/v1/templates": "templates",
}
_JOB_ROUTES = {
    "": "job_status",
    "result": "job_result",
    "deadline": "job_deadline",
}


class _Handler(BaseHTTPRequestHandler):
    """One per connection; reaches the arbiter through ``self.server``."""

    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"
    #: A keep-alive reply written as two small segments stalls ~40 ms on
    #: Nagle x delayed ACK; so does a request.
    disable_nagle_algorithm = True
    #: Wall seconds a connection may sit idle (or a peer may stall
    #: mid-message) before its thread and socket are reclaimed; pooled
    #: clients reconnect transparently.
    timeout = 30.0
    #: (whole second, its ``Date``): the header is formatted once a second.
    _date = (0, "")

    def parse_request(self) -> bool:
        """The stdlib's request-line rules and ``Connection`` / ``Expect``
        semantics over :func:`read_head`; also refused: no version, and
        any ``Transfer-Encoding``."""
        self.close_connection = True
        self.requestline = line = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        words = line.split()
        if not words:
            return False
        version = words[-1]
        major, dot, minor = version[5:].partition(".")
        try:
            if len(words) != 3:
                raise HeadError(f"request line is not METHOD PATH HTTP/x.y: {line!r}")
            if not (version.startswith("HTTP/") and dot and major.isdecimal()
                    and minor.isdecimal() and max(len(major), len(minor)) <= 10):
                raise HeadError(f"Bad request version ({version!r})")
            number = int(major), int(minor)
            if number >= (2, 0):
                raise HeadError(f"Invalid HTTP version ({version[5:]})", 505)
            self.headers = headers = read_head(self.rfile)
            if "transfer-encoding" in headers:
                raise HeadError("Transfer-Encoding is not supported; send Content-Length", 501)
        except HeadError as exc:
            self.send_error(exc.status, str(exc))
            return False
        self.command, path, self.request_version = words
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path
        conntype = headers.get("connection", "").lower()
        self.close_connection = conntype == "close" or (
            number < (1, 1) and conntype != "keep-alive")
        if headers.get("expect", "").lower() == "100-continue" and version >= "HTTP/1.1":
            return self.handle_expect_100()
        return True

    def send_error(self, code, message=None, explain=None) -> None:
        """Every refusal, the stdlib's own included, as ``{"error": ...}``."""
        self.close_connection = True
        self._send_json(int(code), {"error": message or self.responses[code][0]})

    # -- helpers -------------------------------------------------------

    def _send(self, status: int, body: bytes, content_type: str) -> None:
        """One write: the head ``send_response`` / ``send_header`` wrote, the body."""
        close = "Connection: close\r\n" if self.close_connection else ""
        second = int(time.time())
        if _Handler._date[0] != second:
            _Handler._date = (second, self.date_time_string(second))
        self.wfile.write((
            f"{self.protocol_version} {status} {self.responses[status][0]}\r\n"
            f"Server: {self.server_version} {self.sys_version}\r\n"
            f"Date: {_Handler._date[1]}\r\n"
            f"Content-Type: {content_type}; charset=utf-8\r\n"
            f"Content-Length: {len(body)}\r\n{close}\r\n"
        ).encode("latin-1") + body)

    def _send_json(self, status: int, payload: Dict) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self._send(status, body, "application/json")

    def _read_body(self):
        declared = self.headers.get("content-length") or "0"
        if not (declared.isascii() and declared.isdigit()):
            # Where this message ends is unknown, so the stream is lost.
            self.close_connection = True
            raise ServiceError(f"bad Content-Length {declared!r}")
        length = int(declared)
        if length == 0:
            return {}
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError(f"request body is not JSON: {exc}")

    def _count(self, endpoint: str) -> None:
        with _REQUESTS_LOCK:
            _REQUESTS.cell(endpoint).inc()

    def _unknown(self, path: str) -> None:
        self._count("unknown")
        raise ServiceError(f"unknown endpoint {path!r}", status=404)

    def _dispatch(self, fn) -> None:
        try:
            try:
                fn()
            except ServiceError as exc:
                self._send_json(exc.status, {"error": str(exc)})
            except (ConnectionError, socket.timeout):
                raise
            except Exception as exc:    # pragma: no cover - defensive
                self._send_json(500, {"error": f"internal error: {exc}"})
        except (ConnectionError, socket.timeout):
            # The peer went away, or stalled mid-message: either way the
            # stream cannot carry another request.
            self.close_connection = True

    # -- routes --------------------------------------------------------

    def do_GET(self) -> None:       # noqa: N802 (http.server API)
        self._dispatch(self._get)

    def do_POST(self) -> None:      # noqa: N802
        self._dispatch(self._post)

    def _get(self) -> None:
        service = self.server.service
        path, _, query = self.path.partition("?")
        path = path.rstrip("/") or "/"
        if path in _GET_ROUTES:
            self._count(path)
            self._send_json(200, getattr(service, _GET_ROUTES[path])())
        elif path == "/metrics":
            self._count(path)
            self._send(
                200, render_prometheus(_metrics.REGISTRY).encode("utf-8"),
                "text/plain; version=0.0.4",
            )
        elif path.startswith("/v1/templates/"):
            self._count("/v1/templates/<name>")
            self._send_json(
                200, service.template_info(path.split("/", 3)[3])
            )
        elif path.startswith("/v1/jobs/"):
            job_id, _, sub = path[len("/v1/jobs/"):].partition("/")
            if sub == "report":
                self._count("/v1/jobs/<id>/report")
                fmt = "text"
                for pair in query.split("&"):
                    if pair.startswith("format="):
                        fmt = pair.split("=", 1)[1]
                self._send(
                    200, service.job_report(job_id, fmt).encode("utf-8"),
                    "text/html" if fmt == "html" else "text/plain",
                )
            elif sub in _JOB_ROUTES:
                self._count(f"/v1/jobs/<id>/{sub}".rstrip("/"))
                self._send_json(
                    200, getattr(service, _JOB_ROUTES[sub])(job_id)
                )
            else:
                self._unknown(path)
        else:
            self._unknown(path)

    def _post(self) -> None:
        path = self.path.partition("?")[0].rstrip("/")
        body = self._read_body()
        if path not in _POST_ROUTES:
            self._unknown(path)
        self._count(path)
        self._send_json(
            200, getattr(self.server.service, _POST_ROUTES[path])(body)
        )

    def log_message(self, fmt: str, *args) -> None:
        pass                        # keep worker chatter off stderr


__all__ = [
    "ClusterService",
    "LiveJob",
    "ServiceConfig",
    "ServiceError",
]
