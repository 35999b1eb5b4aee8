"""Live service lifecycle tests: arbiter + workers, all in-process.

The heavy end-to-end path (CLI serve + worker processes + loadgen) runs
in CI's service-smoke job; here everything shares one process so the
suite stays fast and deterministic.  Templates are injected tiny bundles
— constant task runtimes, a handful of tasks — and time is compressed
hard (a 30-virtual-second task is ~60 ms of wall time).
"""

import gc
import math
import pathlib
import random
import sys
import time
import weakref

import numpy as np
import pytest

from repro.core.clock import ManualClock
from repro.core.control import ControlConfig, ControlError
from repro.core.cpa import CpaTable
from repro.core.policies import POLICY_KINDS, run_artifacts
from repro.core.progress import totalwork_with_q
from repro.jobs.dag import Edge, EdgeType, JobGraph, Stage
from repro.jobs.profiles import JobProfile, StageProfile
from repro.service import (
    ClusterService,
    LoadgenConfig,
    ServiceClient,
    ServiceClientError,
    ServiceConfig,
    ServiceError,
    ServiceWorker,
    TemplateModelStore,
    WorkerConfig,
    generate_workload,
)
from repro.service.loadgen import workload_fingerprint
from repro.simkit.distributions import Constant
from tests.test_core_policies import slice_peak
from tests.test_persist import MALFORMED_SHAPES, break_table


def tiny_store(runtime_map=30.0, runtime_reduce=20.0):
    """A 2-stage map/reduce template with constant task runtimes."""
    graph = JobGraph(
        "tiny",
        [Stage("map", 6), Stage("reduce", 2)],
        [Edge("map", "reduce", EdgeType.ALL_TO_ALL)],
    )
    profile = JobProfile(
        graph,
        {
            "map": StageProfile("map", runtime=Constant(runtime_map)),
            "reduce": StageProfile("reduce", runtime=Constant(runtime_reduce)),
        },
    )
    store = TemplateModelStore(seed=0)
    store.add("tiny", graph, profile, None)
    return store


class TestServiceConfig:
    def test_rejects_bad_capacity(self):
        with pytest.raises(ServiceError):
            ServiceConfig(capacity_tokens=0)

    def test_rejects_bad_time_scale(self):
        with pytest.raises(ServiceError):
            ServiceConfig(time_scale=0.0)

    @pytest.mark.parametrize("knob", ["tick_seconds", "time_scale",
                                      "heartbeat_timeout"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_rejects_non_finite_and_non_positive_seconds(self, knob, value):
        with pytest.raises(ServiceError) as excinfo:
            ServiceConfig(**{knob: value})
        assert str(excinfo.value) == (
            f"ServiceConfig.{knob} must be positive and finite, got {value!r}"
        )

    @pytest.mark.parametrize("kwargs, field", [
        (dict(capacity_tokens=40.5), "capacity_tokens"),
        (dict(capacity_tokens=math.nan), "capacity_tokens"),
        (dict(tenants=(("a", 2.7),)), "tenants"),
    ])
    def test_rejects_a_count_that_is_not_an_integer(self, kwargs, field):
        with pytest.raises(ServiceError, match=f"^ServiceConfig\\.{field}"):
            ServiceConfig(**kwargs)

    def test_rejects_bad_slack(self):
        with pytest.raises(ControlError):
            ServiceConfig(control=ControlConfig(slack=0.5))

    def test_admission_and_sizing_use_the_controllers_slack(self):
        svc = ClusterService(
            ServiceConfig(control=ControlConfig(slack=1.5)), store=tiny_store()
        )
        svc.clock = ManualClock()
        work = svc.store.get("tiny").total_work_seconds
        info = svc.template_info("tiny")
        assert info["min_feasible_seconds"] == pytest.approx(
            1.5 * work / info["width"]
        )
        reply = svc.submit({
            "template": "tiny", "policy": "jockey-no-sim",
            "deadline_minutes": 1.0,
        })
        # The default slack (1.2) would reserve one token fewer.
        assert reply["guarantee"] == math.ceil(1.5 * work / 60.0)
        assert reply["guarantee"] != math.ceil(1.2 * work / 60.0)
        policy = svc._jobs[reply["job_id"]].policy
        assert policy.controller.config.slack == 1.5

    def test_poll_interval_derived_from_time_scale(self):
        assert ServiceConfig(time_scale=0.02).effective_poll_seconds == \
            pytest.approx(0.04)
        # Two virtual seconds of wall time, bounded to [5 ms, 50 ms].
        assert ServiceConfig(time_scale=1.0).effective_poll_seconds == 0.05
        assert ServiceConfig(time_scale=0.001).effective_poll_seconds == 0.005


class TestLifecycle:
    """Server + 2 workers: register, submit, poll to completion."""

    @pytest.fixture(scope="class")
    def service(self):
        config = ServiceConfig(
            capacity_tokens=8,
            tick_seconds=30.0,
            time_scale=0.002,
            heartbeat_timeout=5.0,
        )
        with ClusterService(config, store=tiny_store()) as svc:
            workers = [
                ServiceWorker(
                    WorkerConfig(url=svc.url, name=f"w{i}", slots=4)
                ).start()
                for i in (1, 2)
            ]
            yield svc
            for worker in workers:
                worker.stop()

    @pytest.fixture(scope="class")
    def client(self, service):
        with ServiceClient(service.url) as client:
            yield client

    @pytest.fixture(scope="class")
    def finished_job(self, client):
        reply = client.submit(
            template="tiny", deadline_minutes=30.0, policy="jockey-no-sim"
        )
        info = client.wait(reply["job_id"], timeout=60.0)
        return reply, info

    def test_healthz(self, client):
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            health = client.healthz()
            if health["workers"] == 2:
                break
            time.sleep(0.02)
        assert health["status"] == "ok"
        assert health["workers"] == 2

    def test_templates_listed(self, client):
        assert "tiny" in client.templates()["templates"]
        info = client.template_info("tiny")
        assert info["width"] == 6
        assert info["min_feasible_seconds"] > 0

    def test_submit_runs_to_completion(self, finished_job):
        reply, info = finished_job
        assert reply["status"] in ("running", "queued")
        assert info["status"] == "completed"
        assert info["completed_tasks"] == info["total_tasks"] == 8
        assert info["stage_fractions"] == {"map": 1.0, "reduce": 1.0}
        assert info["duration_seconds"] > 0

    def test_result_includes_trace_accounting(self, client, finished_job):
        reply, _info = finished_job
        result = client.result(reply["job_id"])
        assert result["met_deadline"] is True
        assert result["total_cpu_seconds"] > 0
        assert result["allocation_seconds"] > 0

    def test_report_renders_text_and_html(self, client, finished_job):
        reply, _info = finished_job
        text = client.report(reply["job_id"], "text")
        assert "SLO MET" in text
        html = client.report(reply["job_id"], "html")
        assert html.lstrip().startswith("<!DOCTYPE html>")

    def test_deadline_endpoint_reports_status(self, client, finished_job):
        reply, _info = finished_job
        info = client.deadline(reply["job_id"])
        assert info["deadline_seconds"] == pytest.approx(30.0 * 60.0)

    def test_command_job_executes_subprocesses(self, client):
        reply = client.submit(
            command={
                "argv": [sys.executable, "-c", "pass"],
                "tasks": 2,
                "task_seconds": 1.0,
            },
            deadline_minutes=30.0,
            policy="max-allocation",
        )
        info = client.wait(reply["job_id"], timeout=60.0)
        assert info["status"] == "completed"
        assert info["completed_tasks"] == 2

    def test_metrics_exposed(self, client):
        text = client.metrics_text()
        assert "repro_service_jobs_submitted_total" in text
        assert "repro_service_leases_total" in text

    def test_unknown_template_rejected(self, client):
        with pytest.raises(ServiceClientError) as err:
            client.submit(template="no-such-shape", deadline_minutes=5.0)
        assert "unknown template" in str(err.value)

    def test_unknown_tenant_rejected(self, client):
        with pytest.raises(ServiceClientError) as err:
            client.submit(
                template="tiny", deadline_minutes=5.0, tenant="nobody"
            )
        assert err.value.status == 404

    def test_submit_needs_exactly_one_mode(self, client):
        with pytest.raises(ServiceClientError):
            client.submit(deadline_minutes=5.0)

    def test_infeasible_deadline_rejected_with_reason(self, client):
        reply = client.submit(
            template="tiny", deadline_minutes=0.01, policy="jockey-no-sim"
        )
        assert reply["status"] == "rejected"
        assert reply["reason"]

    def test_unknown_job_404(self, client):
        with pytest.raises(ServiceClientError) as err:
            client.job("job-99999")
        assert err.value.status == 404

    def test_result_conflict_while_running(self, client):
        reply = client.submit(
            template="tiny", deadline_minutes=30.0, policy="jockey-no-sim"
        )
        try:
            client.result(reply["job_id"])
        except ServiceClientError as err:
            assert err.status == 409
        client.wait(reply["job_id"], timeout=60.0)


class TestWorkerLoss:
    """A worker goes silent mid-run: the heartbeat sweep must reschedule
    its tasks (in-process on a manual clock: liveness is told on the
    service clock, so silence is ``clock.advance``, not ``time.sleep``)."""

    CONFIG = ServiceConfig(
        capacity_tokens=8,
        tick_seconds=10.0,
        time_scale=0.01,               # heartbeat_timeout is wall seconds:
        heartbeat_timeout=0.8,         # 0.8 s of silence = 80 virtual seconds
    )
    TIMEOUT_V = CONFIG.heartbeat_timeout / CONFIG.time_scale

    @pytest.fixture
    def svc(self):
        svc = ClusterService(
            self.CONFIG,
            store=tiny_store(runtime_map=100.0, runtime_reduce=50.0),
        )
        svc.clock = ManualClock()
        return svc

    @staticmethod
    def submit(svc):
        reply = svc.submit({
            "template": "tiny", "deadline_minutes": 60.0,
            "policy": "jockey-no-sim",
        })
        assert reply["status"] == "running"
        return reply["job_id"]

    def test_job_survives_worker_crash(self, svc):
        victim = svc.register_worker({"name": "victim", "slots": 4})["worker_id"]
        job_id = self.submit(svc)
        held = svc.lease({"worker_id": victim, "max_tasks": 4})["tasks"]
        assert held
        survivor = svc.register_worker(
            {"name": "survivor", "slots": 4}
        )["worker_id"]
        # The victim crashes: only the survivor beats through the silence.
        svc.clock.advance(self.TIMEOUT_V + 1)
        svc.heartbeat({"worker_id": survivor})
        svc.tick()

        for _round in range(20):
            tasks = svc.lease({"worker_id": survivor, "max_tasks": 4})["tasks"]
            svc.clock.advance(self.CONFIG.tick_seconds)
            for task in tasks:
                svc.complete_task(
                    {"worker_id": survivor, "task_id": task["task_id"]}
                )
            svc.tick()
            if svc.job_status(job_id)["status"] == "completed":
                break
        info = svc.job_status(job_id)
        assert info["status"] == "completed"
        assert info["completed_tasks"] == info["total_tasks"]
        # The loss was detected and attributed to the job.
        assert info["workers_lost"] >= 1
        workers = {w["name"]: w for w in svc.state()["workers"]}
        assert workers["victim"]["lost"] is True
        assert workers["survivor"]["lost"] is False
        # The arbiter is still healthy after the crash.
        assert svc.healthz()["status"] == "ok"

    def test_zombie_completion_rejected(self, svc):
        """A worker that outlives its heartbeat must not report results —
        not even in the very tick that swept it."""
        worker_id = svc.register_worker({"name": "zombie", "slots": 2})["worker_id"]
        self.submit(svc)
        tasks = svc.lease({"worker_id": worker_id, "max_tasks": 1})["tasks"]
        assert tasks
        svc.clock.advance(self.TIMEOUT_V + 1)
        svc.tick()
        with pytest.raises(ServiceError) as err:
            svc.complete_task(
                {"task_id": tasks[0]["task_id"], "worker_id": worker_id}
            )
        assert err.value.status == 409

    def test_lost_one_virtual_second_past_the_timeout(self, svc):
        worker_id = svc.register_worker({"name": "edge", "slots": 1})["worker_id"]
        svc.clock.advance(self.TIMEOUT_V)
        svc.tick()
        assert svc.state()["workers"][0]["lost"] is False
        assert svc.healthz()["workers"] == 1
        svc.clock.advance(1.0)
        svc.tick()
        assert svc.state()["workers"][0]["lost"] is True
        with pytest.raises(ServiceError) as err:
            svc.heartbeat({"worker_id": worker_id})
        assert err.value.status == 409


class TestControllerIsToldTheTime:
    """Table-backed controllers on a manual clock, in-process: at every
    tick each job's newest audit record was decided at the service's one
    reading, ``svc.now() - started_v``, and ``/deadline`` serves the newest
    ledger record."""

    @staticmethod
    def store():
        store = tiny_store()
        tiny = store.get("tiny")
        table = CpaTable.build(
            tiny.profile, totalwork_with_q(tiny.profile),
            np.random.default_rng(0), allocations=(1, 2, 4, 6), reps=1,
            num_bins=20, sample_dt=5.0,
        )
        store.add("tiny", tiny.graph, tiny.profile, table)
        return store

    def test_every_record_is_elapsed_since_start(self):
        svc = ClusterService(
            ServiceConfig(capacity_tokens=8, tick_seconds=10.0),
            store=self.store(),
        )
        svc.clock = ManualClock()
        worker = svc.register_worker({"name": "w", "slots": 8})["worker_id"]
        jobs = []
        for policy in ("jockey", "jockey-online-model"):
            svc.clock.advance(7.0)
            reply = svc.submit({
                "template": "tiny", "policy": policy, "deadline_minutes": 30.0,
            })
            assert reply["status"] == "running"
            jobs.append(svc._jobs[reply["job_id"]])
        decided = 0
        for _round in range(40):
            tasks = svc.lease({"worker_id": worker, "max_tasks": 2})["tasks"]
            svc.clock.advance(10.0)
            for task in tasks:
                svc.complete_task({"worker_id": worker, "task_id": task["task_id"]})
            svc.tick()
            for job in jobs:
                if job.status != "running":
                    continue
                controller = job.policy.controller
                assert controller.audit[-1].phase == "tick"
                assert controller.audit[-1].elapsed == svc.now() - job.started_v
                served = svc.job_deadline(job.job_id)["prediction"]
                newest = [r for r in controller.audit if r.bands][-1]
                assert (served["tick"], served["median"]) == (
                    newest.tick, newest.median
                )
                decided += 1
            if all(job.terminal for job in jobs):
                break
        assert [job.status for job in jobs] == ["completed", "completed"]
        assert decided >= 4


class TestOneSlice:
    """A job's slice is min(control.max_tokens, capacity, width): no
    candidate, decision or held allocation of its policy exceeds it.  A
    ``mapreduce`` job (width 40 on the default 40-token service) submitted
    at ``min_feasible_seconds`` used to start at 61 tokens."""

    @pytest.mark.parametrize("policy", POLICY_KINDS)
    def test_mapreduce_at_min_feasible_stays_within_the_service(self, policy):
        svc = ClusterService(ServiceConfig(), store=TemplateModelStore(seed=0))
        svc.clock = ManualClock()
        info = svc.template_info("mapreduce")
        assert info["width"] == svc.config.capacity_tokens == 40
        reply = svc.submit({
            "template": "mapreduce", "policy": policy,
            "deadline_minutes": info["min_feasible_seconds"] / 60.0,
        })
        assert reply["status"] == "running"
        job = svc._jobs[reply["job_id"]]
        for _ in range(3):
            svc.clock.advance(svc.config.tick_seconds)
            svc.tick()
        records = run_artifacts(job.policy)
        assert slice_peak(records, job.trace.allocation_timeline) <= 40
        if policy == "max-allocation":
            assert job.allocation == 40

    def test_admission_reserves_the_slice_not_the_width(self):
        """With a 10-token slice a ``mapreduce`` job reserves at most 10
        tokens, so a second one is admitted beside it; sized by its width
        (40) the first held the whole quota and the second queued."""
        config = ServiceConfig(control=ControlConfig(max_tokens=10))
        svc = ClusterService(config, store=TemplateModelStore(seed=0))
        svc.clock = ManualClock()
        info = svc.template_info("mapreduce")
        assert info["width"] == 10
        for _ in range(2):
            reply = svc.submit({
                "template": "mapreduce", "policy": "jockey",
                "deadline_minutes": info["min_feasible_seconds"] / 60.0,
            })
            assert reply["status"] == "running"
            assert reply["guarantee"] <= 10


class ScanningService(ClusterService):
    """The grant loop as it was before the running-job index: recount
    every job's leases and re-sort the running jobs on every call."""

    def _grant_tasks(self, worker, max_tasks):
        granted = []
        if max_tasks <= 0 or self._stop.is_set():
            return granted
        now = self.now()
        cluster_running = sum(len(j.running) for j in self._jobs.values())
        jobs = [j for j in self._jobs.values() if j.status == "running"]
        jobs.sort(key=lambda j: (j.started_v, j.job_id))
        for job in jobs:
            while (
                job.ready
                and len(job.running) < job.allocation
                and cluster_running < self.config.capacity_tokens
                and len(granted) < max_tasks
            ):
                granted.append(self._grant(job, worker, now))
                cluster_running += 1
            if len(granted) >= max_tasks:
                break
        return granted


class TestGrantOrder:
    """The indexed grant loop hands out the same task ids, in the same
    order, as the scan it replaced (driven in-process on a manual clock:
    no sockets, no threads)."""

    @pytest.mark.parametrize("seed", [3, 11, 42])
    def test_matches_scanning_reference(self, seed):
        config = ServiceConfig(
            capacity_tokens=8, seed=seed, max_task_attempts=2,
            heartbeat_timeout=5.0, tenants=(("a", 6), ("b", 6)),
        )
        pair = []
        for cls in (ClusterService, ScanningService):
            svc = cls(config, store=tiny_store())
            svc.clock = ManualClock()
            pair.append(svc)
        rng = random.Random(seed)
        workers = [
            self.both(pair, "register_worker", {"name": f"w{i}", "slots": 4})
            ["worker_id"] for i in range(2)
        ]
        leased = []                 # (task_id, worker_id) not yet reported
        grants = 0
        for _step in range(400):
            roll = rng.random()
            if roll < 0.12:
                reply = self.both(pair, "submit", {
                    "template": "tiny", "policy": "jockey-no-sim",
                    "tenant": rng.choice("ab"),
                    "deadline_minutes": rng.choice([1.0, 2.0, 30.0]),
                })
                assert reply["status"] in ("running", "queued", "rejected")
                continue
            if roll < 0.20:
                elapsed = rng.choice([0.5, 7.0, 40.0])
                for svc in pair:
                    svc.clock.advance(elapsed)
                    svc.tick()
                continue
            if roll < 0.23 and len(workers) < 6:
                # A worker goes silent while the others beat; the sweep
                # re-queues its leases.
                lost = workers.pop(rng.randrange(len(workers)))
                for svc in pair:
                    svc.clock.advance(
                        config.heartbeat_timeout / config.time_scale + 1
                    )
                    for live in workers:
                        svc.heartbeat({"worker_id": live})
                    svc.tick()
                leased = [held for held in leased if held[1] != lost]
                workers.append(self.both(
                    pair, "register_worker", {"name": "w", "slots": 4}
                )["worker_id"])
                continue
            worker_id = rng.choice(workers)
            if leased and roll < 0.65:
                task_id, holder = leased.pop(rng.randrange(len(leased)))
                reply = self.both(pair, "complete_task", {
                    "task_id": task_id, "worker_id": holder,
                    "outcome": "failed" if rng.random() < 0.2 else "ok",
                    "lease_max": rng.randrange(3),
                })
                worker_id = holder
            else:
                reply = self.both(pair, "lease", {
                    "worker_id": worker_id, "max_tasks": rng.randrange(1, 4),
                })
            for task in reply.get("tasks", ()):
                leased.append((task["task_id"], worker_id))
                grants += 1
        assert grants > 100
        statuses = {j.status for j in pair[0]._jobs.values()}
        assert {"completed", "failed"} <= statuses

    @staticmethod
    def both(pair, method, body):
        replies = [getattr(svc, method)(dict(body)) for svc in pair]
        assert replies[0] == replies[1]
        for svc in pair:
            assert svc._running_tasks == sum(
                len(j.running) for j in svc._jobs.values()
            )
            assert svc._running == sorted(
                (j for j in svc._jobs.values() if j.status == "running"),
                key=lambda j: (j.started_v, j.job_id),
            )
        return replies[0]


class TestWorkerProtocolValidation:
    """A non-integer in a worker request's integer field is a 400 naming
    the request, the field and the value (in-process on a manual clock),
    and refuses before any state moves."""

    @pytest.fixture
    def svc(self):
        svc = ClusterService(
            ServiceConfig(capacity_tokens=8), store=tiny_store()
        )
        svc.clock = ManualClock()
        return svc

    @staticmethod
    def refused(call, body, field, path):
        with pytest.raises(ServiceError) as excinfo:
            call(body)
        assert excinfo.value.status == 400
        assert str(excinfo.value) == (
            f"{path}: '{field}' must be an integer, got {body[field]!r}"
        )

    @pytest.mark.parametrize("value", ["x", None, float("inf")])
    def test_register_slots(self, svc, value):
        self.refused(
            svc.register_worker, {"name": "w", "slots": value}, "slots",
            "register",
        )
        assert svc.state()["workers"] == []

    @pytest.mark.parametrize("value", ["x", [2], float("nan")])
    def test_lease_max_tasks(self, svc, value):
        worker = svc.register_worker({"name": "w", "slots": 2})["worker_id"]
        self.refused(
            svc.lease, {"worker_id": worker, "max_tasks": value}, "max_tasks",
            "lease",
        )

    @pytest.mark.parametrize("value", ["x", {}, float("inf")])
    def test_complete_lease_max(self, svc, value):
        worker = svc.register_worker({"name": "w", "slots": 2})["worker_id"]
        svc.submit({
            "template": "tiny", "policy": "jockey-no-sim",
            "deadline_minutes": 30.0,
        })
        (task,) = svc.lease({"worker_id": worker, "max_tasks": 1})["tasks"]
        body = {
            "worker_id": worker, "task_id": task["task_id"], "lease_max": value,
        }
        self.refused(svc.complete_task, body, "lease_max", "complete")
        # The refused completion did not land: the lease is still live.
        del body["lease_max"]
        assert svc.complete_task(body)["ok"]


class TestSubmitValidation:
    """``submit`` refuses a bad request before the job exists: no id is
    consumed, nothing is registered, the tenant's counters do not move
    (in-process on a manual clock: no sockets, no threads)."""

    @pytest.fixture
    def svc(self):
        svc = ClusterService(
            ServiceConfig(capacity_tokens=8), store=tiny_store()
        )
        svc.clock = ManualClock()
        return svc

    @staticmethod
    def refused(svc, body):
        with pytest.raises(ServiceError) as excinfo:
            svc.submit(body)
        assert excinfo.value.status == 400
        assert svc._jobs == {}
        assert svc._tenants["default"].submitted == 0
        # No ghost for the next tick to relabel "deadline_passed".
        svc.clock.advance(3600.0)
        svc.tick()
        assert svc.state()["jobs"] == []
        return str(excinfo.value)

    def test_zero_work_bundle_leaves_no_ghost_job(self, svc):
        from repro import persist

        graph = JobGraph("idle", [Stage("noop", 3)], [])
        profile = JobProfile(
            graph, {"noop": StageProfile("noop", runtime=Constant(0.0))}
        )
        bundle = {
            "format_version": persist.FORMAT_VERSION,
            "graph": persist.graph_to_dict(graph),
            "profile": persist.profile_to_dict(profile),
            "table": None,
        }
        message = self.refused(svc, {
            "bundle": bundle, "policy": "max-allocation",
            "deadline_minutes": 10.0,
        })
        assert "work must be positive" in message

    def test_refused_submit_consumes_no_job_id(self, svc):
        self.refused(svc, {
            "command": {"argv": ["true"], "tasks": 0}, "deadline_minutes": 5.0,
            "policy": "max-allocation",
        })
        reply = svc.submit({
            "template": "tiny", "policy": "jockey-no-sim",
            "deadline_minutes": 30.0,
        })
        assert reply["job_id"] == "job-00001"
        assert svc._tenants["default"].submitted == 1

    def test_min_tokens_above_the_jobs_slice_is_a_400(self):
        svc = ClusterService(
            ServiceConfig(capacity_tokens=8, control=ControlConfig(min_tokens=7)),
            store=tiny_store(),
        )
        svc.clock = ManualClock()
        message = self.refused(svc, {
            "template": "tiny", "policy": "jockey-no-sim",
            "deadline_minutes": 30.0,
        })
        assert message == "min_tokens 7 exceeds max_tokens 6"

    def test_back_to_back_submits_each_get_a_verdict(self, svc):
        """The front door never drops: 100 submissions, 100 verdicts."""
        verdicts = {"running": 0, "queued": 0, "rejected": 0}
        for _ in range(100):
            reply = svc.submit({
                "template": "tiny", "policy": "jockey-no-sim",
                "deadline_minutes": 600.0,
            })
            verdicts[reply["status"]] += 1
        assert sum(verdicts.values()) == 100
        assert len(svc._jobs) == svc._tenants["default"].submitted == 100

    @pytest.mark.parametrize("field", ["tasks", "task_seconds"])
    def test_non_numeric_command_field_is_a_400_naming_it(self, svc, field):
        message = self.refused(svc, {
            "command": {"argv": ["true"], field: "abc"},
            "policy": "max-allocation", "deadline_minutes": 5.0,
        })
        what = "an integer" if field == "tasks" else "a finite number"
        assert message == f"submit.command: '{field}' must be {what}, got 'abc'"

    @pytest.mark.parametrize(
        "command", [{"tasks": 10**400}, {"tasks": 10**300, "task_seconds": 1e10}],
        ids=["tasks-beyond-float", "work-beyond-float"],
    )
    def test_command_work_beyond_float_range_is_a_400_naming_tasks(self, svc, command):
        message = self.refused(svc, {
            "command": {"argv": ["true"], **command},
            "policy": "max-allocation", "deadline_minutes": 5.0,
        })
        assert message == "submit.command.tasks x task_seconds is beyond float range"
        reply = svc.submit({
            "template": "tiny", "policy": "jockey-no-sim", "deadline_minutes": 30.0,
        })
        assert reply["job_id"] == "job-00001"

    @pytest.mark.parametrize("deadline", [float("nan"), float("inf")])
    def test_non_finite_deadline_is_a_400_naming_it(self, svc, deadline):
        # json.loads accepts NaN / Infinity, so the wire can carry these.
        message = self.refused(svc, {
            "template": "tiny", "policy": "jockey-no-sim",
            "deadline_minutes": deadline,
        })
        assert "deadline_minutes" in message and repr(deadline) in message

    def test_unknown_policy_lists_the_kinds(self, svc):
        from repro.core.policies import POLICY_KINDS

        message = self.refused(svc, {
            "command": {"argv": ["true"]}, "policy": "jokey",
            "deadline_minutes": 5.0,
        })
        assert "unknown policy 'jokey'" in message
        for kind in POLICY_KINDS:
            assert kind in message
        assert "trained" not in message

    def test_command_job_supports_only_max_allocation(self, svc):
        message = self.refused(svc, {
            "command": {"argv": ["true"]}, "policy": "jockey",
            "deadline_minutes": 5.0,
        })
        assert "supports only max-allocation" in message

    @pytest.mark.parametrize("shape", MALFORMED_SHAPES)
    def test_malformed_table_in_bundle_is_a_400_naming_it(self, svc, shape):
        """A table that parses but that no query could read is refused at
        the door, not found out at the job's first control tick."""
        from repro import persist

        tiny = svc.store.get("tiny")
        table = CpaTable.build(
            tiny.profile, totalwork_with_q(tiny.profile), seed=0,
            allocations=(2, 4), reps=1, num_bins=10,
        )
        broken, reason = break_table(persist.table_to_dict(table), shape)
        message = self.refused(svc, {
            "bundle": {
                "format_version": persist.FORMAT_VERSION,
                "graph": persist.graph_to_dict(tiny.graph),
                "profile": persist.profile_to_dict(tiny.profile),
                "table": broken,
            },
            "policy": "jockey", "deadline_minutes": 30.0,
        })
        assert message == f"cannot load bundle: {reason}"

    def test_malformed_inline_bundle_names_the_field(self, svc):
        message = self.refused(svc, {
            "bundle": {"format_version": 1}, "deadline_minutes": 5.0,
        })
        assert message == (
            "cannot load bundle: bundle: missing field(s) ['graph', 'profile']"
        )
        message = self.refused(svc, {
            "bundle": [1, 2], "deadline_minutes": 5.0,
        })
        assert message == "cannot load bundle: bundle must be an object, got list"


class TestQuotaReturned:
    """A job that ends — finished or failed — hands its guarantee back to
    its tenant's ledger (in-process on a manual clock)."""

    SUBMIT = {"template": "tiny", "policy": "jockey-no-sim",
              "tenant": "a", "deadline_minutes": 1.0}

    def service(self, quota):
        svc = ClusterService(
            ServiceConfig(capacity_tokens=8, max_task_attempts=1,
                          tenants=(("a", quota),)),
            store=tiny_store(),
        )
        svc.clock = ManualClock()
        return svc

    def test_finished_and_failed_jobs_free_their_guarantee(self):
        # Size the quota to exactly one job's guarantee.
        quota = self.service(8).submit(dict(self.SUBMIT))["guarantee"]
        svc = self.service(quota)
        tenant = svc._tenants["a"]
        worker = svc.register_worker({"name": "w", "slots": 8})["worker_id"]
        for outcome, status in (("ok", "completed"), ("failed", "failed")):
            reply = svc.submit(dict(self.SUBMIT))
            assert (reply["status"], reply["guarantee"]) == ("running", quota)
            assert tenant.guaranteed_in_use == quota   # the whole quota
            job = svc._jobs[reply["job_id"]]
            while job.status == "running":
                tasks = svc.lease({"worker_id": worker, "max_tasks": 8})["tasks"]
                assert tasks
                for task in tasks:
                    svc.complete_task({
                        "task_id": task["task_id"], "worker_id": worker,
                        "outcome": outcome,
                    })
            assert job.status == status
            assert tenant.guaranteed_in_use == 0 and tenant.live == {}

    def test_a_queued_job_dropped_by_the_tick_takes_its_reason(self):
        """A queued job whose guarantee outgrows the quota while it waits
        is rejected by the admission tick as ``exceeds_quota``, the reason
        the tenant's ledger counts, not ``deadline_passed``."""
        quota = self.service(8).submit(dict(self.SUBMIT))["guarantee"]
        svc = self.service(quota)
        assert svc.submit(dict(self.SUBMIT))["status"] == "running"
        reply = svc.submit(dict(self.SUBMIT))
        assert reply["status"] == "queued"
        job = svc._jobs[reply["job_id"]]
        while job.status == "queued":
            svc.clock.advance(1.0)
            svc.tick()
        assert svc.now() < reply["deadline_seconds"]
        assert svc._tenants["a"].rejected_reasons == {"exceeds_quota": 1}
        assert (job.status, job.reject_reason) == ("rejected", "exceeds_quota")
        assert svc.job_status(job.job_id)["reason"] == "exceeds_quota"

    def test_a_failed_job_is_finished_once(self):
        """The failed job's other leases still report failures after it
        failed: each frees its slot, and the job, its trace and its tenant
        stay as the first failure left them."""
        svc = self.service(8)
        tenant = svc._tenants["a"]
        worker = svc.register_worker({"name": "w", "slots": 8})["worker_id"]
        reply = svc.submit(dict(self.SUBMIT))
        assert reply["status"] == "running"
        job = svc._jobs[reply["job_id"]]
        tasks = svc.lease({"worker_id": worker, "max_tasks": 8})["tasks"]
        assert len(tasks) > 1
        for task in tasks:
            svc.clock.advance(5.0)
            reply = svc.complete_task({
                "task_id": task["task_id"], "worker_id": worker,
                "outcome": "failed",
            })
            assert reply["job_status"] == "failed"
        assert job.trace.end_time == 5.0
        assert len(job.trace.records) == 1
        stats = tenant.stats()
        assert (stats["completed"], stats["unfinished"]) == (1, 0)
        assert job.running == {} and svc._running_tasks == 0
        assert svc._workers[worker].leased == {}


class TestServiceFreed:
    def test_stopped_service_is_freed_by_refcount(self):
        """No reference cycle through the HTTP plumbing: a stopped
        service (jobs, traces and all) must not wait for the collector."""
        gc.collect()
        gc.disable()
        try:
            config = ServiceConfig(capacity_tokens=8, time_scale=0.002)
            svc = ClusterService(config, store=tiny_store())
            svc.start()
            worker = ServiceWorker(
                WorkerConfig(url=svc.url, name="w", slots=4)
            ).start()
            with ServiceClient(svc.url) as client:
                reply = client.submit(
                    template="tiny", deadline_minutes=30.0,
                    policy="jockey-no-sim",
                )
                info = client.wait(reply["job_id"], timeout=60.0)
            assert info["status"] == "completed"
            worker.stop()
            svc.stop(drain=False)
            ref = weakref.ref(svc)
            del svc
            assert ref() is None
        finally:
            gc.enable()


class TestGracefulShutdown:
    def test_drain_finishes_live_jobs(self):
        config = ServiceConfig(
            capacity_tokens=8, tick_seconds=10.0, time_scale=0.002,
        )
        svc = ClusterService(config, store=tiny_store())
        svc.start()
        client = ServiceClient(svc.url)
        worker = ServiceWorker(
            WorkerConfig(url=svc.url, name="w", slots=8)
        ).start()
        reply = client.submit(
            template="tiny", deadline_minutes=30.0, policy="jockey-no-sim"
        )
        svc.stop(drain=True, timeout=30.0)
        job = svc._jobs[reply["job_id"]]
        assert job.status == "completed"
        worker.stop()

    def test_draining_service_refuses_submissions(self):
        config = ServiceConfig(capacity_tokens=4, time_scale=0.002)
        with ClusterService(config, store=tiny_store()) as svc:
            client = ServiceClient(svc.url)
            client.shutdown(drain=True)
            with pytest.raises(ServiceClientError) as err:
                client.submit(
                    template="tiny", deadline_minutes=30.0,
                    policy="jockey-no-sim",
                )
            assert err.value.status == 503


class TestLoadgenDeterminism:
    def test_same_seed_same_workload(self):
        config = LoadgenConfig(jobs=12, seed=42)
        first = generate_workload(config)
        second = generate_workload(config)
        assert first == second
        assert workload_fingerprint(first) == workload_fingerprint(second)

    def test_different_seed_different_workload(self):
        base = workload_fingerprint(generate_workload(LoadgenConfig(seed=1)))
        other = workload_fingerprint(generate_workload(LoadgenConfig(seed=2)))
        assert base != other

    def test_offsets_monotonic(self):
        plans = generate_workload(LoadgenConfig(jobs=10, seed=3))
        offsets = [p.offset_seconds for p in plans]
        assert offsets == sorted(offsets)
        assert offsets[0] == 0.0

    def test_rejects_bad_config(self):
        from repro.service.loadgen import LoadgenError

        with pytest.raises(LoadgenError):
            LoadgenConfig(jobs=0)
        with pytest.raises(LoadgenError):
            LoadgenConfig(deadline_factors=(0.5, 2.0))
        with pytest.raises(LoadgenError):
            LoadgenConfig(templates=())

    @pytest.mark.parametrize("knob, value", [
        ("mean_interarrival", float("nan")), ("mean_interarrival", float("inf")),
        ("mean_interarrival", -1.0), ("timeout", float("nan")),
        ("timeout", float("inf")), ("timeout", 0.0),
    ])
    def test_rejects_non_finite_seconds(self, knob, value):
        from repro.service.loadgen import LoadgenError

        with pytest.raises(LoadgenError, match=f"^LoadgenConfig\\.{knob} must be"):
            LoadgenConfig(**{knob: value})
        # A zero gap stays a burst.
        assert LoadgenConfig(mean_interarrival=0.0).mean_interarrival == 0.0


class TestCliContract:
    """Exit codes and golden help text for the service verbs."""

    def run_cli(self, *argv):
        import io

        from repro.cli import main

        out = io.StringIO()
        code = main(list(argv), out=out)
        return code, out.getvalue()

    def test_serve_bad_tenant_spec_exits_two(self):
        code, text = self.run_cli("serve", "--tenant", "broken")
        assert code == 2
        assert "NAME=QUOTA" in text

    def test_serve_bad_capacity_exits_two(self):
        code, text = self.run_cli("serve", "--capacity", "0")
        assert code == 2
        assert "capacity" in text

    @pytest.mark.parametrize("flag, knob", [
        ("--time-scale", "time_scale"), ("--tick-seconds", "tick_seconds"),
        ("--heartbeat-timeout", "heartbeat_timeout"),
    ])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_serve_non_finite_seconds_exit_two(self, flag, knob, value):
        code, text = self.run_cli("serve", flag, value)
        assert code == 2
        assert text == (
            f"error: ServiceConfig.{knob} must be positive and finite, got {value}\n"
        )

    @pytest.mark.parametrize("flag, knob", [
        ("--mean-interarrival", "mean_interarrival"), ("--timeout", "timeout"),
    ])
    def test_loadgen_non_finite_seconds_exit_two(self, flag, knob):
        code, text = self.run_cli("loadgen", "--url", "http://127.0.0.1:9",
                                  flag, "nan")
        assert code == 2
        assert text.startswith(f"error: LoadgenConfig.{knob} must be")
        assert "got nan" in text

    @pytest.mark.parametrize("port", ["65536", "70000"])
    def test_serve_port_above_the_range_exits_two(self, port):
        """It used to pass the config and die in ``bind()`` with exit 1."""
        code, text = self.run_cli("serve", "--port", port)
        assert code == 2
        assert text == (
            f"error: ServiceConfig.port must be an integer in [0, 65535], got {port}\n"
        )

    def test_worker_requires_url(self):
        code, _text = self.run_cli("worker")
        assert code == 2

    def test_worker_unreachable_arbiter_exits_one(self):
        code, text = self.run_cli(
            "worker", "--url", "http://127.0.0.1:9", "--name", "orphan"
        )
        assert code == 1
        assert "cannot register" in text

    def test_submit_requires_deadline(self):
        code, _text = self.run_cli("submit", "--template", "tiny")
        assert code == 2

    def test_submit_requires_exactly_one_source(self):
        code, _text = self.run_cli(
            "submit", "--deadline-minutes", "5",
            "--template", "tiny", "--command", "true",
        )
        assert code == 2

    def test_submit_unreachable_service_exits_one(self):
        code, text = self.run_cli(
            "submit", "--url", "http://127.0.0.1:9",
            "--template", "tiny", "--deadline-minutes", "5",
        )
        assert code == 1
        assert "cannot reach" in text

    def test_loadgen_bad_jobs_exits_two(self):
        code, _text = self.run_cli("loadgen", "--jobs", "0")
        assert code == 2

    def test_loadgen_unreachable_service_exits_one(self):
        code, text = self.run_cli(
            "loadgen", "--url", "http://127.0.0.1:9", "--jobs", "1"
        )
        assert code == 1
        assert "cannot reach" in text

    @pytest.mark.parametrize("verb", ["serve", "submit"])
    def test_help_matches_golden(self, verb, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        code, _text = self.run_cli(verb, "--help")
        assert code == 0
        got = capsys.readouterr().out
        golden = (
            pathlib.Path(__file__).parent / "golden" / f"{verb}_help.txt"
        )
        assert got == golden.read_text(encoding="utf-8"), (
            f"help text drifted; regenerate tests/golden/{verb}_help.txt "
            "(COLUMNS=80) if the change is intentional"
        )
