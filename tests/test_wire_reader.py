"""The service wire and the model bundle decode through the one reader
(``persist.spec_fields``).

Three checks:

* a differential against what the reader replaced, kept verbatim below:
  the service's ``_number`` and ``_parse_command`` with the six
  body-taking ``ClusterService`` methods as they read bodies then
  (``ReplacedService``), and persist's hand-written bundle decoders.  On
  well-typed bodies twin services answer every request alike and end in
  the same state; every bundle, model-cache entry and fleet generation
  the writers produce decodes to equal objects;
* the malformed-input table: each endpoint and each bundle object
  refuses a malformed field with a 400 or a ``PersistError`` naming the
  path, the field and the value, and moves no state (no job id consumed,
  no worker registered, no lease settled, no drain begun); the replaced
  code accepted or mis-reported every case;
* ``repro run`` exits 2 on such a bundle, naming it.
"""

import copy
import functools
import io
import json
import math
import pathlib
import tempfile
import typing
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import persist
from repro.cache import CpaTableCache
from repro.cli import main
from repro.core.clock import ManualClock
from repro.core.cpa import CpaTable, _AllocationColumn
from repro.core.policies import PolicyError, build_policy
from repro.core.progress import ProgressError, totalwork_with_q
from repro.core.utility import deadline_utility
from repro.fleet.store import ProfileStore
from repro.jobs.dag import Edge, EdgeType, JobGraph, Stage
from repro.jobs.profiles import JobProfile, StageProfile
from repro.jobs.trace import OUTCOME_FAILED, OUTCOME_OK
from repro.market.tenant import JobSpec as MarketJobSpec
from repro.market.tenant import MarketError
from repro.persist import FORMAT_VERSION, PersistError
from repro.service.models import TemplateError, TrainedTemplate
from repro.service.server import (
    _JOBS_FINISHED,
    _JOBS_SUBMITTED,
    _WORKERS_GAUGE,
    ClusterService,
    LiveJob,
    ServiceConfig,
    ServiceError,
    _serialize_prediction,
    _Worker,
)
from repro.simkit import distributions as dist
from tests.test_service import tiny_store


# ----------------------------------------------------------------------
# What the reader replaced, verbatim
# ----------------------------------------------------------------------


def _number(body: Dict, key: str, default, cast, *, field: Optional[str] = None):
    """``cast(body[key])`` (``default`` when absent); a 400 naming the
    field (``field``, default ``key``) when the value is not a number."""
    value = body.get(key, default)
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError):
        raise ServiceError(
            f"{field or key} must be a number, got {value!r}"
        ) from None


def _parse_command(command) -> Tuple[List[str], int, float]:
    """``{argv, tasks?, task_seconds?}`` of a command submission ->
    ``(argv, tasks, task_seconds)``; a 400 naming the bad field otherwise."""
    if (
        not isinstance(command, dict)
        or not isinstance(command.get("argv"), list)
        or not command["argv"]
    ):
        raise ServiceError("command submissions need {argv: [...], tasks: N}")
    num_tasks = _number(command, "tasks", 1, int, field="command tasks")
    task_seconds = _number(
        command, "task_seconds", 1.0, float, field="command task_seconds"
    )
    if num_tasks < 1 or not task_seconds > 0:
        raise ServiceError("command tasks/task_seconds must be positive")
    return [str(a) for a in command["argv"]], num_tasks, task_seconds


class ReplacedService(ClusterService):
    """The arbiter with its body-taking methods as they were."""

    def submit(self, body: Dict) -> Dict:
        """Admit one submission through the market front door."""
        if not isinstance(body, dict):
            raise ServiceError("submit body must be a JSON object")
        tenant_name = str(body.get("tenant", "default"))
        policy_kind = str(body.get("policy", "jockey"))
        deadline_minutes = body.get("deadline_minutes")
        if deadline_minutes is None:
            raise ServiceError("submit needs deadline_minutes")
        try:
            deadline_v = float(deadline_minutes) * 60.0
        except (TypeError, ValueError):
            raise ServiceError(f"bad deadline_minutes {deadline_minutes!r}")
        if not (math.isfinite(deadline_v) and deadline_v > 0):
            raise ServiceError(
                "deadline_minutes must be positive and finite, got "
                f"{deadline_minutes!r}"
            )

        template = body.get("template")
        bundle = body.get("bundle")
        command = body.get("command")
        modes = sum(x is not None for x in (template, bundle, command))
        if modes != 1:
            raise ServiceError(
                "submit needs exactly one of template, bundle, command"
            )

        # Resolve the model outside the service lock: a cold template
        # trains for seconds and must not block heartbeats.
        trained: Optional[TrainedTemplate] = None
        try:
            if template is not None:
                trained = self.store.get(str(template))
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
            table = profile = command_argv = None
            task_seconds = 0.0
            if trained is not None:
                graph, profile, table = trained.graph, trained.profile, trained.table
                work = trained.total_work_seconds
                width = min(self.config.capacity_tokens, trained.width)
                name = str(body.get("name") or trained.name)
            else:
                command_argv, num_tasks, task_seconds = _parse_command(command)
                name = str(body.get("name") or f"cmd-{job_id}")
                graph = JobGraph(name, [Stage("cmd", num_tasks)], [])
                work = num_tasks * task_seconds
                width = min(self.config.capacity_tokens, num_tasks)
            try:
                policy = build_policy(
                    policy_kind,
                    table=table,
                    indicator=(
                        totalwork_with_q(profile) if table is not None else None
                    ),
                    profile=profile,
                    utility=deadline_utility(deadline_v),
                    control=replace(
                        self.config.control,
                        max_tokens=min(self.config.control.max_tokens, width),
                    ),
                )
                spec = MarketJobSpec(
                    name=job_id,
                    tenant=tenant_name,
                    work=work,
                    width=width,
                    deadline_seconds=deadline_v,
                    submit_seconds=now,
                )
            except (PolicyError, ProgressError, MarketError) as exc:
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
                command=command_argv,
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

    def register_worker(self, body: Dict) -> Dict:
        name = str(body.get("name", "worker"))
        slots = _number(body, "slots", 1, int)
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
        worker = self._workers.get(str(worker_id))
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
        with self._lock:
            worker = self._worker(body.get("worker_id"))
            worker.last_seen = self.now()
            return {"ok": True, "shutdown": self._stop.is_set()}

    def lease(self, body: Dict) -> Dict:
        """Hand out ready tasks up to each job's current allocation."""
        max_tasks = _number(body, "max_tasks", 1, int)
        with self._lock:
            worker = self._worker(body.get("worker_id"))
            worker.last_seen = self.now()
            granted = self._grant_tasks(worker, max_tasks)
            return {
                "tasks": granted,
                "poll_seconds": self.config.effective_poll_seconds,
                "shutdown": self._stop.is_set(),
            }

    def complete_task(self, body: Dict) -> Dict:
        task_id = str(body.get("task_id", ""))
        outcome = str(body.get("outcome", OUTCOME_OK))
        if outcome not in (OUTCOME_OK, OUTCOME_FAILED):
            raise ServiceError(f"unknown outcome {outcome!r}")
        lease_max = _number(body, "lease_max", 0, int)
        with self._lock:
            worker = self._workers.get(str(body.get("worker_id")))
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

    def request_shutdown(self, body: Dict) -> Dict:
        drain = bool(body.get("drain", True))
        with self._lock:
            self._draining = True
            if not drain or not self._has_open_jobs():
                self._drained.set()
        if not drain:
            self._stop.set()
        return {"ok": True, "draining": drain}


def distribution_from_dict(data: Dict):
    kind = data.get("kind")
    if kind == "constant":
        return dist.Constant(data["value"])
    if kind == "uniform":
        return dist.Uniform(data["low"], data["high"])
    if kind == "exponential":
        return dist.Exponential(data["mean"])
    if kind == "lognormal":
        return dist.LogNormal(data["mu"], data["sigma"])
    if kind == "with_outliers":
        return dist.WithOutliers(
            distribution_from_dict(data["base"]),
            data["outlier_prob"],
            data["outlier_factor"],
        )
    if kind == "truncated":
        return dist.Truncated(distribution_from_dict(data["base"]), data["cap"])
    if kind == "empirical":
        return dist.Empirical(list(data["values"]))
    if kind == "scaled":
        return dist.Scaled(distribution_from_dict(data["base"]), data["factor"])
    raise PersistError(f"unknown distribution kind {kind!r}")


def graph_from_dict(data: Dict) -> JobGraph:
    try:
        stages = [Stage(s["name"], s["num_tasks"]) for s in data["stages"]]
        edges = [
            Edge(e["src"], e["dst"], EdgeType(e["kind"])) for e in data["edges"]
        ]
        return JobGraph(data["name"], stages, edges)
    except (KeyError, TypeError) as exc:
        raise PersistError(f"malformed graph payload: {exc}") from exc


def profile_from_dict(data: Dict, graph: Optional[JobGraph] = None) -> JobProfile:
    if graph is None:
        graph = graph_from_dict(data["graph"])
    try:
        stages = {}
        for name, payload in data["stages"].items():
            span = payload.get("rel_span")
            stages[name] = StageProfile(
                name=name,
                runtime=distribution_from_dict(payload["runtime"]),
                init=distribution_from_dict(payload["init"]),
                queue_obs=distribution_from_dict(payload["queue_obs"]),
                failure_prob=payload["failure_prob"],
                rel_span=tuple(span) if span is not None else None,
            )
        return JobProfile(graph, stages)
    except (KeyError, TypeError) as exc:
        raise PersistError(f"malformed profile payload: {exc}") from exc


def table_from_dict(data: Dict) -> CpaTable:
    try:
        allocations = [int(a) for a in data["allocations"]]
        num_bins = int(data["num_bins"])
        columns = {}
        for a in allocations:
            bins = [
                np.asarray(samples, dtype=float)
                for samples in data["columns"][str(a)]
            ]
            columns[a] = _AllocationColumn(bins=bins)
        return CpaTable(allocations, columns, num_bins)
    except (KeyError, TypeError) as exc:
        raise PersistError(f"malformed table payload: {exc}") from exc


def _bundle_field(payload: Dict, field: str, decode, *args):
    """Decode one bundle field; whatever a hostile payload trips inside the
    decoder surfaces as a :class:`PersistError` naming the field."""
    if field not in payload:
        raise PersistError(f"bundle has no {field!r} field")
    try:
        return decode(payload[field], *args)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise PersistError(
            f"bundle field {field!r} is malformed: {type(exc).__name__}: {exc}"
        ) from exc


def bundle_from_dict(
    payload,
) -> Tuple[JobGraph, JobProfile, Optional[CpaTable]]:
    """Decode a parsed bundle: the one definition of what a bundle is, under
    both :func:`load_bundle` and the live service's inline upload.  Anything
    wrong raises :class:`PersistError` naming the offending field."""
    if not isinstance(payload, dict):
        raise PersistError(
            f"bundle must be a JSON object, got {type(payload).__name__}"
        )
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise PersistError(
            f"unsupported bundle version {version!r} (expected {FORMAT_VERSION})"
        )
    graph = _bundle_field(payload, "graph", graph_from_dict)
    profile = _bundle_field(payload, "profile", profile_from_dict, graph)
    table = None
    if payload.get("table") is not None:
        table = _bundle_field(payload, "table", table_from_dict)
    return graph, profile, table




# ----------------------------------------------------------------------
# Well-typed bodies: twin services answer alike
# ----------------------------------------------------------------------

DEADLINES = st.one_of(
    st.floats(0.5, 600.0, allow_nan=False), st.integers(1, 600)
)
NAMES = st.one_of(st.none(), st.text(max_size=6))


@functools.lru_cache(maxsize=None)
def tiny_table() -> CpaTable:
    tiny = tiny_store().get("tiny")
    return CpaTable.build(
        tiny.profile, totalwork_with_q(tiny.profile), seed=0,
        allocations=(2, 4), reps=1, num_bins=4,
    )


def tabled_store():
    """``tiny_store`` with a C(p, a) table, so every policy kind runs."""
    store = tiny_store()
    tiny = store.get("tiny")
    store.add("tiny", tiny.graph, tiny.profile, tiny_table())
    return store


def tiny_bundle(table: bool = False) -> Dict:
    """The ``tiny`` template as a bundle payload, with a small table."""
    tiny = tiny_store().get("tiny")
    built = tiny_table() if table else None
    with tempfile.TemporaryDirectory() as root:
        path = pathlib.Path(root) / "tiny.json"
        persist.save_bundle(path, graph=tiny.graph, profile=tiny.profile,
                            table=built, metadata={"job": "tiny"})
        return json.loads(path.read_text(encoding="utf-8"))


def submit_bodies():
    template = st.fixed_dictionaries(
        {"template": st.just("tiny"), "deadline_minutes": DEADLINES},
        optional={
            "policy": st.sampled_from(["jockey", "jockey-no-sim", "max-allocation"]),
            "tenant": st.sampled_from(["default", "nobody"]),
            "name": NAMES,
        },
    )
    command = st.fixed_dictionaries(
        {
            "command": st.fixed_dictionaries(
                {"argv": st.lists(st.text(max_size=4), min_size=1, max_size=3)},
                optional={
                    "tasks": st.integers(1, 4),
                    "task_seconds": st.one_of(
                        st.floats(0.5, 60.0, allow_nan=False),
                        st.integers(1, 60),
                    ),
                },
            ),
            "deadline_minutes": DEADLINES,
            # Mostly the one policy a command job supports.
            "policy": st.sampled_from(["max-allocation"] * 4 + ["jockey"]),
        },
        optional={"name": NAMES},
    )
    bundle = st.fixed_dictionaries(
        {"bundle": st.just(tiny_bundle(table=True)), "deadline_minutes": DEADLINES},
        optional={"policy": st.sampled_from(["jockey", "max-allocation"])},
    )
    return st.one_of(template, command, bundle)


def both(pair, method: str, body) -> Tuple:
    """One request to each twin: equal replies, or equal refusals."""
    outcomes = []
    for svc in pair:
        try:
            outcomes.append(("ok", getattr(svc, method)(copy.deepcopy(body))))
        except ServiceError as exc:
            outcomes.append(("refused", exc.status, str(exc)))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


class TestWellTypedBodiesAnswerAsTheReplacedCodeDid:
    @given(st.data())
    def test_twins_answer_alike(self, data):
        config = ServiceConfig(capacity_tokens=8, max_task_attempts=2)
        pair = []
        for cls in (ClusterService, ReplacedService):
            svc = cls(config, store=tabled_store())
            svc.clock = ManualClock()
            pair.append(svc)
        workers: List[str] = []
        leased: List[Tuple[str, str]] = []
        for _step in range(data.draw(st.integers(1, 40))):
            op = data.draw(st.sampled_from([
                "submit", "register", "heartbeat", "lease", "lease",
                "complete", "complete", "complete", "tick",
            ]))
            worker = data.draw(st.sampled_from(workers or ["w-999"]))
            if op == "submit":
                both(pair, "submit", data.draw(submit_bodies()))
            elif op == "register":
                outcome = both(pair, "register_worker", data.draw(
                    st.fixed_dictionaries({}, optional={
                        "name": st.text(max_size=4), "slots": st.integers(1, 4),
                    })
                ))
                workers.append(outcome[1]["worker_id"])
            elif op == "heartbeat":
                both(pair, "heartbeat", {"worker_id": worker})
            elif op == "lease":
                outcome = both(pair, "lease", data.draw(st.fixed_dictionaries(
                    {"worker_id": st.just(worker)},
                    optional={"max_tasks": st.integers(0, 3)},
                )))
                if outcome[0] == "ok":
                    leased += [(t["task_id"], worker) for t in outcome[1]["tasks"]]
            elif op == "complete" and leased:
                task_id, holder = leased.pop(
                    data.draw(st.integers(0, len(leased) - 1))
                )
                outcome = both(pair, "complete_task", data.draw(
                    st.fixed_dictionaries(
                        {"task_id": st.just(task_id), "worker_id": st.just(holder)},
                        optional={
                            "outcome": st.sampled_from([OUTCOME_OK, OUTCOME_FAILED]),
                            "lease_max": st.integers(0, 2),
                        },
                    )
                ))
                if outcome[0] == "ok":
                    leased += [(t["task_id"], holder)
                               for t in outcome[1].get("tasks", ())]
            else:
                elapsed = data.draw(st.sampled_from([0.5, 7.0, 40.0]))
                for svc in pair:
                    svc.clock.advance(elapsed)
                    svc.tick()
        both(pair, "request_shutdown", data.draw(
            st.fixed_dictionaries({}, optional={"drain": st.booleans()})
        ))
        assert pair[0].state() == pair[1].state()
        assert pair[0]._job_seq == pair[1]._job_seq


# ----------------------------------------------------------------------
# What the writers produce: equal objects
# ----------------------------------------------------------------------


def finite(lo: float, hi: float):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


DISTRIBUTIONS = st.recursive(
    st.one_of(
        finite(0, 1e3).map(dist.Constant),
        st.tuples(finite(0, 100), finite(0, 100)).map(
            lambda bounds: dist.Uniform(*sorted(bounds))
        ),
        finite(1e-3, 1e3).map(dist.Exponential),
        st.builds(dist.LogNormal, finite(-5, 5), finite(0, 2)),
        st.lists(finite(0, 1e3), min_size=1, max_size=6).map(dist.Empirical),
    ),
    lambda base: st.one_of(
        st.builds(dist.WithOutliers, base, finite(0, 1), finite(1, 10)),
        st.builds(dist.Truncated, base, finite(1e-3, 1e3)),
        st.builds(dist.Scaled, base, finite(1e-3, 10)),
    ),
    max_leaves=3,
)


@st.composite
def profiles(draw) -> JobProfile:
    names = draw(st.lists(
        st.text("abcdef", min_size=1, max_size=3), min_size=1, max_size=4,
        unique=True,
    ))
    pairs = [(i, j) for i in range(len(names)) for j in range(i + 1, len(names))]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    graph = JobGraph(
        draw(st.text(min_size=1, max_size=5)),
        [Stage(name, draw(st.integers(1, 20))) for name in names],
        [Edge(names[i], names[j], draw(st.sampled_from(list(EdgeType))))
         for i, j in chosen],
    )
    spans = st.one_of(st.none(), st.tuples(finite(0, 1), finite(0, 1)).map(
        lambda span: tuple(sorted(span))
    ))
    return JobProfile(graph, {
        name: StageProfile(
            name, runtime=draw(DISTRIBUTIONS), init=draw(DISTRIBUTIONS),
            queue_obs=draw(DISTRIBUTIONS), failure_prob=draw(finite(0, 0.99)),
            rel_span=draw(spans),
        )
        for name in names
    })


@st.composite
def tables(draw) -> CpaTable:
    allocations = draw(st.lists(st.integers(1, 100), min_size=1, max_size=4,
                                unique=True))
    num_bins = draw(st.integers(1, 4))
    samples = st.lists(finite(0, 1e4), min_size=1, max_size=5).map(sorted)
    return CpaTable(allocations, {
        a: _AllocationColumn(bins=[
            np.asarray(draw(samples), dtype=float) for _ in range(num_bins + 1)
        ])
        for a in allocations
    }, num_bins)


def assert_same_graph(got: JobGraph, want: JobGraph) -> None:
    assert got.name == want.name
    assert got.stages == want.stages
    assert got.edges == want.edges


def assert_same_profile(got: JobProfile, want: JobProfile) -> None:
    assert_same_graph(got.graph, want.graph)
    assert got.stage_names == want.stage_names
    for name in want.stage_names:
        assert got.stage(name) == want.stage(name)
        assert type(got.stage(name).runtime) is type(want.stage(name).runtime)


def assert_same_table(got: Optional[CpaTable], want: Optional[CpaTable]) -> None:
    if want is None:
        assert got is None
        return
    assert got.allocations == want.allocations
    assert got.num_bins == want.num_bins
    for a in want.allocations:
        for mine, theirs in zip(got._columns[a].bins, want._columns[a].bins,
                                strict=True):
            assert mine.dtype == theirs.dtype
            assert np.array_equal(mine, theirs)


class TestWrittenArtifactsDecodeAsTheReplacedDecodersDid:
    @given(profiles(), st.one_of(st.none(), tables()))
    def test_bundle(self, profile, table):
        with tempfile.TemporaryDirectory() as root:
            path = pathlib.Path(root) / "bundle.json"
            persist.save_bundle(path, graph=profile.graph, profile=profile,
                                table=table, metadata={"job": "j", "seed": 4})
            payload = json.loads(path.read_text(encoding="utf-8"))
            loaded = persist.load_bundle(path)
        want = bundle_from_dict(payload)
        for got in (persist.bundle_from_dict(payload), loaded):
            assert_same_graph(got[0], want[0])
            assert got[1].graph is got[0]
            assert_same_profile(got[1], want[1])
            assert_same_table(got[2], want[2])

    @given(tables())
    def test_cache_entry(self, table):
        with tempfile.TemporaryDirectory() as root:
            path = CpaTableCache(root).store("k", table)
            payload = json.loads(path.read_text(encoding="utf-8"))
        got = persist.table_from_dict(payload["table"])
        assert_same_table(got, table_from_dict(payload["table"]))
        assert_same_table(got, table)

    @given(profiles())
    def test_fleet_generation(self, profile):
        with tempfile.TemporaryDirectory() as root:
            path = ProfileStore(root).append("tpl", profile).path
            payload = json.loads(path.read_text(encoding="utf-8"))
        got = persist.profile_from_dict(payload["profile"])
        assert_same_profile(got, profile_from_dict(payload["profile"]))
        assert_same_profile(got, profile)

    @given(DISTRIBUTIONS)
    def test_distribution(self, d):
        payload = json.loads(json.dumps(persist.distribution_to_dict(d)))
        assert persist.distribution_from_dict(payload) == \
            distribution_from_dict(payload) == d


# ----------------------------------------------------------------------
# The malformed-input table
# ----------------------------------------------------------------------


def must_be(path: str, field: str, what: str, value) -> str:
    return f"{path}: '{field}' must be {what}, got {value!r}"


SUBMIT = {"template": "tiny", "policy": "jockey-no-sim", "deadline_minutes": 30.0}
COMMAND = {"command": {"argv": ["true"], "tasks": 2}, "policy": "max-allocation",
           "deadline_minutes": 5.0}

#: (method, body with the worker id and task id as ``{worker}`` / ``{task}``,
#: the message).  Every case was accepted or mis-reported before the reader.
WIRE_CASES = [
    ("submit", dict(SUBMIT, deadline_minutes=True),
     must_be("submit", "deadline_minutes", "a finite number", True)),
    ("submit", dict(SUBMIT, deadline_minutes="30"),
     must_be("submit", "deadline_minutes", "a finite number", "30")),
    ("submit", dict(SUBMIT, deadline_minutes=10 ** 400),
     must_be("submit", "deadline_minutes", "a finite number", 10 ** 400)),
    ("submit", {**COMMAND, "command": {"argv": ["true"], "tasks": 2.9}},
     must_be("submit.command", "tasks", "an integer", 2.9)),
    ("submit", {**COMMAND, "command": {"argv": ["true"], "tasks": True}},
     must_be("submit.command", "tasks", "an integer", True)),
    ("submit", {**COMMAND, "command": {"argv": ["true"], "tasks": "4"}},
     must_be("submit.command", "tasks", "an integer", "4")),
    ("submit", {**COMMAND, "command": {"argv": [{}]}},
     must_be("submit.command", "argv[0]", "a string", {})),
    ("submit", dict(SUBMIT, name=7), must_be("submit", "name", "a string", 7)),
    ("submit", {"dedline": 30.0, "template": "tiny"},
     "submit: unknown field(s) ['dedline'] (known: ['bundle', 'command', "
     "'deadline_minutes', 'name', 'policy', 'template', 'tenant'])"),
    ("register_worker", {"slots": 2.5},
     must_be("register", "slots", "an integer", 2.5)),
    ("register_worker", {"slots": True},
     must_be("register", "slots", "an integer", True)),
    ("register_worker", {"slots": "3"},
     must_be("register", "slots", "an integer", "3")),
    ("lease", {"worker_id": "{worker}", "max_tasks": 2.9},
     must_be("lease", "max_tasks", "an integer", 2.9)),
    ("complete_task", {"worker_id": "{worker}", "task_id": "{task}",
                       "lease_max": "2"},
     must_be("complete", "lease_max", "an integer", "2")),
    ("request_shutdown", {"drain": "false"},
     must_be("shutdown", "drain", "true or false", "false")),
    ("heartbeat", {"worker_id": 1},
     must_be("heartbeat", "worker_id", "a string", 1)),
    ("heartbeat", [], "heartbeat must be an object, got list"),
]


def busy_service(cls=ClusterService):
    """A service holding one registered worker, one running job and one
    leased task: the state a refused request must leave as it was."""
    svc = cls(ServiceConfig(capacity_tokens=8), store=tiny_store())
    svc.clock = ManualClock()
    worker = svc.register_worker({"name": "w", "slots": 2})["worker_id"]
    svc.submit(dict(SUBMIT))
    (task,) = svc.lease({"worker_id": worker, "max_tasks": 1})["tasks"]
    return svc, worker, task["task_id"]


def filled(body, worker: str, task: str):
    if not isinstance(body, dict):
        return body
    return {key: value.format(worker=worker, task=task)
            if isinstance(value, str) and "{" in value else value
            for key, value in body.items()}


class TestMalformedInputTable:
    @pytest.mark.parametrize("method, body, message", WIRE_CASES,
                             ids=lambda v: v if isinstance(v, str) else None)
    def test_the_wire_refuses_naming_path_field_and_value(self, method, body,
                                                          message):
        svc, worker, task = busy_service()
        before = svc.state(), svc._job_seq, svc._draining
        with pytest.raises(ServiceError) as excinfo:
            getattr(svc, method)(filled(body, worker, task))
        assert excinfo.value.status == 400
        assert str(excinfo.value) == message
        assert (svc.state(), svc._job_seq, svc._draining) == before
        # The lease is still live: the worker can still report it.
        assert svc.complete_task({"worker_id": worker, "task_id": task})["ok"]

    @pytest.mark.parametrize("method, body, message", WIRE_CASES,
                             ids=lambda v: v if isinstance(v, str) else None)
    def test_the_replaced_code_took_or_misnamed_it(self, method, body, message):
        svc, worker, task = busy_service(ReplacedService)
        try:
            getattr(svc, method)(filled(body, worker, task))
        except Exception as exc:        # noqa: BLE001 - any outcome but ours
            assert str(exc) != message


def broken(path: str, value):
    """A ``tiny_bundle(table=True)`` payload with the field at ``path``
    (dotted; list indices as numbers) set to ``value``."""
    def make(payload):
        *parents, leaf = path.split(".")
        node = payload
        for key in parents:
            node = node[int(key)] if isinstance(node, list) else node[key]
        node[int(leaf) if isinstance(node, list) else leaf] = value
        return payload
    return make


#: (how a good bundle is broken, the message).  Every case was accepted or
#: mis-reported before the reader.
BUNDLE_CASES = [
    (broken("graph.stages.0.num_tasks", 2.5),
     must_be("graph.stages[0]", "num_tasks", "an integer", 2.5)),
    (broken("graph.stages.0.num_tasks", True),
     must_be("graph.stages[0]", "num_tasks", "an integer", True)),
    (broken("graph.stages.0.num_tasks", "3"),
     must_be("graph.stages[0]", "num_tasks", "an integer", "3")),
    (broken("profile.stages.map.init", {"kind": "constant", "value": math.nan}),
     must_be("profile.stages.map.init", "value", "a finite number", math.nan)),
    (broken("profile.stages.map.runtime", {"kind": "uniform", "low": 1.0,
                                           "high": math.inf}),
     must_be("profile.stages.map.runtime", "high", "a finite number", math.inf)),
    (broken("profile.stages.reduce.queue_obs",
            {"kind": "scaled", "base": {"kind": "lognormal", "mu": -math.inf,
                                        "sigma": 1.0}, "factor": 2.0}),
     must_be("profile.stages.reduce.queue_obs.base", "mu", "a finite number",
             -math.inf)),
    (broken("profile.stages.map.runtime", {"kind": "constant", "value": -1.0}),
     "profile.stages.map.runtime: negative constant -1.0"),
    (broken("profile.stages.map", []),
     "profile.stages.map must be an object, got list"),
    (broken("table.allocations.0", 10.7),
     must_be("table", "allocations[0]", "an integer", 10.7)),
    (broken("table.num_bins", "3"),
     must_be("table", "num_bins", "an integer", "3")),
    (broken("extra", 1),
     "bundle: unknown field(s) ['extra'] (known: ['format_version', 'graph', "
     "'metadata', 'profile', 'table'])"),
    (broken("metadata", [1]), must_be("bundle", "metadata", "an object", [1])),
    (broken("profile.stages.map.runtime", {"kind": "empirical",
                                           "values": [1.0, math.nan, 2.0]}),
     must_be("profile.stages.map.runtime", "values[1]", "a finite number",
             math.nan)),
    (broken("profile.stages.map.runtime", {"kind": "empirical",
                                           "values": [1.0, True]}),
     must_be("profile.stages.map.runtime", "values[1]", "a finite number", True)),
    (broken("profile.stages.map.runtime", {"kind": "empirical",
                                           "values": [1.0, "2"]}),
     must_be("profile.stages.map.runtime", "values[1]", "a finite number", "2")),
]


class TestFloatListsDecodeAsItemByItem:
    """A list of floats (an empirical distribution's samples) is checked at
    C speed; what it returns and refuses is the item-by-item decode's."""

    @pytest.mark.parametrize("tp", [List[float], Tuple[float, ...]])
    @pytest.mark.parametrize("values", [
        [], [0.5, 2.0], [1, 2.5], [1e308, 1e308, -1e308], [10 ** 20, 0.0],
    ])
    def test_accepted_as_floats(self, tp, values):
        got = persist.spec_fields({"xs": values}, {"xs": tp}, PersistError)["xs"]
        assert type(got) is typing.get_origin(tp)
        assert got == type(got)(float(v) for v in values)
        assert all(type(v) is float for v in got)

    @pytest.mark.parametrize("values, bad", [
        ([0.5, math.inf], 1), ([-math.inf, 1.0], 0), ([0.5, 2.0, False], 2),
        ([None], 0), ([10 ** 400, 1.0], 0),
    ])
    def test_the_first_bad_item_is_named(self, values, bad):
        with pytest.raises(PersistError) as excinfo:
            persist.spec_fields({"xs": values}, {"xs": List[float]}, PersistError,
                                path="p")
        assert str(excinfo.value) == must_be("p", f"xs[{bad}]", "a finite number",
                                             values[bad])


class TestMalformedBundleTable:
    @pytest.fixture(scope="class")
    def good(self):
        return tiny_bundle(table=True)

    @pytest.mark.parametrize("make, message", BUNDLE_CASES,
                             ids=[m for _make, m in BUNDLE_CASES])
    def test_the_reader_refuses_naming_path_field_and_value(self, good, make,
                                                           message):
        with pytest.raises(PersistError) as excinfo:
            persist.bundle_from_dict(make(copy.deepcopy(good)))
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("make, message", BUNDLE_CASES,
                             ids=[m for _make, m in BUNDLE_CASES])
    def test_the_replaced_decoders_took_or_misnamed_it(self, good, make,
                                                      message):
        try:
            bundle_from_dict(make(copy.deepcopy(good)))
        except Exception as exc:        # noqa: BLE001 - any outcome but ours
            assert message not in str(exc)

    @pytest.mark.parametrize("make, message", BUNDLE_CASES,
                             ids=[m for _make, m in BUNDLE_CASES])
    def test_an_inline_upload_is_a_400_consuming_no_job_id(self, good, make,
                                                          message):
        svc, _worker, _task = busy_service()
        before = svc.state(), svc._job_seq
        with pytest.raises(ServiceError) as excinfo:
            svc.submit({"bundle": make(copy.deepcopy(good)),
                        "policy": "jockey", "deadline_minutes": 30.0})
        assert excinfo.value.status == 400
        assert str(excinfo.value) == f"cannot load bundle: {message}"
        assert (svc.state(), svc._job_seq) == before

    @pytest.mark.parametrize("case", [3, 8])
    def test_repro_run_exits_two_naming_it(self, good, tmp_path, case):
        make, message = BUNDLE_CASES[case]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(make(copy.deepcopy(good))), encoding="utf-8")
        out = io.StringIO()
        code = main(["run", "--bundle", str(bad), "--deadline-minutes", "60"],
                    out=out)
        assert code == 2
        assert out.getvalue() == f"error: cannot load bundle: {message}\n"
