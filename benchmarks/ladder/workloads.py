"""The five ladder workloads.

Each workload drives the repo through public entry points only, and has
the same shape:

* ``generate(seed)`` turns the seed into inputs; nothing else sees it;
* ``setup(work)`` does everything a user pays before the first operation
  (training, table builds, service start) and is timed as ``setup_s``;
* ``run_pass(log)`` performs one fixed list of operations on those inputs
  and records each operation's time under a stable key (``log.timed`` /
  ``log.record``: at reference host speed, see ``harness``), so repeats of
  a pass can be compared operation by operation;
* ``verify(passes)`` returns what is wrong with the outputs, if anything.

``SIZES["check"]`` is the tiny variant ``test_ladder.py`` runs.
"""

from __future__ import annotations

import copy
import dataclasses
import shutil
import time
from contextlib import contextmanager
from time import perf_counter

from harness import PassLog, digest_of, quantile

POLL_SECONDS = 0.01
TERMINAL = ("completed", "failed", "rejected")


@contextmanager
def region(tracer, name):
    """A span around the benchmark's own code when a tracer is attached."""
    if tracer is None:
        yield
        return
    token = tracer.begin(name)
    try:
        yield
    finally:
        tracer.end(token)


class Workload:
    name = ""
    why = ""
    #: True when the time budget sizes one long pass instead of repeats.
    single_pass = False
    SIZES = {}

    def __init__(self, size: str, seconds: float):
        self.size = dict(self.SIZES[size])
        self.seconds = seconds
        self.tracer = None

    def generate(self, seed: int) -> None:
        raise NotImplementedError

    def setup(self, work) -> None:
        raise NotImplementedError

    def run_pass(self, log: PassLog) -> None:
        raise NotImplementedError

    def verify(self, passes) -> list:
        return []

    def notes(self, passes) -> list:
        """Findings worth printing that are not failures."""
        return []

    def teardown(self) -> None:
        pass


# ----------------------------------------------------------------------
# policy_suite
# ----------------------------------------------------------------------


class PolicySuite(Workload):
    name = "policy_suite"
    why = ("The batch path of Fig. 4 on real Table-2 jobs: simkit, cluster, "
           "runtime and core.control do the work; market and service do none.")
    # Shrunk from the issue's A,C,E,G x 2 reps (reps first, then jobs; the
    # job x deadline x policy shape is intact) to the three smallest Table-2
    # jobs, so that a pass is ~2.3 s and every run repeats about eight
    # times: a steady time is a quartile of an operation's repeats.
    SIZES = {
        "normal": dict(jobs=("A", "B", "E"), vertex_scale=1.0, cpa_reps=3),
        "check": dict(jobs=("A",), vertex_scale=0.3, cpa_reps=2),
    }

    def generate(self, seed):
        from repro.simkit.random import derive_seed

        # One run seed per (job, deadline), shared by the four policies:
        # they face the same cluster day, so the policy gates compare like
        # with like.
        self.run_seeds = {
            (job, d): derive_seed(seed, f"ladder:{job}:{d}") % 1_000_003
            for job in self.size["jobs"] for d in (0, 1)
        }

    def setup(self, work):
        from repro.experiments.runner import POLICY_KINDS
        from repro.experiments.scenarios import (
            DEFAULT, Scale, clear_trained_cache, trained_job,
        )

        clear_trained_cache()
        scale = Scale(
            name="ladder", jobs=self.size["jobs"], reps=1,
            cpa_reps=self.size["cpa_reps"], allocations=DEFAULT.allocations,
            vertex_scale=self.size["vertex_scale"],
        )
        # The repo's canonical Table-2 jobs (generator seed 0, as in every
        # experiment): --seed picks the cluster days they run on, not the
        # jobs, whose cost per task differs by ~10% from draw to draw.
        self.trained = {
            job: trained_job(job, scale=scale) for job in self.size["jobs"]
        }
        self.specs = []
        for job, trained in self.trained.items():
            for d, deadline in enumerate(
                (trained.short_deadline, trained.long_deadline)
            ):
                for kind in POLICY_KINDS:
                    self.specs.append(
                        ((job, d, kind), deadline, self.run_seeds[(job, d)])
                    )

    def run_pass(self, log):
        from repro.experiments.runner import RunConfig, make_policy, run_experiment

        runs = {}
        for key, deadline, seed in self.specs:
            job, _d, kind = key
            trained = self.trained[job]
            log.attempted += 1
            try:
                with log.timed(key) as op:
                    policy = make_policy(kind, trained, deadline)
                    result = run_experiment(
                        trained, policy,
                        RunConfig(deadline_seconds=deadline, seed=seed),
                    )
                    op.units = len(result.trace.records)
            except Exception as exc:      # a run that does not terminate
                log.fail(f"run {key} raised {type(exc).__name__}: {exc}")
                continue
            runs[key] = result.metrics
        jockey = [m for k, m in runs.items() if k[2] == "jockey"]
        log.stats = {
            "runs": {"/".join(map(str, k)): dataclasses.asdict(m)
                     for k, m in runs.items()},
            "task_attempts": sum(log.units.values()),
            "evictions": sum(m.evictions for m in runs.values()),
            "task_retries": sum(m.evictions + m.failures for m in runs.values()),
            "jockey_slo_attainment": (
                sum(m.met_deadline for m in jockey) / len(jockey) if jockey else 0.0
            ),
            "jockey_alloc_above_oracle": (
                sum(m.impact_above_oracle for m in jockey) / len(jockey)
                if jockey else 0.0
            ),
            "missed": {
                kind: sum(not m.met_deadline
                          for k, m in runs.items() if k[2] == kind)
                for kind in sorted({k[2] for k in runs})
            },
        }
        log.stats["sim_digest"] = digest_of(log.stats["runs"])

    def verify(self, passes):
        problems = []
        first = passes[0].stats
        for n, other in enumerate(passes[1:], 1):
            if other.stats["runs"] != first["runs"]:
                problems.append(f"pass {n} RunMetrics differ from pass 0")
        # Orderings no seed can reverse: the 100-token policy is the fastest
        # and the most wasteful of the four on the same cluster days.
        total = {}
        for key, run in first["runs"].items():
            kind = key.rsplit("/", 1)[1]
            seconds, excess = total.get(kind, (0.0, 0.0))
            total[kind] = (seconds + run["duration_seconds"],
                           excess + run["impact_above_oracle"])
        for kind, (seconds, excess) in total.items():
            if kind != "max-allocation" and (
                seconds <= total["max-allocation"][0]
                or excess >= total["max-allocation"][1]
            ):
                problems.append(f"{kind} is faster or costlier than max-allocation")
        return problems

    def notes(self, passes):
        """Deadline outcomes the paper expects but a seed can break (a 1.7x
        rerun on a hot cluster day misses even at 100 tokens): reported,
        not failed."""
        missed = passes[0].stats["missed"]
        found = []
        if missed.get("max-allocation", 0):
            found.append(
                f"max-allocation missed {missed['max-allocation']} deadlines"
            )
        if missed.get("jockey", 0) > missed.get("jockey-no-adapt", 0):
            found.append(
                f"jockey missed {missed['jockey']} deadlines, "
                f"jockey-no-adapt {missed['jockey-no-adapt']}"
            )
        return found


# ----------------------------------------------------------------------
# model_build
# ----------------------------------------------------------------------


class ModelBuild(Workload):
    name = "model_build"
    why = ("What a new job or a cold serve template pays: profile fit, "
           "C(p,a) build, cache store and reload, control-scan queries; "
           "core.simulator and jobs.dag dominate, unlike in policy_suite.")
    # Shrunk from seven jobs x 8 reps and 20 000 queries (reps, then jobs)
    # so that a pass is under a second and every build repeats ~25 times.
    SIZES = {
        "normal": dict(jobs=("A", "B", "C", "D", "E"), vertex_scale=1.0,
                       cpa_reps=1, allocations=10, queries=5000),
        "check": dict(jobs=("A", "B"), vertex_scale=0.3, cpa_reps=1,
                      allocations=3, queries=300),
    }

    def generate(self, seed):
        import numpy as np

        from repro.jobs.workloads import generate_table2_jobs
        from repro.simkit.random import derive_seed

        # The repo's canonical Table-2 jobs (generator seed 0); --seed picks
        # the profiling run, the build seeds and the query points.
        generated = generate_table2_jobs(vertex_scale=self.size["vertex_scale"])
        self.generated = {job: generated[job] for job in self.size["jobs"]}
        self.train_seed = derive_seed(seed, "ladder-train") % 1_000_003
        self.build_seeds = {
            job: derive_seed(seed, f"ladder-cpa:{job}") for job in self.generated
        }
        rng = np.random.default_rng(derive_seed(seed, "ladder-queries"))
        self.points = [float(p) for p in rng.random(self.size["queries"])]

    def setup(self, work):
        from repro.core.control import ControlConfig
        from repro.core.progress import build_indicator
        from repro.experiments.scenarios import DEFAULT, run_training
        from repro.jobs.profiles import JobProfile

        self.work = work
        self.allocations = DEFAULT.allocations[: self.size["allocations"]]
        self.grid = ControlConfig().allocation_grid()
        self.models = {}
        for job, generated in self.generated.items():
            trace = run_training(generated, seed=self.train_seed, allocation=50)
            learned = JobProfile.from_trace(
                generated.graph, trace, min_failure_prob=0.001
            )
            self.models[job] = (learned, build_indicator("totalworkWithQ", learned))
        self.pass_no = 0

    def run_pass(self, log):
        from repro import persist
        from repro.cache import CpaTableCache, get_or_build_table

        root = self.work / f"tables-{self.pass_no}"
        self.pass_no += 1
        cache = CpaTableCache(root)
        tables = []
        reload_s = []
        for job, (learned, indicator) in self.models.items():
            request = dict(
                indicator_kind="totalworkWithQ", seed=self.build_seeds[job],
                allocations=self.allocations, reps=self.size["cpa_reps"],
                jobs=1, cache=cache,
            )
            log.attempted += 1
            with log.timed(job, latency=False) as op:
                built = get_or_build_table(learned, indicator, **request)
                op.units = len(self.allocations) * self.size["cpa_reps"]
            start = perf_counter()
            loaded = get_or_build_table(learned, indicator, **request)
            reload_s.append(perf_counter() - start)
            if (persist.table_to_dict(built, precision=None)
                    != persist.table_to_dict(loaded, precision=None)):
                log.fail(f"table {job}: reloaded table differs from built one")
            tables.append(built)
        cache_stats = cache.stats()
        if (cache_stats["hits"], cache_stats["misses"]) != (len(tables),) * 2:
            log.fail(f"cache saw {cache_stats['hits']} hits and "
                     f"{cache_stats['misses']} misses for {len(tables)} tables")
        checksum = 0.0
        grid = self.grid
        query_s = []
        log.host.sample_if_stale()
        with region(self.tracer, "core.cpa.query_scan"):
            for i, progress in enumerate(self.points):
                table = tables[i % len(tables)]
                start = perf_counter()
                curve = table.remaining_curve(progress, grid)
                query_s.append(perf_counter() - start)
                checksum += float(curve[0])
        # One bracket for the whole scan (~0.1 s; a sample per 25 us query
        # would cost a hundred times the query), and one latency sample per
        # pass: the scan's median query.
        log.host.sample()
        log.record("query", quantile(query_s, 0.5),
                   slowdown=log.host.slowdown(), work=False)
        log.attempted += len(self.points)
        log.info = {
            "query_us_p50": quantile(query_s, 0.5) * 1e6,
            "query_us_p99": quantile(query_s, 0.99) * 1e6,
            "reload_ms_p50": quantile(reload_s, 0.5) * 1e3,
            "cache_bytes": float(cache_stats["bytes"]),
            "cache_hit_ratio": cache_stats["hits"]
            / (cache_stats["hits"] + cache_stats["misses"]),
        }
        log.stats = {
            "tables": {
                job: digest_of(persist.table_to_dict(table, precision=6))
                for job, table in zip(self.models, tables)
            },
            "query_checksum": round(checksum, 6),
        }
        log.stats["sim_digest"] = digest_of(log.stats)
        shutil.rmtree(root, ignore_errors=True)

    def verify(self, passes):
        return [
            f"pass {n} tables or query answers differ from pass 0"
            for n, other in enumerate(passes[1:], 1)
            if other.stats != passes[0].stats
        ]


# ----------------------------------------------------------------------
# market_clear
# ----------------------------------------------------------------------


class MarketClear(Workload):
    name = "market_clear"
    why = ("The only workload where market.arbiter and market.admission "
           "dominate: standing ticks stress the top-K auction, churn stresses "
           "admission, pooled and split so the one-engine merge is caught.")
    # Shrunk from 60+60 standing ticks per mode (ticks only: the 5 000-job
    # population and the 16 x 500 churn workload are the issue's).
    SIZES = {
        "normal": dict(standing_jobs=5000, standing_tenants=10, width=8,
                       ticks=10, churn_tenants=16, churn_jobs=500,
                       churn_capacity=3200, churn_horizon=120),
        "check": dict(standing_jobs=300, standing_tenants=10, width=8,
                      ticks=3, churn_tenants=4, churn_jobs=25,
                      churn_capacity=160, churn_horizon=40),
    }
    MODES = ("pooled", "split")

    def generate(self, seed):
        from repro.market import generate_market_workload

        s = self.size
        self.churn_tenants, self.churn_jobs = generate_market_workload(
            tenants=s["churn_tenants"], jobs_per_tenant=s["churn_jobs"],
            capacity=s["churn_capacity"], quota_scale=0.5,
            horizon_ticks=s["churn_horizon"], seed=seed,
        )

    def _standing_market(self, mode):
        from repro.market import JobSpec, MarketConfig, Tenant, TokenMarket

        s = self.size
        per_tenant = s["standing_jobs"] // s["standing_tenants"]
        names = [f"t{t:02d}" for t in range(s["standing_tenants"])]
        tenants = [Tenant(name=name, quota=per_tenant) for name in names]
        # Deep work and loose deadlines: guarantee 1 each, nobody finishes,
        # every job bids width-1 spare entries on every tick.
        jobs = [
            JobSpec(name=f"{name}-j{i:04d}", tenant=name, work=1e9,
                    width=s["width"], deadline_seconds=2e9)
            for name in names for i in range(per_tenant)
        ]
        config = MarketConfig(capacity=2 * s["standing_jobs"], mode=mode)
        return TokenMarket(tenants, jobs, config)

    def setup(self, work):
        self.standing = {}
        for mode in self.MODES:
            market = self._standing_market(mode)
            market.step()             # the admission tick: everyone goes live
            if len(market.live_jobs) != self.size["standing_jobs"]:
                raise RuntimeError(f"standing {mode} market did not fill")
            self.standing[mode] = market

    def run_pass(self, log):
        from repro.market import MarketConfig, TokenMarket

        s = self.size
        standing = {}
        for mode, market in self.standing.items():
            capacity = market.config.capacity
            for k in range(s["ticks"]):
                log.attempted += 1
                # Every standing tick of a mode is the same operation (same
                # population, same bids): the ticks are repeats of each other.
                with log.timed(("standing", mode)) as op:
                    sample = market.step()
                    op.units = sample.live
                if sample.live != s["standing_jobs"]:
                    log.fail(f"standing {mode} tick {k}: {sample.live} live jobs")
                if sample.granted > capacity:
                    log.fail(f"standing {mode} tick {k}: granted "
                             f"{sample.granted} > capacity {capacity}")
            standing[mode] = [sample.guaranteed, sample.spare,
                              round(sample.price, 9)]
        churn = {}
        admission = {"admitted": 0, "rejected": 0, "queued": 0}
        for mode in self.MODES:
            tenants = copy.deepcopy(self.churn_tenants)
            config = MarketConfig(capacity=s["churn_capacity"], mode=mode)
            market = TokenMarket(tenants, self.churn_jobs, config)
            log.attempted += 1
            with log.timed(("churn", mode), latency=False) as op:
                with region(self.tracer, f"market.engine.churn.{mode}"):
                    result = market.run()
                op.units = sum(sample.live for sample in result.samples)
            log.info[f"churn_s.{mode}"] = op.seconds
            over = [x.tick for x in result.samples if x.granted > result.capacity]
            if over:
                log.fail(f"churn {mode}: over capacity at ticks {over[:5]}")
            if not market.done:
                log.fail(f"churn {mode}: market did not drain")
            churn[mode] = result.to_digest()
            admission["admitted"] += market.admission.stats.admitted
            admission["rejected"] += market.admission.stats.rejected
            admission["queued"] += market.admission.stats.queue_waits
        arrivals = {
            mode: [(t["name"], t["submitted"]) for t in churn[mode]["tenants"]]
            for mode in self.MODES
        }
        if arrivals["pooled"] != arrivals["split"]:
            log.fail("pooled and split churn runs saw different arrivals")
        log.stats = {
            "churn": churn,
            "admission": admission,
            "attainment": {m: churn[m]["attainment"] for m in self.MODES},
            "sim_digest": digest_of(churn),
        }
        log.info["standing_last_tick"] = standing

    def verify(self, passes):
        return [
            f"pass {n} churn digests differ from pass 0"
            for n, other in enumerate(passes[1:], 1)
            if other.stats != passes[0].stats
        ]


# ----------------------------------------------------------------------
# service workloads
# ----------------------------------------------------------------------


def wait_terminal(service, job_ids, until, observe=None):
    """Poll the in-process arbiter until every job is terminal or the next
    poll would run past ``until`` (a ``perf_counter`` instant).

    Returns ``{job_id: perf_counter when first seen terminal}``; jobs still
    open are left out.  ``observe`` runs once per poll.
    """
    seen = {}
    pending = list(job_ids)
    while pending:
        if observe is not None:
            observe()
        still = []
        for job_id in pending:
            if service.job_status(job_id)["status"] in TERMINAL:
                seen[job_id] = perf_counter()
            else:
                still.append(job_id)
        pending = still
        if not pending or perf_counter() + POLL_SECONDS >= until:
            break
        time.sleep(POLL_SECONDS)
    return seen


def audit_jobs(log, service, job_ids, done, failed):
    """The service gate: every admitted job completed, none failed or hung,
    and the workers' ``done``/``failed`` task counts are exactly the tasks
    of the completed jobs.  Returns the results of the completed jobs."""
    results = {}
    expected_tasks = 0
    for job_id in job_ids:
        status = service.job_status(job_id)
        if status["status"] == "rejected":
            continue                  # an admission verdict: it misses
        if status["status"] != "completed":
            log.fail(f"job {job_id} ended {status['status']} "
                     f"({status.get('reason', 'no reason')})")
            continue
        results[job_id] = service.job_result(job_id)
        expected_tasks += status["total_tasks"]
    if failed or done != expected_tasks:
        log.fail(f"workers finished {done} tasks ({failed} failed) for "
                 f"{expected_tasks} tasks of completed jobs")
    return results


class ServiceSaturate(Workload):
    name = "service_saturate"
    why = ("Closed loop, free tasks: the per-task HTTP round trip through "
           "service.client, service.server and service.worker is the whole "
           "cost; bypasses simkit, cluster and runtime entirely.")
    # Shrunk from 60 jobs up front (jobs only; 200+20 free tasks per job,
    # capacity 40, time_scale 0.02 and one 2-slot worker are the issue's),
    # so that a pass is short and repeats several times.
    SIZES = {
        "normal": dict(jobs=6, maps=200, reduces=20),
        "check": dict(jobs=2, maps=12, reduces=3),
    }
    TIME_SCALE = 0.02
    TASK_VIRTUAL_SECONDS = 0.05       # 1 ms of wall at TIME_SCALE
    SLOTS = 2
    #: The drain is timed in this many equal slices of completed tasks: an
    #: operation is a slice, not a multi-second drain.
    SLICES = 8
    service = None

    def generate(self, seed):
        import numpy as np

        from repro.simkit.random import derive_seed

        rng = np.random.default_rng(derive_seed(seed, "ladder-saturate"))
        # Loose deadlines (days of virtual time): admission and the
        # controller never bind, the round trip does.
        self.deadline_minutes = [
            float(m) for m in rng.uniform(4000.0, 8000.0, self.size["jobs"])
        ]
        self.table_seed = derive_seed(seed, "ladder-saturate-cpa")
        self.service_seed = derive_seed(seed, "ladder-saturate-svc") % 1_000_003

    def _fresh_service(self):
        """A started arbiter that has already run one job end to end, so
        the first measured request pays no first-use cost."""
        from repro.service import (
            ClusterService, ServiceClient, ServiceConfig, ServiceWorker,
            WorkerConfig,
        )

        config = ServiceConfig(
            capacity_tokens=40, time_scale=self.TIME_SCALE,
            seed=self.service_seed,
        )
        self.tick_wall_ms = config.tick_seconds * config.time_scale * 1e3
        service = ClusterService(config, store=self.store)
        service.start()
        client = ServiceClient(service.url)
        warm = client.submit(template="free", deadline_minutes=6000.0,
                             policy="jockey", name="warm-up")
        worker = ServiceWorker(
            WorkerConfig(url=service.url, name="warm", slots=self.SLOTS)
        ).start()
        seen = wait_terminal(service, [warm["job_id"]], perf_counter() + 30.0)
        worker.stop()
        if not seen:
            service.stop(drain=False)
            raise RuntimeError("warm-up job did not finish")
        return service, client

    def setup(self, work):
        from repro.core.cpa import CpaTable
        from repro.core.progress import totalwork_with_q
        from repro.jobs.dag import Edge, EdgeType, JobGraph, Stage
        from repro.jobs.profiles import JobProfile, StageProfile
        from repro.service import TemplateModelStore
        from repro.simkit.distributions import Constant

        s = self.size
        graph = JobGraph(
            "free",
            [Stage("map", s["maps"]), Stage("reduce", s["reduces"])],
            [Edge("map", "reduce", EdgeType.ALL_TO_ALL)],
        )
        runtime = Constant(self.TASK_VIRTUAL_SECONDS)
        profile = JobProfile(graph, {
            "map": StageProfile("map", runtime=runtime),
            "reduce": StageProfile("reduce", runtime=runtime),
        })
        table = CpaTable.build(
            profile, totalwork_with_q(profile), seed=self.table_seed,
            allocations=(1, 2, 5, 10, 20, 40), reps=2, jobs=1,
        )
        self.store = TemplateModelStore(seed=self.service_seed)
        self.store.add("free", graph, profile, table)
        self.service, self.client = self._fresh_service()

    def run_pass(self, log):
        from repro.service import ServiceWorker, WorkerConfig

        if self.service is None:      # every pass meets a fresh arbiter
            self.service, self.client = self._fresh_service()
        service, client = self.service, self.client
        job_ids = []
        submit_s = []
        worker = ServiceWorker(
            WorkerConfig(url=service.url, name="drain", slots=self.SLOTS)
        )
        # The reference samples that bracket a pass are taken while no slot
        # thread runs: before the submissions and after the drain.
        log.host.sample_if_stale()
        with region(self.tracer, "bench.timed"):
            for i, minutes in enumerate(self.deadline_minutes):
                log.attempted += 1
                start = perf_counter()
                reply = client.submit(template="free", deadline_minutes=minutes,
                                      policy="jockey", name=f"sat-{i:03d}")
                submit_s.append(perf_counter() - start)
                job_ids.append(reply["job_id"])
            progress = [(perf_counter(), 0)]
            with region(self.tracer, "bench.drain"):
                worker.start()
                seen = wait_terminal(
                    service, job_ids, perf_counter() + 120.0,
                    lambda: progress.append((perf_counter(), worker.tasks_done)),
                )
        progress.append((perf_counter(), worker.tasks_done))
        drained = max(seen.values(), default=perf_counter()) - progress[0][0]
        worker.stop()
        log.host.sample()
        host_slowdown = log.host.slowdown()
        results = audit_jobs(log, service, job_ids,
                             worker.tasks_done, worker.tasks_failed)
        log.attempted += worker.tasks_done + worker.tasks_failed
        total = self.size["jobs"] * (self.size["maps"] + self.size["reduces"])
        size = total / self.SLICES
        # A slot's scheduled sleep is not the host's to slow; the round trip
        # around it is.
        asleep = size / self.SLOTS * self.TASK_VIRTUAL_SECONDS * self.TIME_SCALE
        (since, base), boundary = progress[0], 1
        for at, done in progress[1:]:
            if done >= boundary * size:
                # Seconds this slice would take at its observed rate, and
                # what one slot spent per task in it (sleep + round trip).
                seconds = (at - since) * size / (done - base)
                slowdown = seconds / (
                    asleep + max(seconds - asleep, 0.0) / host_slowdown
                )
                log.record(("slice", boundary), seconds, slowdown=slowdown,
                           units=size, latency=False)
                log.record(("slice", boundary), seconds * self.SLOTS / size,
                           slowdown=slowdown, work=False)
                since, base, boundary = at, done, int(done // size) + 1
        log.info = {"drain_s": drained,
                    "submit_ms_p50": quantile(submit_s, 0.5) * 1e3}
        log.stats = {
            "jobs_completed": len(results),
            "tasks_done": worker.tasks_done,
            "tasks_failed": worker.tasks_failed,
            "met": sum(bool(r.get("met_deadline")) for r in results.values()),
        }
        self.workers = [worker]
        service.stop(drain=False)
        self.service = None

    def teardown(self):
        if self.service is not None:
            self.service.stop(drain=False)
            self.service = None


class ServiceCampaign(Workload):
    name = "service_campaign"
    why = ("Open loop, seeded loadgen plan paced on the wall clock against "
           "service defaults and 2x20 sleeping slots: the control tick, "
           "admission and prediction decide the result, HTTP cost barely.")
    single_pass = True
    # Mean gap, service defaults and 2x20 slots are the issue's; the job
    # count follows the time budget.  time_scale is
    # 0.01, not the issue's 0.005: there 40 slots of 55 ms tasks ask the
    # arbiter for ~730 completions/s, its measured ceiling, and a busy host
    # tips the campaign into rejections.
    SIZES = {
        "normal": dict(time_scale=0.01, gap=160.0, jobs=None),
        "check": dict(time_scale=0.005, gap=160.0, jobs=3),
    }
    WORKERS = 2
    SLOTS = 20
    #: One deadline for every job, the middle of the issue's 3-6: Jockey
    #: paces a job to finish at about half its deadline, so with drawn
    #: factors the median latency of nine jobs follows the draw (25% spread
    #: across seeds), not the service.
    DEADLINE_FACTOR = 4.5
    service = None
    workers = ()

    def generate(self, seed):
        from repro.service import LoadgenConfig, generate_workload
        from repro.service.loadgen import workload_fingerprint

        s = self.size
        gap_wall = s["gap"] * s["time_scale"]
        jobs = s["jobs"] or max(3, 1 + int(0.7 * self.seconds / gap_wall))
        plans = generate_workload(LoadgenConfig(
            jobs=jobs, seed=seed, mean_interarrival=s["gap"],
            deadline_factors=(self.DEADLINE_FACTOR,) * 2,
        ))
        # Stretch the seeded gaps so the arrivals span the same virtual
        # time for every seed: the seed decides burstiness, not the offered
        # load.
        span = s["gap"] * (jobs - 1)
        stretch = span / plans[-1].offset_seconds
        self.plans = [
            dataclasses.replace(p, offset_seconds=p.offset_seconds * stretch)
            for p in plans
        ]
        self.fingerprint = workload_fingerprint(self.plans)
        self.service_seed = seed % 1_000_003

    def setup(self, work):
        from repro.service import (
            ClusterService, ServiceClient, ServiceConfig, ServiceWorker,
            TemplateModelStore, WorkerConfig,
        )

        # A cold template: the store trains "mapreduce" through the (empty)
        # model cache, as the first submission to a new arbiter would.
        # (The store's own default seed: the template's model, and with it
        # every deadline, is the same for every --seed.)
        store = TemplateModelStore()
        store.get("mapreduce")
        config = ServiceConfig(
            time_scale=self.size["time_scale"], seed=self.service_seed
        )
        self.tick_wall_ms = config.tick_seconds * config.time_scale * 1e3
        self.service = ClusterService(config, store=store)
        self.service.start()
        self.client = ServiceClient(self.service.url)
        self.workers = [
            ServiceWorker(WorkerConfig(
                url=self.service.url, name=f"w{i}", slots=self.SLOTS
            )).start()
            for i in range(self.WORKERS)
        ]
        limit = perf_counter() + 10.0
        while self.service.healthz()["workers"] < self.WORKERS:
            if perf_counter() > limit:
                raise RuntimeError("workers did not register")
            time.sleep(0.002)
        info = self.client.template_info("mapreduce")
        self.feasible = float(info["min_feasible_seconds"])

    def run_pass(self, log):
        from repro.service import ServiceClientError

        service, client = self.service, self.client
        scale = self.size["time_scale"]
        # The workers outlive a pass (a traced run makes two).
        done_before = sum(w.tasks_done for w in self.workers)
        failed_before = sum(w.tasks_failed for w in self.workers)
        due_at = {}
        seen = {}
        open_ids = []
        submit_s = []
        late_s = []
        with region(self.tracer, "bench.timed"):
            origin = perf_counter() + 0.05
            for plan in self.plans:
                due = origin + plan.offset_seconds * scale
                # One submitter thread: it watches for completions while
                # it waits for the next arrival to fall due.
                # (The open loop's scheduled idle time is the generator's.)
                with region(self.tracer, "service.loadgen.wait"):
                    seen.update(wait_terminal(
                        service, [j for j in open_ids if j not in seen], due
                    ))
                    wait = due - perf_counter()
                    if wait > 0:
                        time.sleep(wait)
                log.attempted += 1
                late_s.append(perf_counter() - due)
                try:
                    reply = client.submit(
                        template=plan.template, policy="jockey", name=plan.name,
                        deadline_minutes=plan.deadline_factor * self.feasible / 60.0,
                    )
                except ServiceClientError as exc:
                    log.fail(f"submit of {plan.name} failed: {exc}")
                    continue
                submit_s.append(perf_counter() - due)
                open_ids.append(reply["job_id"])
                due_at[reply["job_id"]] = due
            seen.update(wait_terminal(
                service, [j for j in open_ids if j not in seen],
                perf_counter() + 120.0,
            ))
        # A job turns terminal when the arbiter handles its last completion;
        # the slot counts the task when the reply reaches it.
        statuses = [service.job_status(j) for j in open_ids]
        expected = sum(s["total_tasks"] for s in statuses
                       if s["status"] == "completed")
        settle = perf_counter() + 2.0
        while True:
            tasks = sum(w.tasks_done for w in self.workers) - done_before
            tasks_failed = (sum(w.tasks_failed for w in self.workers)
                            - failed_before)
            if tasks + tasks_failed >= expected or perf_counter() > settle:
                break
            time.sleep(POLL_SECONDS)
        results = audit_jobs(log, service, open_ids, tasks, tasks_failed)
        log.attempted += tasks + tasks_failed
        # Work is counted per job in flight (a job's tasks over its due ->
        # terminal time), not over the campaign's wall: in an open loop the
        # wall is the arrival schedule plus however long the last arrival
        # happens to take.  (Recorded as measured: a job's time here is
        # slots sleeping to the wall clock, which a slow host does not
        # stretch.  One key per job, so the throughput is all tasks over
        # all in-flight time; pooled under one key, the lower quartile of
        # nine latencies spread 20% between seeds.)
        total_tasks = {s["job_id"]: s["total_tasks"] for s in statuses}
        for job_id in results:
            log.record(job_id, seen[job_id] - due_at[job_id],
                       units=total_tasks[job_id])
        rejected = sum(s["status"] == "rejected" for s in statuses)
        elapsed = max(seen.values(), default=perf_counter()) - origin
        met = sum(bool(r.get("met_deadline")) for r in results.values())
        log.info = {
            "campaign_s": elapsed,
            "submit_ms_p50": quantile(submit_s, 0.5) * 1e3,
            "late_ms_max": max(late_s, default=0.0) * 1e3,
            "sent": float(len(self.plans)),
            "rejected": float(rejected),
            "attainment": met / len(self.plans),
            "alloc_token_s": (
                sum(r["allocation_seconds"] for r in results.values())
                / len(results) if results else 0.0
            ),
        }
        log.stats = {"sim_digest": self.fingerprint, "jobs": len(self.plans),
                     "tasks_done": tasks, "tasks_failed": tasks_failed}

    def teardown(self):
        for worker in self.workers:
            worker.stop()
        self.workers = ()
        if self.service is not None:
            self.service.stop(drain=False)
            self.service = None


WORKLOADS = {
    cls.name: cls
    for cls in (PolicySuite, ModelBuild, MarketClear, ServiceSaturate,
                ServiceCampaign)
}
