"""Which callables a traced run wraps, and the per-layer metrics it derives.

A layer is a module of ``src/repro``; every metric is named after the
layer it measures.  Each workload wraps only the layers it exercises; a
layer it bypasses reports 0, which is the evidence that it is bypassed.
The paths below are the only coupling between the benchmark and the names
under ``src/`` beyond the public entry points the workloads call.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import Callable, Dict, List, NamedTuple, Optional

from harness import quantile
from tracer import Span, Tracer, union_ns

#: Pass number of spans recorded during set-up.
SETUP_RUN = -1


class Target(NamedTuple):
    path: str
    name: str
    kind: str = "span"
    annotate: Optional[Callable] = None


def _spans(*specs) -> List[Target]:
    return [Target(path, name) for path, name in specs]


def _accs(*specs) -> List[Target]:
    return [Target(path, name, "acc") for path, name in specs]


TRAINING = _spans(
    ("repro.experiments.scenarios:run_training", "runtime.training_run"),
    ("repro.jobs.profiles:JobProfile.from_trace", "jobs.profile_fit"),
    ("repro.core.cpa:CpaTable.build", "core.cpa.build"),
)

SCHEDULE_ACCS = tuple(
    f"simkit.schedule.{fn}"
    for fn in ("call_at", "call_after", "schedule_batch", "schedule_at",
               "schedule_every")
)
QUERY_ACCS = ("core.cpa.remaining_curve", "core.cpa.remaining",
              "core.cpa.remaining_quantiles")


def _run_annotation(args, kwargs, result):
    sim = args[0].sim
    return {"events": sim.events_dispatched, "scheduled": sim.events_scheduled}


def policy_suite_targets(tracer: Tracer) -> List[Target]:
    policies = ("JockeyPolicy", "NoAdaptationPolicy", "AmdahlPolicy",
                "MaxAllocationPolicy")
    return TRAINING + _spans(
        ("repro.experiments.runner:run_experiment", "experiments.run_experiment"),
        ("repro.experiments.runner:make_policy", "experiments.make_policy"),
        ("repro.experiments.runner:metrics_from_trace", "experiments.metrics"),
        *((f"repro.core.policies:{cls}.on_tick", "core.control.tick")
          for cls in policies),
    ) + [
        Target("repro.experiments.runner:run_to_completion", "runtime.run",
               "span", _run_annotation),
    ] + _accs(
        # Under ~20 us a call: count and sum, no record per call.
        *((f"repro.simkit.events:Simulator.{name.rsplit('.', 1)[1]}", name)
          for name in SCHEDULE_ACCS),
        ("repro.cluster.tokens:TokenPool.recompute", "cluster.tokens.recompute"),
        ("repro.runtime.jobmanager:JobManager.set_allocation",
         "runtime.set_allocation"),
        ("repro.runtime.jobmanager:JobManager.snapshot", "runtime.snapshot"),
        *((f"repro.core.cpa:CpaTable.{name.rsplit('.', 1)[1]}", name)
          for name in QUERY_ACCS),
    )


def model_build_targets(tracer: Tracer) -> List[Target]:
    return TRAINING + _spans(
        ("repro.cache:get_or_build_table", "cache.get_or_build"),
        ("repro.cache:CpaTableCache.store", "cache.store"),
        ("repro.core.cpa:simulate_job", "core.simulator.sim"),
    ) + [
        Target("repro.cache:CpaTableCache.load", "cache.load", "span",
               lambda args, kwargs, result: {"hit": result is not None}),
        # One call per simulated task, ~4 us each: timed one call in eight.
        Target("repro.jobs.dag:DependencyTracker.complete", "jobs.dag.complete",
               "sampled"),
    ]


def _clear_annotation(args, kwargs, result):
    bids = args[1] if len(args) > 1 else kwargs["bids"]
    return {"bids": len(bids), "granted": result.granted_total,
            "wanted": result.demand}


def market_clear_targets(tracer: Tracer) -> List[Target]:
    return [
        Target("repro.market.engine:TokenMarket.step", "market.engine.step",
               "span", lambda args, kwargs, result: {"mode": args[0].config.mode}),
        Target("repro.market.admission:MarketAdmission.tick",
               "market.admission.tick"),
        Target("repro.market.arbiter:MarketArbiter.clear",
               "market.arbiter.clear", "span", _clear_annotation),
    ]


def service_targets(tracer: Tracer) -> List[Target]:
    def leased(args, kwargs, result):
        # A slot sleeps for the lease's wall_seconds as soon as the reply
        # arrives; that interval is the slot's busy time, seen from the wire.
        tasks = result.get("tasks") or []
        now = perf_counter_ns()
        for task in tasks:
            tracer.add_span(
                "service.worker.sleep", now,
                now + int(float(task.get("wall_seconds", 0.0)) * 1e9),
            )
        return {"tasks": len(tasks)}

    return [
        Target("repro.service.client:ServiceClient.submit", "service.client.submit"),
        Target("repro.service.client:ServiceClient.lease", "service.client.lease",
               "span", leased),
        Target("repro.service.client:ServiceClient.complete_task",
               "service.client.complete", "span", leased),
        Target("repro.service.client:ServiceClient.heartbeat",
               "service.client.heartbeat"),
    ] + _spans(
        ("repro.service.server:ClusterService.submit", "service.server.submit"),
        ("repro.service.server:ClusterService.lease", "service.server.lease"),
        ("repro.service.server:ClusterService.complete_task",
         "service.server.complete"),
        ("repro.service.server:ClusterService.tick", "service.server.tick"),
    )


TARGETS = {
    "policy_suite": policy_suite_targets,
    "model_build": model_build_targets,
    "market_clear": market_clear_targets,
    "service_saturate": service_targets,
    "service_campaign": service_targets,
}


# ----------------------------------------------------------------------
# Deriving the per-layer metrics of one traced pass
# ----------------------------------------------------------------------


class PassTrace:
    """The spans and accumulator deltas of one traced pass."""

    def __init__(self, tracer: Tracer, run: int, start_ns: int, end_ns: int,
                 accs: Dict[str, tuple]):
        self.accs = accs              # name -> (calls, total_ns, self_ns)
        self.by_name: Dict[str, List[Span]] = {}
        self.setup: Dict[str, List[Span]] = {}
        for span in list(tracer.spans):
            if span.run == run:
                self.by_name.setdefault(span.name, []).append(span)
            elif span.run == SETUP_RUN:
                self.setup.setdefault(span.name, []).append(span)

        # A workload may mark its timed region (and, inside it, the part
        # its workers are attached for); otherwise the whole pass is both.
        self.timed_window = self._marked("bench.timed") or (start_ns, end_ns)
        self.drain_window = self._marked("bench.drain") or self.timed_window

    def _marked(self, name: str):
        spans = self.by_name.get(name)
        return (spans[0].start, spans[0].end) if spans else None

    def spans(self, name: str) -> List[Span]:
        return self.by_name.get(name, [])

    def total_s(self, name: str, *, setup: bool = False) -> float:
        source = self.setup if setup else self.by_name
        return sum(s.duration_ns for s in source.get(name, [])) / 1e9

    def self_s(self, name: str) -> float:
        return sum(s.self_ns for s in self.spans(name)) / 1e9

    def pct(self, name: str, q: float, *, scale: float, field: str = "duration_ns",
            where: Optional[Callable[[Span], bool]] = None) -> float:
        values = [getattr(s, field) for s in self.spans(name)
                  if where is None or where(s)]
        return quantile(values, q) / scale

    def arg_sum(self, name: str, key: str) -> float:
        return float(sum((s.args or {}).get(key, 0) for s in self.spans(name)))

    def acc(self, names, index: int) -> float:
        if isinstance(names, str):
            names = (names,)
        return float(sum(self.accs.get(n, (0, 0, 0))[index] for n in names))

    def coverage(self, reference_s: float) -> float:
        """Share of the pass's wall spent inside some layer span, on any
        thread (the benchmark's own ``bench.*`` regions do not count).
        ``reference_s``, the pass's time inside the host reference kernel,
        is taken out of the wall unless the workload marked a timed region,
        which its reference samples then lie outside of."""
        intervals = [
            (s.start, s.end)
            for name, spans in self.by_name.items()
            if not name.startswith("bench.")
            for s in spans
        ]
        lo, hi = self.timed_window
        wall = hi - lo
        if self._marked("bench.timed") is None:
            wall -= int(reference_s * 1e9)
        return union_ns(intervals, lo, hi) / wall if wall > 0 else 0.0


MS, US = 1e6, 1e3
CALLS, TOTAL, SELF = 0, 1, 2


def _policy_suite(t: PassTrace, log, workload) -> Dict[str, float]:
    run_s = t.total_s("runtime.run")
    events = t.arg_sum("runtime.run", "events")
    return {
        "runtime.run_s": run_s,
        "runtime.self_s": t.self_s("runtime.run"),
        "runtime.tasks": float(log.stats["task_attempts"]),
        "runtime.task_retries": float(log.stats["task_retries"]),
        "runtime.set_allocation_calls": t.acc("runtime.set_allocation", CALLS),
        "runtime.snapshot_s": t.acc("runtime.snapshot", TOTAL) / 1e9,
        "simkit.events": events,
        "simkit.events_per_s": events / run_s if run_s else 0.0,
        "simkit.schedule_calls": t.acc(SCHEDULE_ACCS, CALLS),
        "simkit.schedule_s": t.acc(SCHEDULE_ACCS, SELF) / 1e9,
        "cluster.tokens.recompute_calls": t.acc("cluster.tokens.recompute", CALLS),
        "cluster.tokens.recompute_s": t.acc("cluster.tokens.recompute", TOTAL) / 1e9,
        "cluster.evictions": float(log.stats["evictions"]),
        "core.control.ticks": float(len(t.spans("core.control.tick"))),
        "core.control.tick_s": t.total_s("core.control.tick"),
        "core.control.tick_us_p50": t.pct("core.control.tick", 0.5, scale=US),
        "core.control.tick_us_p95": t.pct("core.control.tick", 0.95, scale=US),
        "core.cpa.queries": t.acc(QUERY_ACCS, CALLS),
        "core.cpa.query_s": t.acc(QUERY_ACCS, SELF) / 1e9,
        "experiments.metrics_s": t.total_s("experiments.metrics"),
        "setup.train_s": t.total_s("runtime.training_run", setup=True),
        "setup.cpa_build_s": t.total_s("core.cpa.build", setup=True),
        "core.control.jockey_slo_attainment": log.stats["jockey_slo_attainment"],
        "core.control.jockey_alloc_above_oracle":
            log.stats["jockey_alloc_above_oracle"],
    }


def _model_build(t: PassTrace, log, workload) -> Dict[str, float]:
    return {
        "runtime.training_run_s": t.total_s("runtime.training_run", setup=True),
        "jobs.profile_fit_s": t.total_s("jobs.profile_fit", setup=True),
        "core.cpa.build_s": t.total_s("core.cpa.build"),
        "core.cpa.build_self_s": t.self_s("core.cpa.build"),
        "core.simulator.sims": float(len(t.spans("core.simulator.sim"))),
        "core.simulator.sim_ms_p50": t.pct("core.simulator.sim", 0.5, scale=MS),
        "core.simulator.sim_ms_p95": t.pct("core.simulator.sim", 0.95, scale=MS),
        "core.simulator.self_s": t.self_s("core.simulator.sim"),
        "jobs.dag.complete_calls": t.acc("jobs.dag.complete", CALLS),
        "jobs.dag.complete_s": t.acc("jobs.dag.complete", TOTAL) / 1e9,
        "cache.store_ms": t.pct("cache.store", 0.5, scale=MS),
        "cache.load_ms": t.pct("cache.load", 0.5, scale=MS,
                               where=lambda s: s.args["hit"]),
        "cache.hit_ratio": log.info["cache_hit_ratio"],
        "cache.bytes": log.info["cache_bytes"],
        # The workload's own timer around each remaining_curve call is the
        # span here; a wrapper would cost a tenth of the call.
        "core.cpa.query_self_us_p50": log.info["query_us_p50"],
        "core.cpa.query_us_p99": log.info["query_us_p99"],
    }


def _market_clear(t: PassTrace, log, workload) -> Dict[str, float]:
    def standing(mode):
        return lambda s: s.parent is None and s.args["mode"] == mode

    wanted = t.arg_sum("market.arbiter.clear", "wanted")
    admission = log.stats["admission"]
    return {
        "market.engine.tick_ms_p50.pooled":
            t.pct("market.engine.step", 0.5, scale=MS, where=standing("pooled")),
        "market.engine.tick_ms_p50.split":
            t.pct("market.engine.step", 0.5, scale=MS, where=standing("split")),
        "market.engine.tick_ms_p90":
            t.pct("market.engine.step", 0.9, scale=MS,
                  where=lambda s: s.parent is None),
        "market.engine.self_s": t.self_s("market.engine.step"),
        "market.admission.tick_s": t.total_s("market.admission.tick"),
        "market.admission.admitted": float(admission["admitted"]),
        "market.admission.rejected": float(admission["rejected"]),
        "market.admission.queued": float(admission["queued"]),
        "market.arbiter.clear_s": t.total_s("market.arbiter.clear"),
        "market.arbiter.clear_ms_p50": t.pct("market.arbiter.clear", 0.5, scale=MS),
        "market.arbiter.bids": t.arg_sum("market.arbiter.clear", "bids"),
        "market.arbiter.granted": t.arg_sum("market.arbiter.clear", "granted"),
        "market.arbiter.fill_ratio":
            t.arg_sum("market.arbiter.clear", "granted") / wanted if wanted else 0.0,
        "market.engine.churn_s.pooled": t.total_s("market.engine.churn.pooled"),
        "market.engine.churn_s.split": t.total_s("market.engine.churn.split"),
        "market.engine.attainment.pooled": log.stats["attainment"]["pooled"],
        "market.engine.attainment.split": log.stats["attainment"]["split"],
    }


def _service(t: PassTrace, log, workload) -> Dict[str, float]:
    def rtt(op, q):
        return t.pct(f"service.client.{op}", q, scale=MS)

    def handle(op):
        return t.pct(f"service.server.{op}", 0.5, scale=MS)

    ticks = sorted(s.start for s in t.spans("service.server.tick"))
    lags = [(b - a) / MS - workload.tick_wall_ms for a, b in zip(ticks, ticks[1:])]
    leases = t.spans("service.client.lease")
    client_spans = [s for op in ("submit", "lease", "complete", "heartbeat")
                    for s in t.spans(f"service.client.{op}")]
    slots = sum(w.config.slots for w in workload.workers)
    busy_s = t.total_s("service.worker.sleep")
    drain_s = (t.drain_window[1] - t.drain_window[0]) / 1e9
    out = {
        **{f"service.client.rtt_ms_p50.{op}": rtt(op, 0.5)
           for op in ("submit", "lease", "complete", "heartbeat")},
        "service.client.rtt_ms_p99.complete": rtt("complete", 0.99),
        **{f"service.server.handle_ms_p50.{op}": handle(op)
           for op in ("submit", "lease", "complete")},
        "service.transport_ms_p50.complete":
            rtt("complete", 0.5) - handle("complete"),
        "service.server.ticks": float(len(ticks)),
        "service.server.tick_ms_p50": t.pct("service.server.tick", 0.5, scale=MS),
        "service.server.tick_ms_p95": t.pct("service.server.tick", 0.95, scale=MS),
        "service.server.tick_lag_ms_p95": quantile(lags, 0.95),
        "service.server.conflicts": float(sum(
            1 for s in client_spans if (s.args or {}).get("status") == 409
        )),
        "service.worker.tasks_done": float(log.stats["tasks_done"]),
        "service.worker.tasks_failed": float(log.stats["tasks_failed"]),
        "service.worker.lease_calls": float(len(leases)),
        "service.worker.lease_fill_ratio": (
            sum(1 for s in leases if (s.args or {}).get("tasks", 0) > 0)
            / len(leases) if leases else 0.0
        ),
        "service.worker.slot_busy_frac":
            busy_s / (slots * drain_s) if slots and drain_s else 0.0,
    }
    for key in ("late_ms_max", "sent", "rejected"):
        out[f"service.loadgen.{key}"] = log.info.get(key, 0.0)
    for key in ("attainment", "alloc_token_s", "submit_ms_p50"):
        out[f"service.campaign.{key}"] = log.info.get(key, 0.0)
    return out


DERIVE = {
    "policy_suite": _policy_suite,
    "model_build": _model_build,
    "market_clear": _market_clear,
    "service_saturate": _service,
    "service_campaign": _service,
}


def per_layer(workload, trace: PassTrace, log, overhead_frac: float):
    """Every per-layer metric this workload's layers produce; the runner
    fills in 0 for the declared metrics of layers it bypasses."""
    metrics = DERIVE[workload.name](trace, log, workload)
    metrics["trace.coverage_frac"] = trace.coverage(log.info["reference_s"])
    metrics["trace.overhead_frac"] = overhead_frac
    return metrics
