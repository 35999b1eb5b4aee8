"""The SLO experiment runner: one job, one policy, one (perturbed) cluster.

Mirrors the paper's experimental procedure (§5.1): the policy proposes an
initial guaranteed allocation, the job starts on the shared cluster, and an
adaptive policy re-decides the allocation every control period from the
job's progress snapshot.  Each run draws fresh background load, failures,
and a per-run runtime scale factor (recurring jobs see varying input sizes
and cluster conditions — §2.3/Table 3).  A :class:`Sweep` runs one
comparison — variants x jobs x deadlines x reps on paired seeds — through
one fan-out.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.chaos.spec import ChaosSpec
from repro.cluster import Cluster, ClusterConfig, LoadEpisode
from repro.core.control import ControlConfig
from repro.core.policies import POLICY_KINDS as ALL_POLICY_KINDS
from repro.core.policies import AllocationPolicy, build_policy, run_artifacts
from repro.core.utility import deadline_utility
from repro.experiments.metrics import RunMetrics, metrics_from_trace
from repro.experiments.scenarios import TrainedJob
from repro.jobs.trace import RunTrace
from repro.parallel import parallel_map
from repro.runtime.jobmanager import JobManager, run_to_completion
from repro.runtime.speculation import SpeculationConfig
from repro.settable import Amount, Positive, check
from repro.simkit.events import Simulator
from repro.simkit.random import RngRegistry, derive_seed
from repro.telemetry.audit import PHASE_TICK, TickRecord


#: Per-run ground-truth perturbation: recurring jobs' work varies run to
#: run.  Lognormal sigma chosen to match Table 1's median CoV (~0.28) and
#: Table 3's observation that reruns can need 1.5-2x the trained work.
RUNTIME_SCALE_SIGMA = 0.22
RUNTIME_SCALE_CLIP = (0.7, 1.7)


def sample_runtime_scale(rng: np.random.Generator) -> float:
    scale = float(rng.lognormal(mean=0.0, sigma=RUNTIME_SCALE_SIGMA))
    return float(min(max(scale, RUNTIME_SCALE_CLIP[0]), RUNTIME_SCALE_CLIP[1]))


@dataclass(frozen=True)
class RunConfig:
    """Everything that varies per experiment run."""

    deadline_seconds: Positive
    seed: Amount = 0
    runtime_scale: Optional[Positive] = None   # None -> sample per seed
    cluster: ClusterConfig = ClusterConfig()
    episodes: Tuple[LoadEpisode, ...] = ()
    control_period: Positive = 60.0
    #: Scripted mid-run deadline changes: (at_seconds, new_deadline_seconds).
    deadline_changes: Tuple[Tuple[float, float], ...] = ()
    #: Sample a per-run "cluster day" (mean background demand): busy days
    #: slow every task through contention — the changing cluster conditions
    #: of §2.4 that a static allocation cannot react to.
    sample_cluster_day: bool = True
    #: Optional straggler mitigation (speculative duplicates, §4.4).
    speculation: Optional[SpeculationConfig] = None
    #: Chaos-injection schedule for this run (None = calm cluster); see
    #: :mod:`repro.chaos`.  Enables the job manager's allocation-retry
    #: backoff so clamped requests are re-asked.
    chaos: Optional[ChaosSpec] = None

    def __post_init__(self):
        check(self, ValueError)


#: Virtual seconds an experiment run (one job, or a multi-job run) may take
#: before it is reported as not finishing.
MAX_VIRTUAL_SECONDS = 12 * 3600.0


#: Per-run cluster-day sampling: most days are near the trained mean, but
#: a minority are *hot* — the cluster-wide overload behind the paper's one
#: missed deadline ("much higher load on the cluster at that time", §5.6).
CLUSTER_DAY_STDDEV = 35.0
#: Experiment days run hotter than the (one-off) training day: clusters
#: fill up over time, so the learned model's slack is partly consumed by
#: baseline load growth.
CLUSTER_DAY_BASE_SHIFT = 40.0
CLUSTER_DAY_HOT_PROB = 0.15
CLUSTER_DAY_HOT_SHIFT = 85.0
CLUSTER_DAY_CLIP = (320.0, 585.0)


@dataclass
class ExperimentResult:
    """One run's outcome plus the artifacts the figures need."""

    metrics: RunMetrics
    trace: RunTrace
    runtime_scale: float
    final_deadline: float = 0.0
    #: The deadline the run *started* with; differs from ``final_deadline``
    #: only when ``RunConfig.deadline_changes`` rewrote it mid-run.
    initial_deadline: float = 0.0
    #: Scripted mid-run deadline changes, as configured.
    deadline_changes: Tuple[Tuple[float, float], ...] = ()
    #: The controller's per-tick decision audit (empty for non-controller
    #: policies): progress, candidate predictions, raw/dead-zone/hysteresis,
    #: the slack and each tick's completion-time interval forecast.
    audit_records: List[TickRecord] = field(default_factory=list)
    #: Chaos-engine counters (None for calm runs): events fired per
    #: injector, degraded ticks, allocation deficits/retries.
    chaos_summary: Optional[dict] = None

    @property
    def allocation_series(self) -> List[Tuple[float, int]]:
        """(minute, requested allocation) for Fig. 6/7-style time series,
        read off the trace."""
        return [(t / 60.0, a) for t, a in self.trace.allocation_timeline]

    @property
    def running_series(self) -> List[Tuple[float, int]]:
        """(minute, running tasks), read off the trace."""
        return [(t / 60.0, r) for t, r in self.trace.running_timeline]

    @property
    def raw_series(self) -> List[Tuple[float, int]]:
        """(minute, raw controller allocation) per periodic tick, read off
        the audit: the job starts at simulator time 0, so a tick's elapsed
        is the simulator time it was decided at."""
        return [
            (r.elapsed / 60.0, r.raw)
            for r in self.audit_records if r.phase == PHASE_TICK
        ]

    def slo_report(self, *, table=None):
        """SLO attainment for this run, computed from its own artifacts
        (see :func:`repro.telemetry.slo.analyze_run`).  Pass the job's
        C(p, a) table to get a real per-tick risk timeline; without one the
        timeline degrades to the binary margin check."""
        from repro.telemetry.slo import analyze_run

        return analyze_run(
            self.trace,
            self.audit_records,
            policy=self.metrics.policy,
            deadline=self.initial_deadline or self.trace.deadline,
            table=table,
            schedule=self.deadline_changes,
        )


def run_control_loop(
    cluster: Cluster,
    graph,
    behavior,
    policy: AllocationPolicy,
    *,
    rng: np.random.Generator,
    deadline: float,
    chaos: Optional[ChaosSpec] = None,
    chaos_seed: Optional[int] = None,
    control_period: float = 60.0,
    speculation: Optional[SpeculationConfig] = None,
    deadline_changes: Sequence[Tuple[float, float]] = (),
    max_seconds: float = 86_400.0,
) -> Tuple[RunTrace, Optional[object]]:
    """Drive one job under ``policy`` on an already-built simkit cluster —
    the paper's control loop (§4.3/§5.1), written once.

    Everything random is passed in (the job's ``rng`` stream, ``chaos_seed``,
    the cluster itself), so callers with different seeding conventions share
    the loop bit for bit.  A ``chaos`` spec installs its injectors, turns on
    allocation retry and may drop or delay ticks; ``deadline_changes`` are
    ``(at_seconds, new_deadline)`` rewrites.  Returns ``(trace, chaos
    engine or None)``.
    """
    sim = cluster.sim
    manager = JobManager(
        cluster,
        graph,
        behavior,
        initial_allocation=policy.initial_allocation(),
        rng=rng,
        deadline=deadline,
        speculation=speculation,
        allocation_retry=chaos is not None,
    )
    engine = None
    if chaos is not None:
        # Unknown machine/stage references raise ChaosError here: a runtime
        # failure with a named error, not a usage one.
        from repro.chaos.engine import ChaosEngine

        engine = ChaosEngine(
            chaos, sim=sim, cluster=cluster, manager=manager, policy=policy,
            seed=chaos_seed,
        )
        engine.install()

    def tick_body() -> None:
        if manager.finished:
            return
        allocation = policy.on_tick(manager.snapshot())
        if allocation is not None:
            manager.set_allocation(allocation)

    def control_tick() -> None:
        if manager.finished:
            return
        if engine is not None:
            disposition, delay = engine.tick_disposition()
            if disposition == "drop":
                return
            if disposition == "delay":
                sim.call_after(delay, tick_body)
                return
        tick_body()

    if policy.adaptive:
        sim.schedule_every(control_period, control_tick)

    for at_seconds, new_deadline in deadline_changes:

        def apply_change(d=new_deadline) -> None:
            manager.trace.deadline = d
            policy.change_utility(deadline_utility(d))

        sim.call_at(at_seconds, apply_change)

    return run_to_completion(manager, max_seconds=max_seconds), engine


def run_experiment(
    trained: TrainedJob,
    policy: AllocationPolicy,
    config: RunConfig,
) -> ExperimentResult:
    """Execute one SLO run and compute its metrics: per-run sampling of the
    runtime scale and the cluster day, then :func:`run_control_loop`.  A
    caller that wants the run's trace events wraps this call in
    :func:`repro.telemetry.trace.capture`."""
    rng = RngRegistry(config.seed)
    if config.runtime_scale is None:
        runtime_scale = sample_runtime_scale(rng.stream("runtime-scale"))
    else:
        runtime_scale = config.runtime_scale
    behavior = trained.generated.profile.with_runtime_scale(runtime_scale)

    cluster_config = config.cluster
    if config.sample_cluster_day and cluster_config.background_guaranteed > 0:
        base = (cluster_config.background_mean_demand or 0.0) + CLUSTER_DAY_BASE_SHIFT
        day_rng = rng.stream("cluster-day")
        if day_rng.random() < CLUSTER_DAY_HOT_PROB:
            base += CLUSTER_DAY_HOT_SHIFT
        day = float(
            np.clip(
                base + day_rng.normal(0.0, CLUSTER_DAY_STDDEV), *CLUSTER_DAY_CLIP
            )
        )
        cluster_config = replace(cluster_config, background_mean_demand=day)

    sim = Simulator()
    cluster = Cluster(
        sim, cluster_config, rng=rng.spawn("cluster"), episodes=config.episodes
    )
    trace, engine = run_control_loop(
        cluster,
        trained.graph,
        behavior,
        policy,
        rng=rng.stream("job"),
        deadline=config.deadline_seconds,
        chaos=config.chaos,
        chaos_seed=derive_seed(config.seed, "chaos"),
        control_period=config.control_period,
        speculation=config.speculation,
        deadline_changes=config.deadline_changes,
        max_seconds=MAX_VIRTUAL_SECONDS,
    )
    trace.metadata["cluster_day_mean_demand"] = float(
        cluster_config.background_mean_demand or 0.0
    )
    trace.metadata["runtime_scale"] = runtime_scale
    metrics = metrics_from_trace(trace, policy=policy.name)
    return ExperimentResult(
        metrics=metrics,
        trace=trace,
        runtime_scale=runtime_scale,
        final_deadline=trace.deadline,
        initial_deadline=config.deadline_seconds,
        deadline_changes=tuple(config.deadline_changes),
        audit_records=run_artifacts(policy),
        chaos_summary=engine.summary() if engine is not None else None,
    )


# ----------------------------------------------------------------------
# Policy factory (fresh controller state per run)
# ----------------------------------------------------------------------


def make_policy(
    kind: str,
    trained: TrainedJob,
    deadline_seconds: float,
    *,
    control: Optional[ControlConfig] = None,
    indicator_kind: str = "totalworkWithQ",
) -> AllocationPolicy:
    """:func:`repro.core.policies.build_policy` for a :class:`TrainedJob`:
    one of the paper's policies for a given job/deadline.  ``indicator_kind``
    swaps full Jockey's progress indicator (and the table built against
    it); the other kinds always use the default one."""
    table, indicator = trained.table, trained.indicator
    if kind == "jockey" and indicator_kind != "totalworkWithQ":
        table = trained.table_for_indicator(indicator_kind)
        indicator = trained.indicator_named(indicator_kind)
    return build_policy(
        kind,
        table=table,
        indicator=indicator,
        profile=trained.learned_profile,
        utility=deadline_utility(deadline_seconds),
        control=control or ControlConfig(),
    )


#: The four policies of the paper's evaluation (Fig. 4): every kind but the
#: §5.6 online-model extension, which has its own ablation.
POLICY_KINDS = tuple(
    kind for kind in ALL_POLICY_KINDS if kind != "jockey-online-model"
)


@dataclass(frozen=True)
class Variant:
    """One arm of a sweep: a label plus its deltas from the defaults.
    ``run`` holds RunConfig fields, or is a function of the unit's (job,
    deadline) returning them — a ``deadline_seconds`` among them is the
    deadline the run starts from; ``transform`` rewrites the job first.
    Units carry their variant to a worker, so both are module-level."""

    label: str
    kind: str = "jockey"
    control: Optional[ControlConfig] = None
    indicator: str = "totalworkWithQ"
    run: Any = field(default_factory=dict)
    transform: Optional[Callable[[TrainedJob], TrainedJob]] = None


class Unit(NamedTuple):
    variant: Variant
    trained: TrainedJob
    rep: int
    config: RunConfig

    @property
    def key(self) -> str:
        """Seeds the unit and pairs it across variants (``metrics.tally``)."""
        return f"{self.trained.name}:{int(self.config.deadline_seconds)}:{self.rep}"


def _run_unit(unit: Unit) -> ExperimentResult:
    """Builds the policy in the worker: fresh controller state, cheap unit."""
    v = unit.variant
    policy = make_policy(
        v.kind, unit.trained, unit.config.deadline_seconds,
        control=v.control, indicator_kind=v.indicator,
    )
    return run_experiment(unit.trained, policy, unit.config)


@dataclass(frozen=True)
class Sweep:
    """Every (variant, job, deadline, rep) unit of one comparison, seeded
    ``derive_seed(seed, unit.key)``.  The variant is never in the key, so
    the variants of one (job, deadline, rep) face the same cluster day; the
    plan runs through one ``parallel_map``."""

    variants: Tuple[Variant, ...]
    deadlines: Tuple[str, ...] = ("short",)  # "short" and/or "long"
    reps: int = 1

    def plan(self, trained: Sequence[TrainedJob], seed: int) -> List[Unit]:
        units = []
        for v in self.variants:
            for job in trained:
                job = v.transform(job) if v.transform is not None else job
                for name in self.deadlines:
                    deadline = getattr(job, f"{name}_deadline")
                    config = RunConfig(**{
                        "deadline_seconds": deadline,
                        "control_period": (v.control or ControlConfig()).period_seconds,
                        **(v.run(job, deadline) if callable(v.run) else v.run),
                    })
                    for rep in range(self.reps):
                        unit = Unit(v, job, rep, config)
                        seeded = replace(config, seed=derive_seed(seed, unit.key))
                        units.append(unit._replace(config=seeded))
        return units

    def run(
        self, trained: Iterable[TrainedJob], *, seed: int, jobs: Optional[int] = None
    ) -> List[Tuple[Unit, ExperimentResult]]:
        """``(unit, result)`` in plan order (variant-major) at any worker
        count ``jobs`` (default ``REPRO_JOBS``, else serial)."""
        units = self.plan(list(trained), seed)
        return list(zip(units, parallel_map(_run_unit, units, jobs=jobs)))


__all__ = [
    "MAX_VIRTUAL_SECONDS",
    "POLICY_KINDS",
    "ExperimentResult",
    "RunConfig",
    "RUNTIME_SCALE_CLIP",
    "RUNTIME_SCALE_SIGMA",
    "Sweep",
    "Unit",
    "Variant",
    "make_policy",
    "run_control_loop",
    "run_experiment",
    "sample_runtime_scale",
]
