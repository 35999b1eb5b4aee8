"""Experiment scaffolding: scale presets, the training pipeline, and
per-job deadline selection.

The paper trains Jockey on "a single production run" of each job (§5.1).
We do the same against the substrate: one run at a fixed allocation under
normal cluster conditions produces the trace from which the learned profile,
the progress indicator and the C(p, a) table are built.  ``TrainedJob``
bundles those artifacts and is cached per (job, seed, scale) so every
experiment driver shares the training cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro import cache as model_cache
from repro.cluster import Cluster, ClusterConfig
from repro.core.cpa import CpaTable
from repro.core.progress import build_indicator
from repro.core.simulator import simulate_relative_spans
from repro.jobs.profiles import JobProfile
from repro.jobs.trace import RunTrace
from repro.jobs.workloads import TABLE2_SPECS, GeneratedJob, generate_job
from repro.runtime.jobmanager import JobManager, run_to_completion
from repro.simkit.events import Simulator
from repro.simkit.random import RngRegistry, derive_seed


@dataclass(frozen=True)
class Scale:
    """How big to run an experiment suite.

    ``smoke`` keeps unit tests fast, ``default`` is what the benchmarks
    run, ``paper`` matches the paper's experiment counts.
    """

    name: str
    jobs: Tuple[str, ...]
    reps: int                       # repetitions per (job, policy, deadline)
    cpa_reps: int                   # simulations per allocation when building C(p, a)
    allocations: Tuple[int, ...]    # C(p, a) allocation grid
    vertex_scale: float = 1.0       # shrink factor for stage task counts

    def __post_init__(self):
        if self.reps < 1 or self.cpa_reps < 1:
            raise ValueError("reps must be >= 1")
        if not self.jobs:
            raise ValueError("need at least one job")


SMOKE = Scale(
    name="smoke",
    jobs=("A", "C"),
    reps=1,
    cpa_reps=3,
    allocations=(10, 25, 50, 100),
    vertex_scale=0.3,
)

DEFAULT = Scale(
    name="default",
    jobs=("A", "B", "C", "D", "E", "F", "G"),
    reps=3,
    cpa_reps=8,
    allocations=(10, 20, 30, 40, 50, 60, 70, 80, 90, 100),
)

PAPER = Scale(
    name="paper",
    jobs=("A", "B", "C", "D", "E", "F", "G"),
    reps=6,
    cpa_reps=15,
    allocations=(10, 20, 30, 40, 50, 60, 70, 80, 90, 100),
)

SCALES = {s.name: s for s in (SMOKE, DEFAULT, PAPER)}

#: Guaranteed tokens of every profiling run: the experiments', the fleet's,
#: the live service's templates' and ``repro train``'s default.
TRAINING_ALLOCATION = 50

#: Deadlines are chosen from this grid (seconds): the paper uses 30/45/60-
#: minute-style deadlines set from the job's critical path (§2.2, §5.1).
DEADLINE_GRID = (1800.0, 2400.0, 3600.0, 5400.0, 7200.0, 10800.0)

#: Headroom between the fastest feasible execution and the short deadline.
#: Chosen so max-allocation runs finish far ahead of the deadline (the
#: paper's median was ~70% early, §5.2) while Jockey runs land near it and
#: static allocations break when a rerun needs 1.5-2x the trained work.
DEADLINE_HEADROOM = 1.8


@dataclass
class TrainedJob:
    """Everything Jockey knows about a job before an SLO run starts."""

    generated: GeneratedJob
    learned_profile: JobProfile
    training_trace: RunTrace
    table: CpaTable          # C(p, a) under the default indicator
    indicator: object        # totalworkWithQ over the learned profile
    short_deadline: float
    long_deadline: float
    scale: Scale
    seed: int
    #: Cache of alternate-indicator tables, keyed by indicator name.
    _indicator_tables: Dict[str, CpaTable] = None  # type: ignore[assignment]

    @property
    def name(self) -> str:
        return self.generated.spec.name

    @property
    def graph(self):
        return self.generated.graph

    def indicator_named(self, kind: str):
        """Build any of the paper's six indicators over the learned profile."""
        if kind == "minstage-inf":
            rng = RngRegistry(self.seed).stream(f"inf-spans:{self.name}")
            spans = simulate_relative_spans(self.learned_profile, rng)
            return build_indicator(kind, self.learned_profile, inf_spans=spans)
        return build_indicator(kind, self.learned_profile)

    def table_for_indicator(self, kind: str) -> CpaTable:
        """C(p, a) rebuilt against a different progress indicator.

        Served from the in-process dict when this object already built it,
        the on-disk model cache when another process did, and a fresh
        (parallel) build otherwise.
        """
        if kind == "totalworkWithQ":
            return self.table
        if self._indicator_tables is None:
            self._indicator_tables = {}
        cached = self._indicator_tables.get(kind)
        if cached is not None:
            return cached
        table = model_cache.get_or_build_table(
            self.learned_profile,
            self.indicator_named(kind),
            indicator_kind=kind,
            seed=derive_seed(self.seed, f"cpa:{self.name}:{kind}"),
            allocations=self.scale.allocations,
            reps=self.scale.cpa_reps,
        )
        self._indicator_tables[kind] = table
        return table


def run_training(
    generated: GeneratedJob,
    *,
    seed: int,
    allocation: int,
    stream: Optional[str] = None,
) -> RunTrace:
    """One profiling run at a fixed guaranteed allocation.  ``stream``
    names the job manager's RNG stream (default ``training:<job>``): each
    surface that trains keeps its own label, so its bundles never move."""
    # The shared cluster on a calm day: no scripted surges, no failures.
    cluster = Cluster(Simulator(), ClusterConfig(), rng=RngRegistry(seed))
    manager = JobManager(
        cluster,
        generated.graph,
        generated.profile,
        initial_allocation=allocation,
        rng=RngRegistry(seed).stream(
            stream or f"training:{generated.spec.name}"
        ),
    )
    return run_to_completion(manager)


def learn_profile(graph, trace: RunTrace) -> JobProfile:
    """What one finished run teaches about a job (§4.1); the failure-
    probability floor keeps a lucky run from learning "never fails"."""
    return JobProfile.from_trace(graph, trace, min_failure_prob=0.001)


def fit_model(profile: JobProfile, **build):
    """profile -> ``(indicator, table)``: the ``totalworkWithQ`` indicator
    Jockey ships and its C(p, a) table, through the model cache.  ``build``
    is what differs between callers: ``get_or_build_table``'s ``seed``,
    ``allocations``, ``reps`` and optionally ``jobs``, ``use_cache``."""
    indicator = build_indicator("totalworkWithQ", profile)
    table = model_cache.get_or_build_table(
        profile, indicator, indicator_kind="totalworkWithQ", **build
    )
    return indicator, table


def learn_model(graph, trace: RunTrace, **build):
    """trace -> ``(learned profile, indicator, table)``: the step every
    training surface shares (:func:`learn_profile`, then :func:`fit_model`)."""
    learned = learn_profile(graph, trace)
    return (learned, *fit_model(learned, **build))


def pick_deadline(table: CpaTable, *, headroom: float = DEADLINE_HEADROOM) -> float:
    """``headroom`` times the fastest feasible execution (C(0, a_max) at
    the worst-case percentile), rounded up to 5 minutes — how we stand in
    for the paper's 'deadline based on the length of the critical path'."""
    fastest = table.predicted_duration(max(table.allocations), q=0.9)
    target = fastest * headroom
    rounded = math.ceil(target / 300.0) * 300.0
    return max(rounded, DEADLINE_GRID[0])


_TRAINED_CACHE: Dict[Tuple[str, int, str], TrainedJob] = {}


def trained_job(
    name: str,
    *,
    seed: int = 0,
    scale: Scale = DEFAULT,
    use_cache: bool = True,
    jobs: Optional[int] = None,
) -> TrainedJob:
    """Generate, profile and model one of the Table 2 jobs.

    Two cache layers: ``_TRAINED_CACHE`` deduplicates within a process,
    and the model-building step (the expensive part — ``cpa_reps`` x
    ``|allocations|`` simulations) goes through the content-addressed
    on-disk cache, so a second process with the same inputs builds nothing.
    ``jobs`` fans the build out across worker processes (default: the
    ``REPRO_JOBS`` environment variable, else serial).
    """
    key = (name, seed, scale.name)
    if use_cache and key in _TRAINED_CACHE:
        return _TRAINED_CACHE[key]
    generated = generate_job(
        TABLE2_SPECS[name], seed=seed, vertex_scale=scale.vertex_scale
    )
    trace = run_training(generated, seed=seed, allocation=TRAINING_ALLOCATION)
    learned, indicator, table = learn_model(
        generated.graph,
        trace,
        seed=derive_seed(seed, f"cpa:{name}:totalworkWithQ"),
        allocations=scale.allocations,
        reps=scale.cpa_reps,
        jobs=jobs,
        use_cache=use_cache,
    )
    short = pick_deadline(table)
    trained = TrainedJob(
        generated=generated,
        learned_profile=learned,
        training_trace=trace,
        table=table,
        indicator=indicator,
        short_deadline=short,
        long_deadline=2.0 * short,
        scale=scale,
        seed=seed,
    )
    if use_cache:
        _TRAINED_CACHE[key] = trained
    return trained


def trained_jobs(
    *, seed: int = 0, scale: Scale = DEFAULT
) -> Dict[str, TrainedJob]:
    """All jobs in the scale's roster, trained and modeled."""
    return {name: trained_job(name, seed=seed, scale=scale) for name in scale.jobs}


def clear_trained_cache() -> None:
    _TRAINED_CACHE.clear()


__all__ = [
    "DEADLINE_GRID",
    "DEADLINE_HEADROOM",
    "DEFAULT",
    "PAPER",
    "SCALES",
    "SMOKE",
    "Scale",
    "TRAINING_ALLOCATION",
    "TrainedJob",
    "clear_trained_cache",
    "fit_model",
    "learn_model",
    "learn_profile",
    "pick_deadline",
    "run_training",
    "trained_job",
    "trained_jobs",
]
