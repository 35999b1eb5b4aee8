"""Workload generators.

The paper evaluates on seven production SCOPE jobs, published only as
statistics (Table 2) and stage-dependency silhouettes (Fig. 3).  We cannot
obtain the jobs themselves, so :data:`TABLE2_SPECS` records the published
numbers and :func:`generate_job` synthesizes a job whose structure and
per-stage runtime quantiles match them: same stage count, barrier count and
vertex count, per-stage lognormal runtimes whose vertex-weighted median and
fastest/slowest-stage 90th percentiles are anchored to the published values.

Also provided: a classic MapReduce shape, random layered DAGs, and the
recurring-job population used for the Table 1 variance study.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.jobs.dag import Edge, EdgeType, JobGraph, Stage
from repro.jobs.profiles import JobProfile, StageProfile
from repro.simkit.distributions import (
    Constant,
    LogNormal,
    Truncated,
    Uniform,
    WithOutliers,
)
from repro.simkit.random import RngRegistry


@dataclass(frozen=True)
class JobSpec:
    """Published statistics of one evaluation job (paper Table 2)."""

    name: str
    num_stages: int
    num_barriers: int
    num_vertices: int
    runtime_median: float  # seconds, across all vertices
    runtime_p90: float
    fastest_stage_p90: float
    slowest_stage_p90: float
    data_gb: float

    def __post_init__(self):
        if self.num_stages < 1 or self.num_vertices < self.num_stages:
            raise ValueError(f"inconsistent spec for {self.name!r}")
        if self.num_barriers >= self.num_stages:
            raise ValueError(f"{self.name!r}: too many barrier stages")


#: Paper Table 2, verbatim.
TABLE2_SPECS: Dict[str, JobSpec] = {
    spec.name: spec
    for spec in (
        JobSpec("A", 23, 6, 681, 16.3, 61.5, 4.0, 126.3, 222.5),
        JobSpec("B", 14, 0, 1605, 4.0, 54.1, 3.3, 116.7, 114.3),
        JobSpec("C", 16, 3, 5751, 2.6, 5.7, 1.7, 21.9, 151.1),
        JobSpec("D", 24, 3, 3897, 6.1, 25.1, 1.4, 72.6, 268.7),
        JobSpec("E", 11, 1, 2033, 8.0, 130.0, 3.9, 320.6, 195.7),
        JobSpec("F", 26, 1, 6139, 3.6, 17.4, 3.3, 110.4, 285.6),
        JobSpec("G", 110, 15, 8496, 3.0, 7.7, 1.6, 68.3, 155.3),
    )
}

#: Default per-task failure probability for synthetic ground truth.
DEFAULT_FAILURE_PROB = 0.002
#: Default straggler mixture (paper §4.1 highlights outliers).
DEFAULT_OUTLIER_PROB = 0.01
DEFAULT_OUTLIER_FACTOR = 4.0
#: Task runtimes are capped at this multiple of the stage's p90: real tasks
#: are bounded by their input partition, so the fitted lognormal's extreme
#: tail (which would let one task dominate the whole job) is cut off.
RUNTIME_CAP_P90_MULTIPLE = 3.0


@dataclass(frozen=True)
class GeneratedJob:
    """A synthesized job: its DAG plus its ground-truth behaviour."""

    spec: JobSpec
    graph: JobGraph
    profile: JobProfile


def _partition_vertices(
    rng: np.random.Generator, spec: JobSpec, barrier_flags: List[bool]
) -> List[int]:
    """Split ``spec.num_vertices`` across stages.

    Barrier (aggregation) stages get small task counts; the rest follow a
    heavy-tailed split, mirroring the paper's observation that 'some stages
    may be split into hundreds of tasks, while others ... into few' (§3.3).
    """
    weights = rng.lognormal(mean=0.0, sigma=1.1, size=spec.num_stages)
    for i, is_barrier in enumerate(barrier_flags):
        if is_barrier:
            weights[i] *= 0.12
    weights = np.maximum(weights, 1e-6)
    raw = weights / weights.sum() * (spec.num_vertices - spec.num_stages)
    counts = [1 + int(x) for x in raw]
    # Fix rounding drift deterministically: add leftovers to largest stages.
    deficit = spec.num_vertices - sum(counts)
    order = np.argsort(-weights)
    i = 0
    while deficit > 0:
        counts[order[i % spec.num_stages]] += 1
        deficit -= 1
        i += 1
    while deficit < 0:
        j = order[i % spec.num_stages]
        if counts[j] > 1:
            counts[j] -= 1
            deficit += 1
        i += 1
    return counts


def _build_topology(
    rng: np.random.Generator, spec: JobSpec
) -> Tuple[List[Stage], List[Edge], List[bool]]:
    """Build a layered DAG with exactly ``spec.num_barriers`` barrier stages."""
    n = spec.num_stages
    # Roots: a few extract stages at the front of the order.  Chosen before
    # barriers so that barrier stages always have in-edges.
    num_roots = max(1, min(n - 1, int(rng.integers(1, max(2, n // 6) + 1))))
    barrier_flags = [False] * n
    if spec.num_barriers:
        candidates = list(range(num_roots, n))
        chosen = rng.choice(candidates, size=spec.num_barriers, replace=False)
        for c in chosen:
            barrier_flags[int(c)] = True
    counts = _partition_vertices(rng, spec, barrier_flags)
    stages = [Stage(f"s{i:02d}", counts[i]) for i in range(n)]
    edges: List[Edge] = []
    for i in range(num_roots, n):
        kind = EdgeType.ALL_TO_ALL if barrier_flags[i] else EdgeType.ONE_TO_ONE
        # Each stage consumes 1-2 upstream stages, biased to recent ones so
        # the DAG is deep rather than star-shaped (matching Fig. 3).
        fan_in = 1 if n < 4 else int(rng.integers(1, 3))
        lo = max(0, i - 6)
        parents = set()
        for _ in range(fan_in):
            parents.add(int(rng.integers(lo, i)))
        for p in sorted(parents):
            edges.append(Edge(stages[p].name, stages[i].name, kind))
    return stages, edges, barrier_flags


def _stage_runtime_medians(
    rng: np.random.Generator, spec: JobSpec, counts: List[int]
) -> Tuple[List[float], List[float]]:
    """Per-stage (median, p90) runtimes consistent with the published
    aggregate median and the fastest/slowest-stage p90s."""
    n = spec.num_stages
    # Sample raw per-stage medians log-uniformly, then rescale so the
    # vertex-weighted median of task runtimes matches the published median.
    raw = np.exp(rng.uniform(math.log(0.3), math.log(3.0), size=n))
    expanded = np.repeat(raw, counts)
    current_median = float(np.median(expanded))
    medians = raw * (spec.runtime_median / max(current_median, 1e-9))
    # Per-stage dispersion: p90/median ratio between the published aggregate
    # ratio's neighbourhood.
    agg_ratio = spec.runtime_p90 / spec.runtime_median
    ratios = np.exp(rng.uniform(math.log(1.2), math.log(max(1.3, agg_ratio)), size=n))
    p90s = medians * ratios
    # Anchor the extremes to the published fastest/slowest stage p90s.
    slowest = int(np.argmax(p90s))
    fastest = int(np.argmin(p90s))
    if slowest != fastest:
        scale_slow = spec.slowest_stage_p90 / p90s[slowest]
        p90s[slowest] *= scale_slow
        medians[slowest] *= scale_slow
        scale_fast = spec.fastest_stage_p90 / p90s[fastest]
        p90s[fastest] *= scale_fast
        medians[fastest] *= scale_fast
    return [float(m) for m in medians], [float(p) for p in p90s]


def generate_job(
    spec: JobSpec,
    *,
    seed: int = 0,
    vertex_scale: float = 1.0,
    failure_prob: float = DEFAULT_FAILURE_PROB,
    outlier_prob: float = DEFAULT_OUTLIER_PROB,
    outlier_factor: float = DEFAULT_OUTLIER_FACTOR,
    init_seconds: float = 1.0,
) -> GeneratedJob:
    """Synthesize a job matching ``spec``.

    ``vertex_scale`` < 1 shrinks every stage's task count proportionally
    (used by tests and smoke-scale benchmarks); structure and runtime
    statistics are unchanged.
    """
    if not 0 < vertex_scale <= 1:
        raise ValueError(f"vertex_scale must be in (0, 1], got {vertex_scale!r}")
    rng = RngRegistry(seed).stream(f"workload:{spec.name}")
    stages, edges, _flags = _build_topology(rng, spec)
    counts = [s.num_tasks for s in stages]
    medians, p90s = _stage_runtime_medians(rng, spec, counts)
    if vertex_scale < 1.0:
        stages = [
            Stage(s.name, max(1, int(round(s.num_tasks * vertex_scale))))
            for s in stages
        ]
    graph = JobGraph(spec.name, stages, edges)
    profiles = {}
    for i, stage in enumerate(stages):
        base = LogNormal.from_median_p90(medians[i], max(p90s[i], medians[i]))
        runtime = (
            WithOutliers(base, outlier_prob, outlier_factor)
            if outlier_prob > 0
            else base
        )
        runtime = Truncated(runtime, cap=RUNTIME_CAP_P90_MULTIPLE * max(p90s[i], medians[i]))
        profiles[stage.name] = StageProfile(
            name=stage.name,
            runtime=runtime,
            init=Uniform(0.5 * init_seconds, 1.5 * init_seconds),
            queue_obs=Constant(0.0),
            failure_prob=failure_prob,
        )
    return GeneratedJob(spec=spec, graph=graph, profile=JobProfile(graph, profiles))


def generate_table2_jobs(
    *, seed: int = 0, vertex_scale: float = 1.0
) -> Dict[str, GeneratedJob]:
    """All seven evaluation jobs A-G."""
    return {
        name: generate_job(spec, seed=seed, vertex_scale=vertex_scale)
        for name, spec in TABLE2_SPECS.items()
    }


def mapreduce_job(
    name: str = "mapreduce",
    *,
    num_maps: int = 200,
    num_reduces: int = 20,
    map_median: float = 10.0,
    map_p90: float = 25.0,
    reduce_median: float = 30.0,
    reduce_p90: float = 80.0,
    failure_prob: float = DEFAULT_FAILURE_PROB,
) -> GeneratedJob:
    """The paper's 'black circle connected to a blue triangle': one map
    stage feeding one full-shuffle reduce stage."""
    stages = [Stage("map", num_maps), Stage("reduce", num_reduces)]
    edges = [Edge("map", "reduce", EdgeType.ALL_TO_ALL)]
    graph = JobGraph(name, stages, edges)
    profile = JobProfile(
        graph,
        {
            "map": StageProfile(
                "map",
                runtime=Truncated(
                    LogNormal.from_median_p90(map_median, map_p90),
                    cap=RUNTIME_CAP_P90_MULTIPLE * map_p90,
                ),
                init=Constant(1.0),
                failure_prob=failure_prob,
            ),
            "reduce": StageProfile(
                "reduce",
                runtime=Truncated(
                    LogNormal.from_median_p90(reduce_median, reduce_p90),
                    cap=RUNTIME_CAP_P90_MULTIPLE * reduce_p90,
                ),
                init=Constant(1.0),
                failure_prob=failure_prob,
            ),
        },
    )
    spec = JobSpec(
        name, 2, 1, num_maps + num_reduces, map_median, map_p90,
        map_p90, reduce_p90, 0.0,
    )
    return GeneratedJob(spec=spec, graph=graph, profile=profile)


def named_job(
    name: str, *, seed: int = 0, vertex_scale: float = 1.0
) -> Optional[GeneratedJob]:
    """The job a name stands for at the CLI, the service and the fleet:
    ``mapreduce`` (which has no seed or scale) or one of Table 2's A-G.
    None for any other name; each caller words its own error."""
    if name == "mapreduce":
        return mapreduce_job()
    if name not in TABLE2_SPECS:
        return None
    return generate_job(
        TABLE2_SPECS[name], seed=seed, vertex_scale=vertex_scale
    )


def random_job(
    name: str,
    *,
    seed: int = 0,
    num_stages: Optional[int] = None,
    num_vertices: Optional[int] = None,
    median_scale: float = 1.0,
) -> GeneratedJob:
    """A random recurring job for population studies (Table 1, Fig. 1)."""
    rng = RngRegistry(seed).stream(f"randomjob:{name}")
    n_stages = num_stages or int(rng.integers(3, 20))
    n_vertices = num_vertices or int(
        max(n_stages, rng.lognormal(mean=math.log(300), sigma=1.0))
    )
    n_barriers = int(rng.integers(0, max(1, n_stages // 4) + 1))
    median = float(5.0 * median_scale * rng.lognormal(0.0, 0.4))
    p90 = median * float(rng.uniform(2.0, 8.0))
    spec = JobSpec(
        name=name,
        num_stages=n_stages,
        num_barriers=min(n_barriers, n_stages - 1),
        num_vertices=max(n_vertices, n_stages),
        runtime_median=median,
        runtime_p90=p90,
        fastest_stage_p90=median * 0.8,
        slowest_stage_p90=p90 * 2.5,
        data_gb=float(rng.uniform(10, 400)),
    )
    return generate_job(spec, seed=seed)


__all__ = [
    "DEFAULT_FAILURE_PROB",
    "DEFAULT_OUTLIER_FACTOR",
    "DEFAULT_OUTLIER_PROB",
    "GeneratedJob",
    "JobSpec",
    "TABLE2_SPECS",
    "generate_job",
    "generate_table2_jobs",
    "mapreduce_job",
    "named_job",
    "random_job",
]
