"""Online profile learning: update policies and the drift detector.

An **update policy** turns a template's stored lineage (oldest → newest
:class:`~repro.jobs.profiles.JobProfile` generations, each carrying
per-stage :class:`~repro.simkit.distributions.Empirical` samples learned
from one run) into the single profile the next C(p, a) build trains on:

* ``latest`` — the newest generation verbatim;
* ``ewma`` — exponentially-weighted blend over the last :data:`WINDOW`
  generations: the one at age ``k`` gets weight ``alpha * (1 - alpha)^k``
  (normalized, ``alpha`` = :data:`EWMA_ALPHA`), realized by drawing a
  proportional, *quantile-spaced* subsample from each generation's sorted
  values — order statistics at evenly spaced ranks — so blending needs no
  RNG and is deterministic for a fixed lineage.

The **drift detector** compares the profile the current model was built
from against the profile observed in the run that just finished.  Per
stage it reports a two-sample Kolmogorov–Smirnov statistic against the
classical large-sample threshold ``c * sqrt((n + m) / (n m))`` plus
mean- and median-ratio shifts.  The *decision*, though, is job-level:
single-run stage samples are few and heavy-tailed (a straggler moves a
12-task stage's mean by 30%), so per-stage votes alone would rebuild on
calm days.  A drift is significant when the task-seconds-weighted work
ratio shifts past :data:`MEAN_SHIFT_THRESHOLD` AND either the median of
per-stage median ratios corroborates it or at least
:data:`KS_STAGE_FRACTION` of the KS-eligible stages trip — a real profile
drift moves the weighted mean *and* shows up robustly; run-to-run noise
rarely does both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.fleet.store import FleetError
from repro.jobs.profiles import JobProfile, StageProfile
from repro.simkit import distributions as dist

UPDATE_POLICIES = ("latest", "ewma")

#: Newest generations a blend reads (and a resolve loads from the store).
WINDOW = 3
#: The ``ewma`` policy's weight on the newest generation.
EWMA_ALPHA = 0.5
#: Cap on pooled samples per stage distribution: keeps blended profiles
#: (and their fingerprints) bounded as lineages grow.
MAX_SAMPLES = 512

#: KS threshold coefficient: 1.36 ≈ the classical alpha=0.05 value of
#: ``c(alpha) = sqrt(-ln(alpha / 2) / 2)``.
KS_COEFFICIENT = 1.36
#: Relative shift (|ratio - 1|) of the job-level work ratio (and the
#: per-stage median ratios) that counts as drift.  Calibrated against
#: run-to-run noise at smoke scale: calm single-run pairs shift up to
#: ~0.3 (heavy-tailed task runtimes over ~100 tasks); a 1.6x drift lands
#: past 0.6 against the pre-drift model.
MEAN_SHIFT_THRESHOLD = 0.4
#: Stages with fewer samples than this on either side are KS-ineligible
#: (reported, but never individually significant): both the KS threshold
#: and a median are meaningless at tiny n.
MIN_SAMPLES = 8
#: Fraction of KS-eligible stages that must trip for the KS vote.
KS_STAGE_FRACTION = 0.5


def _samples(d) -> Optional[List[float]]:
    """Finite samples behind a distribution: Empirical values (through any
    Scaled wrappers), None for parametric shapes."""
    if isinstance(d, dist.Empirical):
        return [float(v) for v in d.values]
    if isinstance(d, dist.Scaled):
        base = _samples(d.base)
        if base is None:
            return None
        return [v * d.factor for v in base]
    return None


def _quantile_subsample(values: Sequence[float], count: int) -> List[float]:
    """``count`` order statistics at evenly spaced ranks of ``values`` —
    a deterministic, shape-preserving subsample (includes min and max)."""
    ordered = sorted(float(v) for v in values)
    n = len(ordered)
    if count >= n:
        return ordered
    if count == 1:
        return [ordered[n // 2]]
    idx = np.floor(np.linspace(0.0, n - 1, count) + 0.5).astype(int)
    return [ordered[i] for i in idx]


def _apportion(weights: Sequence[float], total: int) -> List[int]:
    """Largest-remainder apportionment of ``total`` sample slots across
    ``weights`` (at least one slot per positive weight when possible)."""
    shares = [w * total for w in weights]
    counts = [int(math.floor(s)) for s in shares]
    remainders = [(s - c, i) for i, (s, c) in enumerate(zip(shares, counts))]
    shortfall = total - sum(counts)
    for _frac, i in sorted(remainders, key=lambda p: (-p[0], p[1]))[:shortfall]:
        counts[i] += 1
    return counts


def _blend_stage_samples(
    per_generation: Sequence[Optional[List[float]]],
    weights: Sequence[float],
) -> Optional[List[float]]:
    """Pooled samples for one stage distribution across generations, or
    None when no generation has finite samples."""
    pairs = [
        (vals, w)
        for vals, w in zip(per_generation, weights)
        if vals  # parametric or empty: contributes nothing
    ]
    if not pairs:
        return None
    total_weight = sum(w for _vals, w in pairs)
    available = sum(len(vals) for vals, _w in pairs)
    budget = min(MAX_SAMPLES, available)
    counts = _apportion([w / total_weight for _vals, w in pairs], budget)
    pooled: List[float] = []
    for (vals, _w), count in zip(pairs, counts):
        if count > 0:
            pooled.extend(_quantile_subsample(vals, min(count, len(vals))))
    pooled.sort()
    return pooled or None


def resolve_profile(policy: str, lineage: Sequence[JobProfile]) -> JobProfile:
    """The training profile the update ``policy`` (one of
    :data:`UPDATE_POLICIES`) derives from a lineage (oldest → newest).
    ``latest`` returns the newest generation; ``ewma`` pools per-stage
    runtime/queue samples across the last :data:`WINDOW` generations.
    Stages whose distributions carry no finite samples (parametric
    profiles) fall back to the newest generation."""
    if policy not in UPDATE_POLICIES:
        raise FleetError(
            f"unknown update policy {policy!r} "
            f"(choose from {', '.join(UPDATE_POLICIES)})"
        )
    if not lineage:
        raise FleetError("cannot resolve a profile from an empty lineage")
    newest = lineage[-1]
    if policy == "latest" or len(lineage) == 1:
        return newest
    recent = list(lineage[-WINDOW:])
    # EWMA weights, oldest → newest (the newest has age 0), normalized.
    raw = [EWMA_ALPHA * (1.0 - EWMA_ALPHA) ** age for age in reversed(range(len(recent)))]
    total = sum(raw)
    weights = [w / total for w in raw]
    stages = {}
    for name in newest.stage_names:
        sp_new = newest.stage(name)
        runtime = _blend_stage_samples(
            [_samples(p.stage(name).runtime) for p in recent], weights
        )
        queue = _blend_stage_samples(
            [_samples(p.stage(name).queue_obs) for p in recent], weights
        )
        failure = sum(
            w * p.stage(name).failure_prob for p, w in zip(recent, weights)
        )
        stages[name] = replace(
            sp_new,
            runtime=dist.Empirical(runtime) if runtime else sp_new.runtime,
            queue_obs=dist.Empirical(queue) if queue else sp_new.queue_obs,
            failure_prob=min(failure, 0.99),
        )
    return JobProfile(newest.graph, stages)


# ----------------------------------------------------------------------
# Drift detection
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StageDrift:
    """One stage's reference-vs-observed comparison."""

    stage: str
    n_reference: int
    n_observed: int
    ks_statistic: float
    ks_threshold: float  # inf when the stage is KS-ineligible
    mean_ratio: float    # observed mean / reference mean
    median_ratio: float  # observed median / reference median
    work_reference: float  # expected task-seconds (mean x graph task count)
    work_observed: float
    #: This stage alone shows drift (KS trip + median shift); job-level
    #: significance is decided in :class:`DriftReport`, not here.
    significant: bool


@dataclass(frozen=True)
class DriftReport:
    """Drift statistics for one (model, observed-run) pair: per-stage
    records plus the job-level aggregates the decision is made on."""

    stages: Tuple[StageDrift, ...]
    #: Observed / reference total task-seconds across all stages.
    work_ratio: float
    #: Median of the KS-eligible stages' median ratios (1.0 when none).
    median_ratio: float
    #: Fraction of KS-eligible stages whose KS statistic tripped.
    ks_trip_fraction: float
    significant: bool

    @property
    def max_statistic(self) -> float:
        return max((s.ks_statistic for s in self.stages), default=0.0)

    @property
    def work_shift(self) -> float:
        return abs(self.work_ratio - 1.0)

    def drifted_stages(self) -> Tuple[str, ...]:
        return tuple(s.stage for s in self.stages if s.significant)


def ks_statistic(x: Sequence[float], y: Sequence[float]) -> float:
    """Two-sample Kolmogorov–Smirnov statistic (max ECDF distance)."""
    xs = np.sort(np.asarray(x, dtype=float))
    ys = np.sort(np.asarray(y, dtype=float))
    grid = np.concatenate([xs, ys])
    cdf_x = np.searchsorted(xs, grid, side="right") / len(xs)
    cdf_y = np.searchsorted(ys, grid, side="right") / len(ys)
    return float(np.max(np.abs(cdf_x - cdf_y)))


def _stage_work(d, num_tasks: int) -> float:
    """Expected task-seconds of one side of a stage comparison: mean task
    runtime times the *graph's* task count.  Never the sample sum — a
    blended reference pools up to :data:`WINDOW` generations' samples, so
    sum totals would report drift on sample *count*, not runtime scale."""
    return float(d.mean()) * num_tasks


def _stage_drift(
    name: str,
    reference: StageProfile,
    observed: StageProfile,
    num_tasks: int,
) -> StageDrift:
    ref_samples = _samples(reference.runtime)
    obs_samples = _samples(observed.runtime)
    ref_mean = reference.runtime.mean()
    obs_mean = observed.runtime.mean()
    mean_ratio = obs_mean / ref_mean if ref_mean > 0 else math.inf
    median_ratio = mean_ratio
    ks_stat = 0.0
    ks_threshold = math.inf
    if (
        ref_samples is not None
        and obs_samples is not None
        and min(len(ref_samples), len(obs_samples)) >= MIN_SAMPLES
    ):
        n, m = len(ref_samples), len(obs_samples)
        ks_stat = ks_statistic(ref_samples, obs_samples)
        ks_threshold = KS_COEFFICIENT * math.sqrt((n + m) / (n * m))
        ref_median = float(np.median(ref_samples))
        if ref_median > 0:
            median_ratio = float(np.median(obs_samples)) / ref_median
    # A stage alone is significant only with both distributional (KS) and
    # robust-location (median) evidence; KS-ineligible stages never are.
    significant = (
        ks_stat > ks_threshold
        and abs(median_ratio - 1.0) > MEAN_SHIFT_THRESHOLD
    )
    return StageDrift(
        stage=name,
        n_reference=len(ref_samples) if ref_samples is not None else 0,
        n_observed=len(obs_samples) if obs_samples is not None else 0,
        ks_statistic=ks_stat,
        ks_threshold=ks_threshold,
        mean_ratio=mean_ratio,
        median_ratio=median_ratio,
        work_reference=_stage_work(reference.runtime, num_tasks),
        work_observed=_stage_work(observed.runtime, num_tasks),
        significant=significant,
    )


def detect_drift(reference: JobProfile, observed: JobProfile) -> DriftReport:
    """Compare the profile the current model was built from (``reference``)
    against the profile learned from the run that just finished.

    Per-stage KS / mean / median statistics are reported for all stages;
    the job-level verdict is significant when the task-seconds-weighted
    work ratio shifted past :data:`MEAN_SHIFT_THRESHOLD` AND either the
    median of stage median-ratios shifted as far or at least
    :data:`KS_STAGE_FRACTION` of the KS-eligible stages trip.
    """
    if reference.stage_names != observed.stage_names:
        raise FleetError(
            "drift detection needs matching stage sets: "
            f"{reference.stage_names} vs {observed.stage_names}"
        )
    stages = tuple(
        _stage_drift(
            name,
            reference.stage(name),
            observed.stage(name),
            reference.graph.stage(name).num_tasks,
        )
        for name in reference.stage_names
    )
    work_ref = sum(s.work_reference for s in stages)
    work_obs = sum(s.work_observed for s in stages)
    work_ratio = work_obs / work_ref if work_ref > 0 else math.inf
    eligible = [s for s in stages if math.isfinite(s.ks_threshold)]
    if eligible:
        median_ratio = float(np.median([s.median_ratio for s in eligible]))
        ks_fraction = (
            sum(1 for s in eligible if s.ks_statistic > s.ks_threshold)
            / len(eligible)
        )
    else:
        median_ratio = 1.0
        ks_fraction = 0.0
    work_shifted = abs(work_ratio - 1.0) > MEAN_SHIFT_THRESHOLD
    median_shifted = abs(median_ratio - 1.0) > MEAN_SHIFT_THRESHOLD
    ks_voted = bool(eligible) and ks_fraction >= KS_STAGE_FRACTION
    return DriftReport(
        stages=stages,
        work_ratio=work_ratio,
        median_ratio=median_ratio,
        ks_trip_fraction=ks_fraction,
        significant=work_shifted and (median_shifted or ks_voted),
    )


__all__ = [
    "DriftReport",
    "EWMA_ALPHA",
    "KS_COEFFICIENT",
    "KS_STAGE_FRACTION",
    "MAX_SAMPLES",
    "MEAN_SHIFT_THRESHOLD",
    "MIN_SAMPLES",
    "StageDrift",
    "UPDATE_POLICIES",
    "WINDOW",
    "detect_drift",
    "ks_statistic",
    "resolve_profile",
]
