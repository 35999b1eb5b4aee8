"""Job profiles: the per-stage statistics Jockey learns from a prior run.

A :class:`JobProfile` plays two roles in the reproduction:

* **Ground truth** — the substrate samples actual task behaviour from the
  profile attached to the workload (optionally perturbed per run).
* **Training data** — Jockey builds its offline model from a profile
  extracted from an observed :class:`~repro.jobs.trace.RunTrace`, exactly as
  the paper trains on "a single production run".

Keeping both in one type mirrors the paper's information flow: Jockey never
sees the ground truth, only a profile estimated from one noisy execution.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Mapping, Optional, Tuple

from repro.jobs.dag import JobGraph
from repro.jobs.trace import RunTrace
from repro.simkit.distributions import (
    Constant,
    Distribution,
    Empirical,
    scale as scale_dist,
)


class ProfileError(ValueError):
    """Raised for inconsistent profiles."""


@dataclass(frozen=True)
class StageProfile:
    """Statistics for one stage.

    ``runtime`` is execution time proper; ``init`` is per-task startup cost
    (both hold a token).  ``queue_obs`` is the *observed* enqueued time from
    the source run — it is emergent behaviour, recorded because the
    ``totalworkWithQ`` indicator normalizes by it (paper §4.2), and is never
    sampled when simulating.
    """

    name: str
    runtime: Distribution
    init: Distribution = Constant(0.0)
    queue_obs: Distribution = Constant(0.0)
    failure_prob: float = 0.0
    #: Typical (start, end) of this stage relative to job duration, from the
    #: source run; used by the ``minstage`` indicator.
    rel_span: Optional[Tuple[float, float]] = None

    def __post_init__(self):
        if not 0 <= self.failure_prob < 1:
            raise ProfileError(
                f"stage {self.name!r}: failure_prob {self.failure_prob!r} out of [0,1)"
            )
        if self.rel_span is not None:
            lo, hi = self.rel_span
            if not 0 <= lo <= hi:
                raise ProfileError(f"stage {self.name!r}: bad rel_span {self.rel_span!r}")

    def mean_task_cost(self) -> float:
        """Expected token-holding seconds per successful attempt."""
        return self.runtime.mean() + self.init.mean()


class JobProfile:
    """A job graph plus per-stage statistics.

    Exposes the precomputed aggregates the paper's predictors and indicators
    need: ``T_s`` (total execution seconds per stage), ``Q_s`` (total
    enqueued seconds), ``l_s`` (longest task), and ``L_s`` (longest path from
    the *end* of stage ``s`` to the end of the job).
    """

    #: Quantile used for "longest task in stage" when the runtime
    #: distribution is parametric rather than a finite trace.
    LONGEST_TASK_QUANTILE = 0.99

    def __init__(self, graph: JobGraph, stages: Mapping[str, StageProfile]):
        missing = [s.name for s in graph.stages if s.name not in stages]
        if missing:
            raise ProfileError(f"profile missing stages: {missing}")
        extra = [name for name in stages if name not in graph]
        if extra:
            raise ProfileError(f"profile has unknown stages: {extra}")
        self.graph = graph
        self._stages: Dict[str, StageProfile] = dict(stages)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_trace(
        cls,
        graph: JobGraph,
        trace: RunTrace,
        *,
        min_failure_prob: float = 0.0,
    ) -> "JobProfile":
        """Estimate a profile from one observed run.

        Stages with no successful record in the trace (possible only for
        malformed traces) are rejected; failure probabilities are the
        per-stage observed fraction of bad attempts, floored at
        ``min_failure_prob``.
        """
        runtimes = trace.stage_runtimes()
        queues = trace.stage_queue_times()
        attempts = trace.stage_attempt_counts()
        spans = trace.stage_relative_spans()
        stages: Dict[str, StageProfile] = {}
        for stage in graph.stages:
            observed = runtimes.get(stage.name)
            if not observed:
                raise ProfileError(
                    f"trace of {trace.job_name!r} has no successful tasks for "
                    f"stage {stage.name!r}"
                )
            total, bad = attempts.get(stage.name, (len(observed), 0))
            failure_prob = max(bad / total if total else 0.0, min_failure_prob)
            queue_values = queues.get(stage.name) or [0.0]
            stages[stage.name] = StageProfile(
                name=stage.name,
                runtime=Empirical(list(observed)),
                init=Constant(0.0),
                queue_obs=Empirical(list(queue_values)),
                failure_prob=min(failure_prob, 0.99),
                rel_span=spans.get(stage.name),
            )
        return cls(graph, stages)

    def with_runtime_scale(self, factor: float) -> "JobProfile":
        """A copy with every runtime/init distribution scaled by ``factor``
        (models input-size growth or a cluster-wide slowdown)."""
        scaled = {
            name: replace(
                sp,
                runtime=scale_dist(sp.runtime, factor),
                init=scale_dist(sp.init, factor),
            )
            for name, sp in self._stages.items()
        }
        return JobProfile(self.graph, scaled)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    def stage(self, name: str) -> StageProfile:
        try:
            return self._stages[name]
        except KeyError:
            raise ProfileError(f"no stage profile for {name!r}") from None

    @property
    def stage_names(self) -> Tuple[str, ...]:
        return tuple(s.name for s in self.graph.stages)

    # ------------------------------------------------------------------
    # Aggregates used by predictors and indicators
    # ------------------------------------------------------------------

    def total_exec_seconds(self) -> Dict[str, float]:
        """``T_s``: expected aggregate execution seconds per stage."""
        return {
            s.name: s.num_tasks * self._stages[s.name].mean_task_cost()
            for s in self.graph.stages
        }

    def total_queue_seconds(self) -> Dict[str, float]:
        """``Q_s``: aggregate observed enqueued seconds per stage."""
        return {
            s.name: s.num_tasks * self._stages[s.name].queue_obs.mean()
            for s in self.graph.stages
        }

    def longest_task_seconds(self) -> Dict[str, float]:
        """``l_s``: execution time of the longest task in each stage."""
        out: Dict[str, float] = {}
        for s in self.graph.stages:
            sp = self._stages[s.name]
            if isinstance(sp.runtime, Empirical):
                longest = max(sp.runtime.values)
            else:
                longest = sp.runtime.quantile(self.LONGEST_TASK_QUANTILE)
            out[s.name] = longest + sp.init.mean()
        return out

    def longest_path_after(self) -> Dict[str, float]:
        """``L_s``: longest path from the end of stage ``s`` to the end of
        the job, charging each downstream stage its longest task."""
        longest_task = self.longest_task_seconds()
        inclusive = self.graph.longest_path_from(longest_task)
        return {
            name: inclusive[name] - longest_task[name] for name in inclusive
        }

    def total_work_seconds(self) -> float:
        """Expected aggregate CPU seconds across the job."""
        return sum(self.total_exec_seconds().values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"JobProfile({self.graph.name!r}, stages={len(self._stages)}, "
            f"work={self.total_work_seconds():.0f}s)"
        )


__all__ = ["JobProfile", "ProfileError", "StageProfile"]
