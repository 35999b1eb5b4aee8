"""Job progress indicators (paper §4.2 and §5.4).

A progress indicator maps the observable runtime state of a job — the
fraction ``f_s`` of completed tasks in each stage — to a scalar in [0, 1]
used to index the precomputed remaining-time distributions ``C(p, a)``.

The paper builds six and ships ``totalworkWithQ``; we implement all six:

========================  ====================================================
``totalworkWithQ``        sum of ``f_s (Q_s + T_s)``, normalized
``totalwork``             sum of ``f_s T_s``, normalized
``vertexfrac``            fraction of vertices complete
``cp``                    1 − remaining critical path / total critical path
``minstage``              stage furthest behind its typical relative schedule
``minstage-inf``          same, schedule taken from an unconstrained run
========================  ====================================================

Each indicator has one formula, :meth:`progress_at`, over the fractions of
its ``stage_names`` in that order; :meth:`progress` checks a name-keyed
mapping and reads it in that order.  The offline simulator binds
``stage_names`` to tracker positions once per run and calls
``progress_at`` directly.
"""

from __future__ import annotations

import math
from operator import mul
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.jobs.profiles import JobProfile


class ProgressError(ValueError):
    """Raised for invalid indicator inputs."""


StageFractions = Mapping[str, float]


def _validate(fractions: StageFractions, expected: Tuple[str, ...]) -> None:
    for name in expected:
        f = fractions.get(name)
        if f is None:
            raise ProgressError(f"missing fraction for stage {name!r}")
        if not -1e-9 <= f <= 1 + 1e-9:
            raise ProgressError(f"fraction {f!r} for stage {name!r} out of [0,1]")


class _Indicator:
    """What every indicator shares: :meth:`progress` over a mapping is the
    positional :meth:`progress_at` over ``stage_names``."""

    stage_names: Tuple[str, ...]

    def progress(self, fractions: StageFractions) -> float:
        _validate(fractions, self.stage_names)
        return self.progress_at([fractions[s] for s in self.stage_names])


class WeightedWorkIndicator(_Indicator):
    """Progress = weighted mean of per-stage completion fractions.

    ``totalworkWithQ``, ``totalwork`` and ``vertexfrac`` are all instances
    with different weights.
    """

    def __init__(self, name: str, weights: Dict[str, float]):
        if not weights:
            raise ProgressError("no stages")
        for s, w in weights.items():
            if not 0 <= w < math.inf:
                raise ProgressError(
                    f"weight {w!r} for stage {s!r} is not finite and >= 0"
                )
        total = sum(weights.values())
        if total <= 0:
            raise ProgressError("weights must have positive sum")
        self.name = name
        self.stage_names = tuple(weights)
        self._weights = tuple(weights.values())
        self._total = total

    def progress_at(self, values: Sequence[float]) -> float:
        done = sum(map(mul, self._weights, values))
        return min(max(done / self._total, 0.0), 1.0)


def totalwork_with_q(profile: JobProfile) -> WeightedWorkIndicator:
    """The indicator Jockey ships: per-stage weight ``Q_s + T_s`` (total
    seconds tasks of the stage spent enqueued or executing in the source
    run)."""
    exec_s = profile.total_exec_seconds()
    queue_s = profile.total_queue_seconds()
    weights = {s: exec_s[s] + queue_s[s] for s in exec_s}
    return WeightedWorkIndicator("totalworkWithQ", weights)


def totalwork(profile: JobProfile) -> WeightedWorkIndicator:
    """Weight = ``T_s`` only (execution time, ignoring queueing)."""
    return WeightedWorkIndicator("totalwork", profile.total_exec_seconds())


def vertexfrac(profile: JobProfile) -> WeightedWorkIndicator:
    """Weight = task count: the fraction of vertices complete (the
    ParaTimer-like baseline the paper compares against)."""
    weights = {s.name: float(s.num_tasks) for s in profile.graph.stages}
    return WeightedWorkIndicator("vertexfrac", weights)


class CriticalPathIndicator(_Indicator):
    """Progress from the remaining critical path (paper's ``cp``):

        S_t = max over stages with f_s < 1 of (1 − f_s) l_s + L_s
        progress = 1 − S_t / S_0
    """

    name = "cp"

    def __init__(self, profile: JobProfile):
        longest_task = profile.longest_task_seconds()
        path_after = profile.longest_path_after()
        self.stage_names = tuple(longest_task)
        #: Per stage, in ``stage_names`` order: ``(l_s, L_s)``.
        self._terms = tuple((longest_task[s], path_after[s]) for s in self.stage_names)
        self._initial = max(longest + after for longest, after in self._terms)
        if self._initial <= 0:
            raise ProgressError("job has zero critical path")

    def remaining_critical_path(self, fractions: StageFractions) -> float:
        _validate(fractions, self.stage_names)
        return self._remaining_at([fractions[s] for s in self.stage_names])

    def _remaining_at(self, values: Sequence[float]) -> float:
        remaining = 0.0
        for f, (longest, after) in zip(values, self._terms):
            f = min(f, 1.0)
            if f < 1.0:
                remaining = max(remaining, (1.0 - f) * longest + after)
        return remaining

    def progress_at(self, values: Sequence[float]) -> float:
        rem = self._remaining_at(values)
        return min(max(1.0 - rem / self._initial, 0.0), 1.0)


class MinStageIndicator(_Indicator):
    """Progress = the relative schedule position of the most-behind stage:

        min over stages with f_s < 1 of  t_b(s) + f_s (t_e(s) − t_b(s))

    where ``t_b``/``t_e`` are the stage's typical start/end as fractions of
    job duration.  ``minstage`` takes the spans from the training run's
    trace; ``minstage-inf`` takes them from an unconstrained simulation
    (see :func:`repro.core.simulator.simulate_relative_spans`).
    """

    def __init__(self, spans: Dict[str, Tuple[float, float]], name: str = "minstage"):
        if not spans:
            raise ProgressError("no stage spans")
        for s, (lo, hi) in spans.items():
            if not 0 <= lo <= hi:
                raise ProgressError(f"bad span for stage {s!r}: ({lo}, {hi})")
        self.name = name
        self.stage_names = tuple(spans)
        self._spans = tuple(spans.values())

    @classmethod
    def from_profile(cls, profile: JobProfile, name: str = "minstage") -> "MinStageIndicator":
        spans = {}
        for stage_name in profile.stage_names:
            span = profile.stage(stage_name).rel_span
            spans[stage_name] = span if span is not None else (0.0, 1.0)
        return cls(spans, name=name)

    def progress_at(self, values: Sequence[float]) -> float:
        value = 1.0
        for f, (lo, hi) in zip(values, self._spans):
            f = min(f, 1.0)
            if f < 1.0:
                value = min(value, lo + f * (hi - lo))
        return min(max(value, 0.0), 1.0)


def build_indicator(
    kind: str,
    profile: JobProfile,
    *,
    inf_spans: Optional[Dict[str, Tuple[float, float]]] = None,
):
    """Factory by paper name: one of ``totalworkWithQ``, ``totalwork``,
    ``vertexfrac``, ``cp``, ``minstage``, ``minstage-inf``."""
    if kind == "totalworkWithQ":
        return totalwork_with_q(profile)
    if kind == "totalwork":
        return totalwork(profile)
    if kind == "vertexfrac":
        return vertexfrac(profile)
    if kind == "cp":
        return CriticalPathIndicator(profile)
    if kind == "minstage":
        return MinStageIndicator.from_profile(profile)
    if kind == "minstage-inf":
        if inf_spans is None:
            raise ProgressError("minstage-inf needs spans from an unconstrained run")
        return MinStageIndicator(inf_spans, name="minstage-inf")
    raise ProgressError(f"unknown indicator {kind!r}")


INDICATOR_NAMES = (
    "totalworkWithQ",
    "totalwork",
    "vertexfrac",
    "cp",
    "minstage",
    "minstage-inf",
)


__all__ = [
    "CriticalPathIndicator",
    "INDICATOR_NAMES",
    "MinStageIndicator",
    "ProgressError",
    "StageFractions",
    "WeightedWorkIndicator",
    "build_indicator",
    "totalwork",
    "totalwork_with_q",
    "vertexfrac",
]
