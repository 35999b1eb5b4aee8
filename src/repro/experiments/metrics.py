"""Evaluation metrics (paper §5.1).

Three headline metrics per experiment: did the job meet its deadline, how
close to the deadline did it finish, and how much of the requested
allocation sat above the oracle level (cluster impact).  Plus the variance
statistics of §2.3 (coefficient of variation of completion times).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

import numpy as np

from repro.core.oracle import oracle_allocation
from repro.jobs.trace import RunTrace


def coefficient_of_variation(values: Sequence[float]) -> float:
    """std / mean (population std, matching the paper's CoV)."""
    if len(values) < 2:
        raise ValueError("CoV needs at least two values")
    arr = np.asarray(values, dtype=float)
    mean = arr.mean()
    if mean == 0:
        raise ValueError("CoV undefined for zero mean")
    return float(arr.std() / mean)


def percentiles(values: Sequence[float], qs: Sequence[float]) -> List[float]:
    """Percentiles (qs in [0, 100]) of a sample."""
    if not values:
        raise ValueError("no values")
    return [float(v) for v in np.percentile(np.asarray(values, dtype=float), qs)]


@dataclass(frozen=True)
class RunMetrics:
    """Headline metrics of one SLO experiment run."""

    job: str
    policy: str
    deadline_seconds: float
    duration_seconds: float
    cpu_seconds: float
    oracle_tokens: int
    allocation_token_seconds: float
    impact_above_oracle: float  # fraction of requested token-seconds above oracle
    spare_fraction: float
    evictions: int
    failures: int

    @property
    def met_deadline(self) -> bool:
        return self.duration_seconds <= self.deadline_seconds

    @property
    def relative_latency(self) -> float:
        """Completion time as a fraction of the deadline (Fig. 5's x-axis)."""
        return self.duration_seconds / self.deadline_seconds


def metrics_from_trace(trace: RunTrace, *, policy: str) -> RunMetrics:
    """Compute run metrics from a finished trace with a deadline."""
    if trace.deadline is None:
        raise ValueError("trace has no deadline")
    cpu = trace.total_cpu_seconds()
    oracle = oracle_allocation(cpu, trace.deadline)
    alloc_seconds = trace.allocation_seconds()
    excess = trace.allocation_excess_seconds(oracle)
    impact = excess / alloc_seconds if alloc_seconds > 0 else 0.0
    return RunMetrics(
        job=trace.job_name,
        policy=policy,
        deadline_seconds=trace.deadline,
        duration_seconds=trace.duration,
        cpu_seconds=cpu,
        oracle_tokens=oracle,
        allocation_token_seconds=alloc_seconds,
        impact_above_oracle=impact,
        spare_fraction=trace.spare_fraction(),
        evictions=sum(1 for r in trace.records if r.outcome == "evicted"),
        failures=sum(1 for r in trace.records if r.outcome == "failed"),
    )


@dataclass(frozen=True)
class PolicySummary:
    """Aggregates over many runs of one policy (Fig. 4's two axes plus
    Fig. 11's latency column)."""

    policy: str
    runs: int
    fraction_missed: float
    mean_impact_above_oracle: float
    mean_latency_vs_deadline: float  # mean of (duration/deadline − 1)

    @property
    def fraction_met(self) -> float:
        return 1.0 - self.fraction_missed


def summarize_policy(runs: Sequence[RunMetrics]) -> PolicySummary:
    if not runs:
        raise ValueError("no runs to summarize")
    policies = {r.policy for r in runs}
    if len(policies) != 1:
        raise ValueError(f"mixed policies in summary: {sorted(policies)}")
    rel = [r.relative_latency for r in runs]
    return PolicySummary(
        policy=runs[0].policy,
        runs=len(runs),
        fraction_missed=sum(1 for r in runs if not r.met_deadline) / len(runs),
        mean_impact_above_oracle=float(np.mean([r.impact_above_oracle for r in runs])),
        mean_latency_vs_deadline=float(np.mean([x - 1.0 for x in rel])),
    )


def group_by(
    runs: Iterable[RunMetrics], key
) -> Dict[str, List[RunMetrics]]:
    out: Dict[str, List[RunMetrics]] = {}
    for r in runs:
        out.setdefault(key(r), []).append(r)
    return out


__all__ = [
    "PolicySummary",
    "RunMetrics",
    "coefficient_of_variation",
    "group_by",
    "metrics_from_trace",
    "percentiles",
    "summarize_policy",
]
