"""Fig. 12 + Fig. 13: slack and hysteresis parameter sweeps.

Fig. 12 sweeps the slack factor over {1.0, 1.2, 1.4, 1.6}; Fig. 13 sweeps
the hysteresis parameter over {0.05, 0.2, 0.5, 1.0}.  For each value we
run the Jockey policy over the job roster and report SLO attainment,
cluster impact, and the allocation statistics the paper plots (first /
median / max / last allocation, total token-hours).

Shape targets: only slack=1.0 violates SLOs, larger slack over-allocates
and finishes earlier; hysteresis misses only at the extremes, and larger
values (less smoothing) track the raw allocation with higher maxima.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.control import ControlConfig
from repro.experiments.metrics import summarize_policy
from repro.experiments.reporting import ExperimentReport
from repro.experiments.runner import ExperimentResult, run_suite
from repro.experiments.scenarios import DEFAULT, Scale, trained_jobs

SLACK_VALUES = (1.0, 1.1, 1.2, 1.4, 1.6)
HYSTERESIS_VALUES = (0.05, 0.2, 0.5, 0.8, 1.0)


def _allocation_stats(results: Sequence[ExperimentResult]):
    firsts, medians, maxima, lasts, token_hours = [], [], [], [], []
    for r in results:
        series = [a for _t, a in r.allocation_series]
        if not series:
            continue
        firsts.append(series[0])
        medians.append(float(np.median(series)))
        maxima.append(max(series))
        lasts.append(series[-1])
        token_hours.append(r.metrics.allocation_token_seconds / 3600.0)
    return (
        float(np.mean(firsts)),
        float(np.mean(medians)),
        float(np.mean(maxima)),
        float(np.mean(lasts)),
        float(np.mean(token_hours)),
    )


def _sweep(
    scale: Scale,
    seed: int,
    values: Sequence[float],
    make_control,
    experiment_id: str,
    title: str,
    value_label: str,
) -> ExperimentReport:
    report = ExperimentReport(
        experiment_id=experiment_id,
        title=title,
        headers=[
            value_label,
            "met SLO [%]",
            "latency vs deadline [%]",
            "above oracle [%]",
            "first alloc",
            "median alloc",
            "max alloc",
            "last alloc",
            "token-hours",
        ],
    )
    jobs = list(trained_jobs(seed=seed, scale=scale).values())
    for value in values:
        results = run_suite(
            jobs,
            ("jockey",),
            reps=scale.reps,
            seed_base=seed + 1,
            deadline_of=lambda t: (t.short_deadline,),
            control=make_control(value),
        )
        s = summarize_policy([r.metrics for r in results])
        first, median, peak, last, hours = _allocation_stats(results)
        report.add_row(
            value,
            100.0 * s.fraction_met,
            100.0 * s.mean_latency_vs_deadline,
            100.0 * s.mean_impact_above_oracle,
            first,
            median,
            peak,
            last,
            hours,
        )
    return report


def run_fig12(scale: Scale = DEFAULT, *, seed: int = 0) -> ExperimentReport:
    report = _sweep(
        scale,
        seed,
        SLACK_VALUES,
        lambda v: ControlConfig(slack=v),
        "fig12",
        "Sensitivity to the slack parameter",
        "slack",
    )
    report.add_note(
        "paper: only slack=1.0 violated SLOs; +10% slack sufficed; more "
        "slack raises initial/median allocations and finishes earlier"
    )
    return report


def run_fig13(scale: Scale = DEFAULT, *, seed: int = 0) -> ExperimentReport:
    report = _sweep(
        scale,
        seed,
        HYSTERESIS_VALUES,
        lambda v: ControlConfig(hysteresis=v),
        "fig13",
        "Sensitivity to the hysteresis parameter",
        "hysteresis",
    )
    report.add_note(
        "paper: misses only at the extremes (0.05 and 1.0); higher values "
        "finish closer to the deadline with higher max allocations"
    )
    return report
