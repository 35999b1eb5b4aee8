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

from typing import Sequence, Tuple

import numpy as np

from repro.core.control import ControlConfig
from repro.experiments.metrics import summarize_policy
from repro.experiments.reporting import ExperimentReport
from repro.experiments.runner import ExperimentResult, Sweep, Variant
from repro.experiments.scenarios import DEFAULT, Scale, trained_jobs

SLACK_VARIANTS = tuple(
    Variant(f"slack {v}", control=ControlConfig(slack=v))
    for v in (1.0, 1.1, 1.2, 1.4, 1.6)
)
HYSTERESIS_VARIANTS = tuple(
    Variant(f"hysteresis {v}", control=ControlConfig(hysteresis=v))
    for v in (0.05, 0.2, 0.5, 0.8, 1.0)
)


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


def _report(
    experiment_id: str,
    title: str,
    parameter: str,
    variants: Tuple[Variant, ...],
    scale: Scale,
    seed: int,
) -> ExperimentReport:
    """One row per variant, labelled by its control's ``parameter``."""
    report = ExperimentReport(
        experiment_id=experiment_id,
        title=title,
        headers=[
            parameter,
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
    jobs = trained_jobs(seed=seed, scale=scale).values()
    rows = Sweep(variants, reps=scale.reps).run(jobs, seed=seed)
    for variant in variants:
        results = [r for u, r in rows if u.variant is variant]
        s = summarize_policy([r.metrics for r in results])
        first, median, peak, last, hours = _allocation_stats(results)
        report.add_row(
            getattr(variant.control, parameter),
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
    report = _report(
        "fig12",
        "Sensitivity to the slack parameter",
        "slack",
        SLACK_VARIANTS,
        scale,
        seed,
    )
    report.add_note(
        "paper: only slack=1.0 violated SLOs; +10% slack sufficed; more "
        "slack raises initial/median allocations and finishes earlier"
    )
    return report


def run_fig13(scale: Scale = DEFAULT, *, seed: int = 0) -> ExperimentReport:
    report = _report(
        "fig13",
        "Sensitivity to the hysteresis parameter",
        "hysteresis",
        HYSTERESIS_VARIANTS,
        scale,
        seed,
    )
    report.add_note(
        "paper: misses only at the extremes (0.05 and 1.0); higher values "
        "finish closer to the deadline with higher max allocations"
    )
    return report
