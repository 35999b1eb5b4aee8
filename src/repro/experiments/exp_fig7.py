"""Fig. 7 + §5.2 'Adapting to changes in deadlines'.

Ten minutes into each job's run the deadline is halved, doubled, or
tripled.  The paper reports that Jockey met the new deadline in every such
run, increasing allocation by ~148% on average when the deadline was cut
in half, and releasing 63%/83% of resources when it was doubled/tripled.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.experiments.reporting import ExperimentReport
from repro.experiments.runner import RunConfig, make_policy, run_experiment
from repro.experiments.scenarios import DEFAULT, Scale, trained_jobs

CHANGE_AT_SECONDS = 600.0
FACTORS = {"halved": 0.5, "doubled": 2.0, "tripled": 3.0}


def _allocation_change(series: List, at_minute: float) -> float:
    """Relative change between the allocation just before the change and
    the peak (cut) / trough (extension) afterwards."""
    before = [a for t, a in series if t <= at_minute]
    after = [a for t, a in series if t > at_minute]
    if not before or not after:
        return 0.0
    base = before[-1]
    if base <= 0:
        return 0.0
    return (max(after) - base) / base if max(after) > base else (min(after) - base) / base


def run(scale: Scale = DEFAULT, *, seed: int = 0):
    report = ExperimentReport(
        experiment_id="fig7",
        title="Adapting to mid-run deadline changes (at t=10 min, or 25% of the deadline for short jobs)",
        headers=[
            "change",
            "runs",
            "met new deadline [%]",
            "mean allocation change [%]",
            "median finish [% of new deadline]",
            "mean peak risk [%]",
        ],
    )
    jobs = trained_jobs(seed=seed, scale=scale)
    for label, factor in FACTORS.items():
        met: List[bool] = []
        changes: List[float] = []
        finishes: List[float] = []
        peak_risks: List[float] = []
        for name, tj in jobs.items():
            # Base deadline: long for cuts (so the cut is survivable),
            # short for extensions.
            base = tj.long_deadline if factor < 1 else tj.short_deadline
            new_deadline = base * factor
            # 10 minutes in, as in the paper — but never after a small
            # job could already be done (smoke-scale jobs are short).
            change_at = min(CHANGE_AT_SECONDS, 0.25 * base)
            policy = make_policy("jockey", tj, base)
            config = RunConfig(
                deadline_seconds=base,
                seed=seed + 100 + hashpair(name, label),
                deadline_changes=((change_at, new_deadline),),
            )
            result = run_experiment(tj, policy, config)
            met.append(result.metrics.duration_seconds <= new_deadline)
            changes.append(_allocation_change(result.allocation_series, change_at / 60.0))
            finishes.append(100.0 * result.metrics.duration_seconds / new_deadline)
            # Deadline risk replayed against the change schedule: how close
            # did the controller let P(miss) get before reacting?
            slo = result.slo_report(table=tj.table)
            peak_risks.append(slo.peak_risk)
        report.add_row(
            label,
            len(met),
            100.0 * sum(met) / len(met),
            100.0 * float(np.mean(changes)),
            float(np.median(finishes)),
            100.0 * float(np.mean(peak_risks)),
        )
    report.add_note(
        "paper: every changed deadline met; halving required +148% resources "
        "on average, doubling/tripling released 63%/83%"
    )
    report.add_note(
        "peak risk = max over ticks of P(slack*C(p,a) > time to the "
        "deadline then in force); halving should spike it at the change, "
        "extensions should pin it near zero"
    )
    return report


def hashpair(name: str, label: str) -> int:
    import zlib

    return zlib.crc32(f"{name}:{label}".encode()) % 1000
