"""Ablation: straggler mitigation via speculative duplicates (paper §4.4).

Not a paper figure — this evaluates the paper's proposed extra control
knob, "the aggressiveness of mitigating stragglers [Mantri]", implemented
in :mod:`repro.runtime.speculation`.

Jobs run with their ground-truth outlier rate amplified (1 in 20 tasks
runs up to 8x long), under Jockey with and without speculation, at three
aggressiveness settings.  Straggler races should cut tail latency —
especially the runs that land close to the deadline — at a small wasted-
work premium (the superseded attempts).
"""

from __future__ import annotations

from dataclasses import replace as dc_replace

import numpy as np

from repro.experiments.reporting import ExperimentReport
from repro.experiments.runner import Sweep, Variant
from repro.experiments.scenarios import DEFAULT, Scale, TrainedJob, trained_jobs
from repro.jobs.profiles import JobProfile
from repro.jobs.workloads import RUNTIME_CAP_P90_MULTIPLE
from repro.runtime.speculation import SpeculationConfig
from repro.simkit.distributions import Truncated, WithOutliers

SETTINGS = (
    ("off", None),
    ("mild (3x median)", SpeculationConfig(slowdown_factor=3.0)),
    ("aggressive (1.8x median)", SpeculationConfig(slowdown_factor=1.8)),
)


def _amplify_outliers(trained: TrainedJob) -> TrainedJob:
    """Ground truth with a heavier straggler tail (5% of tasks, up to 8x),
    uncapped by the usual truncation."""
    base_profile = trained.generated.profile
    stages = {}
    for name in base_profile.stage_names:
        sp = base_profile.stage(name)
        runtime = sp.runtime
        if isinstance(runtime, Truncated):
            runtime = Truncated(
                WithOutliers(runtime.base, 0.05, 8.0),
                cap=runtime.cap * 8.0 / RUNTIME_CAP_P90_MULTIPLE,
            )
        else:
            runtime = WithOutliers(runtime, 0.05, 8.0)
        stages[name] = dc_replace(sp, runtime=runtime)
    heavier = dc_replace(
        trained.generated, profile=JobProfile(trained.graph, stages)
    )
    return dc_replace(trained, generated=heavier)


VARIANTS = tuple(
    Variant(
        label,
        run={"runtime_scale": 1.0, "sample_cluster_day": False, "speculation": spec},
        transform=_amplify_outliers,
    )
    for label, spec in SETTINGS
)


def run(scale: Scale = DEFAULT, *, seed: int = 0):
    report = ExperimentReport(
        experiment_id="ablation-speculation",
        title="Straggler mitigation via speculative duplicates (extension of §4.4)",
        headers=[
            "speculation",
            "runs",
            "missed [%]",
            "median finish [% of deadline]",
            "p90 finish [%]",
            "wasted work [% of total]",
        ],
    )
    jobs = trained_jobs(seed=seed, scale=scale).values()
    rows = Sweep(VARIANTS, reps=1 if scale.name == "smoke" else 3).run(jobs, seed=seed)
    for variant in VARIANTS:
        results = [r for u, r in rows if u.variant is variant]
        runs = [r.metrics for r in results]
        wasted = [
            r.trace.wasted_cpu_seconds() / max(r.trace.total_cpu_seconds(), 1e-9)
            for r in results
        ]
        rel = [100.0 * m.relative_latency for m in runs]
        report.add_row(
            variant.label,
            len(runs),
            100.0 * sum(1 for m in runs if not m.met_deadline) / len(runs),
            float(np.median(rel)),
            float(np.percentile(rel, 90)),
            100.0 * float(np.mean(wasted)),
        )
    report.add_note(
        "ground truth amplified to 5% stragglers up to 8x; expectation: "
        "speculation trims the p90 finish at a small wasted-work premium"
    )
    return report
