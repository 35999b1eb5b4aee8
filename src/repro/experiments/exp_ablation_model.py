"""Ablation: online model correction under model divergence (paper §5.6).

Not a paper figure — this evaluates the paper's proposed-but-unbuilt
extension ("quickly update the model ... once the control loop detects
large errors in model predictions"), implemented in
:mod:`repro.core.adaptive`.

Each job runs at a sweep of input-heaviness factors (1.0x to 1.6x the
trained input) under three policies: plain Jockey, Jockey with the online
model-correction monitor, and the static allocation.  The interesting
region is heavy inputs: plain Jockey reacts only once lateness accrues
(its C(p, a) answers are trained-scale), while the corrected model
inflates predictions as soon as consumption-per-progress diverges.

Expectation: identical behaviour at 1.0x; at 1.4-1.6x the corrected policy
finishes earlier relative to the deadline and misses less, at a modest
allocation premium.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.experiments.metrics import RunMetrics
from repro.experiments.reporting import ExperimentReport, scorecard_section
from repro.experiments.runner import RunConfig, make_policy, run_experiment
from repro.experiments.scenarios import DEFAULT, Scale, trained_jobs
from repro.simkit.random import derive_seed
from repro.telemetry import scorecard as tscorecard

SCALE_FACTORS = (1.0, 1.2, 1.4, 1.6)
POLICIES = ("jockey", "jockey-online-model", "jockey-no-adapt")


def run(scale: Scale = DEFAULT, *, seed: int = 0, reps: int = 2):
    if scale.name == "smoke":
        reps = 1
    report = ExperimentReport(
        experiment_id="ablation-online-model",
        title="Online model correction under heavy inputs (extension of §5.6)",
        headers=[
            "input scale",
            "policy",
            "runs",
            "missed [%]",
            "mean finish [% of deadline]",
            "p90 finish [%]",
            "mean alloc above oracle [%]",
        ],
    )
    jobs = trained_jobs(seed=seed, scale=scale)
    heavy_cards: dict = {k: [] for k in POLICIES}
    for factor in SCALE_FACTORS:
        for kind in POLICIES:
            runs: List[RunMetrics] = []
            for name, tj in jobs.items():
                for rep in range(reps):
                    run_seed = derive_seed(
                        seed + 5000, f"{name}:{factor}:{kind}:{rep}"
                    ) % 1_000_003
                    policy = make_policy(kind, tj, tj.short_deadline)
                    result = run_experiment(
                        tj,
                        policy,
                        RunConfig(
                            deadline_seconds=tj.short_deadline,
                            seed=run_seed,
                            runtime_scale=factor,
                            sample_cluster_day=False,
                        ),
                    )
                    runs.append(result.metrics)
                    if (
                        factor == SCALE_FACTORS[-1]
                        and result.audit_records
                        and result.control_config is not None
                    ):
                        heavy_cards[kind].append(tscorecard.from_audit(
                            result.audit_records,
                            result.trace.duration,
                            name=kind,
                            slack=result.control_config.slack,
                        ))
            rel = [100.0 * m.relative_latency for m in runs]
            report.add_row(
                f"{factor:.1f}x",
                kind,
                len(runs),
                100.0 * sum(1 for m in runs if not m.met_deadline) / len(runs),
                float(np.mean(rel)),
                float(np.percentile(rel, 90)),
                100.0 * float(np.mean([m.impact_above_oracle for m in runs])),
            )
    section = scorecard_section(
        [
            tscorecard.merge(kind, cards)
            for kind, cards in heavy_cards.items()
            if cards
        ],
        caption=f"Prediction scorecards at {SCALE_FACTORS[-1]:.1f}x input "
                "(model correction should shrink the optimistic bias plain "
                "jockey shows under divergence)",
    )
    if section:
        report.add_section(section)
    report.add_note(
        "expected: identical at 1.0x; under heavy inputs the online-model "
        "variant reacts earlier, missing fewer deadlines than plain jockey "
        "while the static allocation degrades fastest"
    )
    return report
