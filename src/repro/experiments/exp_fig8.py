"""Fig. 8: end-to-end latency prediction accuracy, simulator vs Amdahl.

The paper executes each job three times at eight allocations, then compares
the worst-case (largest) prediction from each model against the slowest
actual run at each allocation.  We do the same against the substrate:
predictions come from the C(p, a) table (simulator) and the Amdahl model,
both trained from the single training run; actuals are cluster executions
pinned to each allocation with no runtime-scale perturbation and no
cluster-day resampling (the paper's trial runs re-ran the same input under
comparable conditions).

Shape targets: ~10% average error for the simulator, slightly worse for
Amdahl overall, with Amdahl clearly worse at low allocations and
competitive at high ones.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.core.amdahl import AmdahlModel
from repro.core.control import ControlConfig
from repro.experiments.reporting import ExperimentReport, scorecard_section
from repro.experiments.runner import Sweep, Variant
from repro.experiments.scenarios import DEFAULT, Scale, trained_jobs
from repro.telemetry import scorecard as tscorecard

ALLOCATIONS = (20, 30, 40, 50, 60, 70, 80, 90, 100)


def run(scale: Scale = DEFAULT, *, seed: int = 0):
    allocations = [a for a in ALLOCATIONS if a >= min(scale.allocations)]
    if scale.name == "smoke":
        allocations = allocations[::3]
    pinned = {"runtime_scale": 1.0, "sample_cluster_day": False}
    sweep = Sweep(
        tuple(
            Variant(f"{a} tokens", kind="max-allocation",
                    control=ControlConfig(max_tokens=a), run=pinned)
            for a in allocations
        ),
        deadlines=("long",),
        reps=2 if scale.name == "smoke" else 3,
    )
    jobs = trained_jobs(seed=seed, scale=scale)
    slowest_run: Dict[Tuple[int, str], float] = {}
    for unit, result in sweep.run(jobs.values(), seed=seed):
        key = (unit.variant.control.max_tokens, unit.trained.name)
        slowest_run[key] = max(
            slowest_run.get(key, 0.0), result.metrics.duration_seconds
        )
    sim_errors: Dict[int, List[float]] = {a: [] for a in allocations}
    amdahl_errors: Dict[int, List[float]] = {a: [] for a in allocations}
    sim_cards: List[tscorecard.Scorecard] = []
    amdahl_cards: List[tscorecard.Scorecard] = []
    for name, tj in jobs.items():
        amdahl = AmdahlModel(tj.learned_profile)
        for a in allocations:
            # Worst case vs worst case, as in the paper.
            slowest = slowest_run[(a, name)]
            sim_pred = tj.table.predicted_duration(a, q=0.95)
            amdahl_pred = amdahl.predicted_duration(a)
            sim_errors[a].append(abs(sim_pred - slowest) / slowest)
            amdahl_errors[a].append(abs(amdahl_pred - slowest) / slowest)
            # End-to-end predictions as one-point scorecards (elapsed 0,
            # realized remaining = the slowest actual), pooled per model.
            sim_cards.append(tscorecard.Scorecard.from_predictions(
                "simulator", [(0.0, sim_pred)], slowest
            ))
            amdahl_cards.append(tscorecard.Scorecard.from_predictions(
                "amdahl", [(0.0, amdahl_pred)], slowest
            ))

    report = ExperimentReport(
        experiment_id="fig8",
        title="Average latency prediction error vs allocation [%]",
        headers=["allocation", "simulator", "amdahl"],
    )
    for a in allocations:
        report.add_row(
            a,
            100.0 * float(np.mean(sim_errors[a])),
            100.0 * float(np.mean(amdahl_errors[a])),
        )
    all_sim = [e for v in sim_errors.values() for e in v]
    all_amdahl = [e for v in amdahl_errors.values() for e in v]
    report.add_row("average", 100.0 * float(np.mean(all_sim)), 100.0 * float(np.mean(all_amdahl)))
    section = scorecard_section(
        [
            tscorecard.merge("simulator", sim_cards),
            tscorecard.merge("amdahl", amdahl_cards),
        ],
        caption="End-to-end prediction scorecards (signed bias + error "
                "distribution over jobs x allocations, worst-case runs)",
    )
    if section:
        report.add_section(section)
    report.add_note(
        "paper: simulator 9.8% avg, Amdahl 11.8% avg with high error at low "
        "allocations"
    )
    return report
