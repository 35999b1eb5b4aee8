"""Fig. 11: sensitivity of the control loop to its moderators.

Re-runs the Jockey suite under seven configurations: the baseline, stripped
variants (no hysteresis+no dead zone, no dead zone, no slack with stronger
hysteresis), a 5-minute control period, and the minstage / CP progress
indicators.

Shape targets (paper): baseline meets ~95%; no hysteresis+no dead zone
collapses to ~57%; no dead zone ~90%; no slack ~76%; 5-minute period still
~95% but finishes earlier (slower to release); minstage/CP indicators keep
working under hysteresis (~95-100%).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.control import ControlConfig
from repro.experiments.metrics import summarize_policy
from repro.experiments.reporting import ExperimentReport
from repro.experiments.runner import run_suite
from repro.experiments.scenarios import DEFAULT, Scale, trained_jobs


@dataclass(frozen=True)
class SensitivityConfig:
    label: str
    control: ControlConfig
    indicator: str = "totalworkWithQ"
    control_period: float = 60.0


def configurations() -> Sequence[SensitivityConfig]:
    base = ControlConfig()
    return (
        SensitivityConfig("baseline", base),
        SensitivityConfig(
            "no hysteresis, no deadzone",
            ControlConfig(hysteresis=1.0, dead_zone_seconds=0.0),
        ),
        SensitivityConfig("no deadzone", ControlConfig(dead_zone_seconds=0.0)),
        SensitivityConfig(
            "no slack, less hysteresis", ControlConfig(slack=1.0, hysteresis=0.4)
        ),
        SensitivityConfig(
            "5-min period", ControlConfig(period_seconds=300.0), control_period=300.0
        ),
        SensitivityConfig("minstage progress", base, indicator="minstage"),
        SensitivityConfig("CP progress", base, indicator="cp"),
    )


def run(scale: Scale = DEFAULT, *, seed: int = 0):
    report = ExperimentReport(
        experiment_id="fig11",
        title="Control-loop sensitivity analysis (jockey policy only)",
        headers=[
            "experiment",
            "runs",
            "met SLO [%]",
            "latency vs deadline [%]",
            "alloc above oracle [%]",
        ],
    )
    jobs = list(trained_jobs(seed=seed, scale=scale).values())
    for cfg in configurations():
        results = run_suite(
            jobs,
            ("jockey",),
            reps=scale.reps,
            seed_base=seed + 1,  # same seeds as the baseline suite
            deadline_of=lambda t: (t.short_deadline,),
            control=cfg.control,
            indicator_kind=cfg.indicator,
        )
        runs = [r.metrics for r in results]
        s = summarize_policy(runs)
        report.add_row(
            cfg.label,
            s.runs,
            100.0 * s.fraction_met,
            100.0 * s.mean_latency_vs_deadline,
            100.0 * s.mean_impact_above_oracle,
        )
    report.add_note(
        "paper: baseline 95% met / -14% latency / 35% above oracle; "
        "no hysteresis+no deadzone 57%; no deadzone 90%; no slack 76%; "
        "5-min period 95% met but -22% latency; minstage 100%; CP 95%"
    )
    return report
