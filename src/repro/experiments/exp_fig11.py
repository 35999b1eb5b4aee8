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

from operator import attrgetter

from repro.core.control import ControlConfig
from repro.experiments.metrics import Claim, summarize_policy, tally
from repro.experiments.reporting import ExperimentReport
from repro.experiments.runner import Sweep, Variant
from repro.experiments.scenarios import DEFAULT, Scale, trained_jobs

VARIANTS = (
    Variant("baseline", control=ControlConfig()),
    Variant(
        "no hysteresis, no deadzone",
        control=ControlConfig(hysteresis=1.0, dead_zone_seconds=0.0),
    ),
    Variant("no deadzone", control=ControlConfig(dead_zone_seconds=0.0)),
    Variant(
        "no slack, less hysteresis",
        control=ControlConfig(slack=1.0, hysteresis=0.4),
    ),
    Variant("5-min period", control=ControlConfig(period_seconds=300.0)),
    Variant("minstage progress", control=ControlConfig(), indicator="minstage"),
    Variant("CP progress", control=ControlConfig(), indicator="cp"),
)

#: Each stripped moderator costs SLOs: the baseline meets no fewer.
CLAIMS = tuple(
    Claim(f"baseline meets no fewer SLOs than {label}", f"95% vs {paper} met",
          attrgetter("metrics.met_deadline"), "baseline", label)
    for label, paper in (
        ("no hysteresis, no deadzone", "57%"),
        ("no deadzone", "90%"),
        ("no slack, less hysteresis", "76%"),
    )
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
    jobs = trained_jobs(seed=seed, scale=scale).values()
    rows = Sweep(VARIANTS, reps=scale.reps).run(jobs, seed=seed)
    for variant in VARIANTS:
        s = summarize_policy([r.metrics for u, r in rows if u.variant is variant])
        report.add_row(
            variant.label,
            s.runs,
            100.0 * s.fraction_met,
            100.0 * s.mean_latency_vs_deadline,
            100.0 * s.mean_impact_above_oracle,
        )
    paired = [(u.key, u.variant.label, r) for u, r in rows]
    report.tallies = [(claim, tally(claim, paired)) for claim in CLAIMS]
    report.add_note(
        "paper: baseline 95% met / -14% latency / 35% above oracle; "
        "no hysteresis+no deadzone 57%; no deadzone 90%; no slack 76%; "
        "5-min period 95% met but -22% latency; minstage 100%; CP 95%"
    )
    return report
