"""Fig. 4 + Fig. 5: the headline policy comparison.

Runs jobs A-G under two deadlines (the longer twice the shorter) with each
of the four policies, over fresh cluster conditions per run, and reports:

* Fig. 4 — per policy: fraction of deadlines missed vs mean fraction of the
  requested allocation above the oracle allocation.
* Fig. 5 — the CDF of completion time relative to the deadline per policy.

Shape targets (paper §5.2): Jockey misses ~1% with moderate impact;
Jockey w/o adaptation misses ~18%; Jockey w/o simulator misses ~16% but its
late jobs finish barely late; max-allocation meets everything while
finishing ~70% early with by far the largest impact.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, List, Sequence, Tuple

from repro.experiments.metrics import (
    Claim,
    RunMetrics,
    group_by,
    percentiles,
    summarize_policy,
    tally,
)
from repro.experiments.reporting import (
    ExperimentReport,
    policy_scorecards,
    scorecard_section,
)
from repro.experiments.runner import POLICY_KINDS, ExperimentResult, Sweep, Unit, Variant
from repro.experiments.scenarios import DEFAULT, Scale, trained_jobs

#: Fig. 4's orderings, judged on the shared days.  The paper puts Jockey's
#: impact (~35%) above no-adapt's (~30%) and no-sim's (~25%); the two
#: impact claims against them are this reproduction's, not the paper's.
CLAIMS = tuple(
    Claim(f"jockey misses no more than {kind}", f"~1% vs ~{paper}% missed",
          attrgetter("metrics.met_deadline"), "jockey", kind)
    for kind, paper in (("jockey-no-adapt", "18"), ("jockey-no-sim", "16"))
) + tuple(
    Claim(f"jockey above oracle below {kind}", f"~35% vs ~{paper}% above",
          attrgetter("metrics.impact_above_oracle"), "jockey", kind, better="lower")
    for kind, paper in (
        ("jockey-no-adapt", "30"), ("jockey-no-sim", "25"), ("max-allocation", "75-100"),
    )
)


def policy_sweep(scale: Scale) -> Sweep:
    """The four policies on both deadlines of every job."""
    variants = tuple(Variant(kind, kind=kind) for kind in POLICY_KINDS)
    return Sweep(variants, deadlines=("short", "long"), reps=scale.reps)


def fig4_report(rows: Sequence[Tuple[Unit, ExperimentResult]]) -> ExperimentReport:
    results = [r for _u, r in rows]
    report = ExperimentReport(
        experiment_id="fig4",
        title="Missed deadlines vs allocation above oracle, per policy",
        headers=[
            "policy",
            "runs",
            "deadlines missed [%]",
            "alloc above oracle [%]",
            "latency vs deadline [%]",
        ],
    )
    grouped = group_by((r.metrics for r in results), lambda m: m.policy)
    for kind in POLICY_KINDS:
        runs = grouped.get(kind, [])
        if not runs:
            continue
        s = summarize_policy(runs)
        report.add_row(
            kind,
            s.runs,
            100.0 * s.fraction_missed,
            100.0 * s.mean_impact_above_oracle,
            100.0 * s.mean_latency_vs_deadline,
        )
    section = scorecard_section(
        policy_scorecards(results, POLICY_KINDS),
        caption="Prediction scorecards (per-tick predicted vs realized "
                "remaining time, pooled over all runs)",
    )
    if section:
        report.add_section(section)
    paired = [(u.key, u.variant.label, r) for u, r in rows]
    report.tallies = [(claim, tally(claim, paired)) for claim in CLAIMS]
    report.add_note(
        "paper: jockey ~1% missed / ~35% above oracle; no-adapt ~18% missed; "
        "no-sim ~16% missed / lowest impact; max-allocation 0% missed / "
        "largest impact"
    )
    return report


def fig5_report(rows: Sequence[Tuple[Unit, ExperimentResult]]) -> ExperimentReport:
    report = ExperimentReport(
        experiment_id="fig5",
        title="Completion time relative to deadline (CDF percentiles, %)",
        headers=["policy", "p10", "p25", "p50", "p75", "p90", "p99", "max"],
    )
    grouped: Dict[str, List[RunMetrics]] = group_by(
        (r.metrics for _u, r in rows), lambda m: m.policy
    )
    for kind in POLICY_KINDS:
        runs = grouped.get(kind, [])
        if not runs:
            continue
        rel = [100.0 * m.relative_latency for m in runs]
        cells = percentiles(rel, (10, 25, 50, 75, 90, 99))
        report.add_row(kind, *cells, max(rel))
    report.add_note(
        "values < 100 met the SLO; paper: max-allocation median ~30, the "
        "other policies cluster near (but below) 100"
    )
    return report


def run(scale: Scale = DEFAULT, *, seed: int = 0):
    """Both reports from one shared suite."""
    jobs = trained_jobs(seed=seed, scale=scale).values()
    rows = policy_sweep(scale).run(jobs, seed=seed)
    return fig4_report(rows), fig5_report(rows)
