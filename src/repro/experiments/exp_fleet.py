"""Fleet sweep: SLO attainment vs profile-update policy under drift.

Every arm runs the same recurring-job fleet — each template simulated for
``DAYS`` days with a chaos :class:`~repro.chaos.ProfileDrift` flipping the
ground truth 1.6x heavier halfway through — and differs only in how the
model tracks the workload:

* ``cold-start`` — a fresh profiling run + full C(p, a) rebuild every day
  (maximal freshness, maximal cost: the no-store strawman);
* ``stale`` — the bootstrap model is never refreshed (production Jockey's
  profile-once default);
* ``latest`` — drift-gated rebuild from the newest stored generation;
* ``blended`` — drift-gated rebuild from the lineage's EWMA blend;
* ``oracle`` — the model is rebuilt from the ground truth the moment it
  changes (the fresh-oracle upper bound no learner can beat).

Expected shape: every arm attains pre-drift; post-drift the stale arm
pays for its pinned model while the drift-aware arms recover within a
day, so ``blended >= stale`` with ``oracle`` as the upper bound — at a
fraction of cold-start's profiling/rebuild spend.

The report carries a machine-readable ``digest`` (deterministic bytes for
a given seed/scale, at any worker count); ``repro experiment fleet
--results-dir DIR`` writes it to ``DIR/exp_fleet.json``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.chaos.spec import ProfileDrift
from repro.experiments.reporting import ExperimentReport
from repro.experiments.scenarios import DEFAULT, Scale
from repro.fleet.driver import FleetConfig, FleetTemplate, run_fleet
from repro.parallel import parallel_map
from repro.simkit.random import derive_seed

ARMS = ("cold-start", "stale", "latest", "blended", "oracle")

#: Sweep arm -> fleet driver model mode ("blended" is the EWMA policy).
ARM_MODES = {
    "cold-start": "cold-start",
    "stale": "stale",
    "latest": "latest",
    "blended": "ewma",
    "oracle": "oracle",
}


#: Simulated days per template, with the ground truth drifting at the
#: midpoint: enough post-drift days for attainment to separate the arms.
DAYS = 8
DRIFT_DAY = DAYS // 2

#: 1.6x runtime drift: comfortably past the detector's calibrated noise
#: band (calm run-to-run work shifts reach ~0.3) while small enough that
#: a refreshed model can still meet the deadline.
DRIFT_FACTOR = 1.6

#: Deadlines keep their full ~1.8x headroom: the 1.6x drift consumes most
#: of it, so a stale model's late reaction has consequences while a
#: refreshed model stays feasible.
DEADLINE_TRIM = 1.0


def _unit(spec) -> Dict:
    """One (template, arm) single-template fleet — module-level so worker
    processes can unpickle it."""
    template, arm, fleet_seed, scale = spec
    config = FleetConfig(
        days=DAYS,
        model_mode=ARM_MODES[arm],
        drift=ProfileDrift(at=float(DRIFT_DAY), factor=DRIFT_FACTOR),
        scale=scale,
        deadline_trim=DEADLINE_TRIM,
        seed=fleet_seed,
    )
    result = run_fleet([FleetTemplate(template)], config)
    summary = result.summaries[0].to_dict()
    summary["arm"] = arm
    runs = []
    for row in result.rows:
        d = row.to_dict()
        d["arm"] = arm
        runs.append(d)
    return {"summary": summary, "runs": runs}


def _aggregate(summaries: List[Dict], runs: List[Dict]) -> List[Dict]:
    """Per-arm aggregates across templates, in sweep order."""
    out = []
    for arm in ARMS:
        cell = [s for s in summaries if s["arm"] == arm]
        arm_runs = [r for r in runs if r["arm"] == arm]
        pre = [r for r in arm_runs if r["day"] < DRIFT_DAY]
        post = [r for r in arm_runs if r["day"] >= DRIFT_DAY]
        out.append({
            "arm": arm,
            "templates": len(cell),
            "attainment": round(
                sum(1 for r in arm_runs if r["met"]) / len(arm_runs), 6
            ),
            "attainment_pre_drift": round(
                sum(1 for r in pre if r["met"]) / len(pre), 6
            ),
            "attainment_post_drift": round(
                sum(1 for r in post if r["met"]) / len(post), 6
            ),
            "rebuilds": int(sum(s["rebuilds"] for s in cell)),
            "profiling_runs": int(sum(s["profiling_runs"] for s in cell)),
            "drift_detections": int(sum(s["drift_detections"] for s in cell)),
            "mean_staleness_days": round(
                float(np.mean([s["mean_staleness_days"] for s in cell])), 6
            ),
        })
    return out


def run(scale: Scale = DEFAULT, *, seed: int = 0):
    report = ExperimentReport(
        experiment_id="fleet",
        title="Recurring-job fleet: SLO attainment vs profile-update "
              f"policy ({DRIFT_FACTOR}x drift at day {DRIFT_DAY} "
              f"of {DAYS})",
        headers=[
            "arm",
            "attainment [%]",
            "pre-drift [%]",
            "post-drift [%]",
            "rebuilds",
            "profiling runs",
            "mean staleness [days]",
        ],
    )
    specs: List[Tuple] = []
    for arm in ARMS:
        for template in scale.jobs:
            # Arm deliberately NOT in the seed: arms are paired — the same
            # fleet days, the same drift, only the update policy differs.
            fleet_seed = derive_seed(seed, f"fleet:{template}")
            specs.append((template, arm, fleet_seed, scale))
    units = list(parallel_map(_unit, specs))
    summaries = [u["summary"] for u in units]
    runs = [r for u in units for r in u["runs"]]
    aggregates = _aggregate(summaries, runs)
    for agg in aggregates:
        report.add_row(
            agg["arm"],
            100.0 * agg["attainment"],
            100.0 * agg["attainment_pre_drift"],
            100.0 * agg["attainment_post_drift"],
            agg["rebuilds"],
            agg["profiling_runs"],
            agg["mean_staleness_days"],
        )
    report.digest = {
        "experiment": "fleet",
        "scale": scale.name,
        "seed": seed,
        "arms": list(ARMS),
        "days": DAYS,
        "drift": {"day": DRIFT_DAY, "factor": DRIFT_FACTOR},
        "deadline_trim": DEADLINE_TRIM,
        "aggregates": aggregates,
        "summaries": summaries,
        "runs": runs,
    }
    by_arm = {a["arm"]: a for a in aggregates}
    report.add_note(
        "post-drift attainment: stale "
        f"{100 * by_arm['stale']['attainment_post_drift']:.0f}%, blended "
        f"{100 * by_arm['blended']['attainment_post_drift']:.0f}%, oracle "
        f"{100 * by_arm['oracle']['attainment_post_drift']:.0f}%; blended "
        f"took {by_arm['blended']['profiling_runs']} profiling runs vs "
        f"cold-start's {by_arm['cold-start']['profiling_runs']}"
    )
    report.add_note(
        "arms share fleet seeds (paired days and drift); only the "
        "update policy differs"
    )
    return report
