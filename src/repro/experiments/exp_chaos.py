"""Chaos sweep: injector intensity vs SLO attainment.

Every run attaches the same declarative chaos schedule (rack loss, an
eviction storm, a token-supply shock, profile drift, and control-plane
faults including a long predictor blackout) and sweeps the spec's global
``intensity`` dial from calm (0) past as-configured (1) into worse (1.5).
Each intensity runs twice per job: with the controller's degraded-mode
fallback (blacked-out predictor -> re-optimize the last-known-good C(p, a)
curve under a widened dead zone) and with the fallback ablated
(``ControlConfig(degraded_fallback=False)`` — the controller just holds its
allocation until the predictor returns).  The comparison is a
:class:`~repro.experiments.runner.Sweep` with one variant per (intensity,
mode), so every cell of one (job, rep) runs on the same seed.

Expected shape: SLO attainment degrades monotonically (or stays flat) as
intensity rises, and at the highest intensity the fallback attains strictly
higher utility than the ablation — holding a stale allocation through a
blackout while the job drifts late is exactly the failure the degraded
mode exists to avoid.

The report carries a machine-readable ``digest`` (deterministic bytes for
a given seed/scale, at any worker count); ``repro experiment chaos
--results-dir DIR`` writes it to ``DIR/exp_chaos.json``.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Dict, List, Tuple

import numpy as np

from repro.chaos.spec import (
    ChaosSpec,
    ControlFaults,
    EvictionStorm,
    ProfileDrift,
    RackFailure,
    TokenShock,
)
from repro.core.control import ControlConfig
from repro.experiments.reporting import ExperimentReport
from repro.experiments.runner import ExperimentResult, Sweep, Unit, Variant
from repro.experiments.scenarios import DEFAULT, Scale, TrainedJob, trained_jobs

INTENSITIES = (0.0, 0.5, 1.0, 1.5)
MODES = ("fallback", "no-fallback")

#: Long staleness bound so the fallback-vs-ablation comparison isolates
#: ``degraded_fallback`` itself (the default 600 s bound would demote the
#: fallback to hold partway through the long blackout below).
FALLBACK_STALENESS_SECONDS = 3600.0


#: The sweep runs against a deadline tighter than the experiments' usual
#: ``short_deadline`` (which carries ~1.8x headroom): chaos should have a
#: real budget to consume, or every cell trivially attains.
DEADLINE_TRIM = 0.65

#: Only jobs whose learned C(p, a) actually trades tokens for latency
#: (fastest-vs-slowest grid point at least this ratio) enter the sweep: a
#: parallelism-capped job cannot respond to *any* controller, degraded or
#: not, so it only adds noise to a control-response comparison.
ELASTICITY_MIN = 1.5


def _elastic(trained) -> bool:
    table = trained.table
    slow = table.predicted_duration(min(table.allocations), q=0.9)
    fast = table.predicted_duration(max(table.allocations), q=0.9)
    return fast > 0 and slow / fast >= ELASTICITY_MIN


def base_spec(deadline: float) -> ChaosSpec:
    """The sweep's schedule, anchored to the job's deadline ``D``: drift
    early (0.12 D) so the predictor blackout (0.20-0.90 D) covers the
    window where reacting to lateness matters most."""
    d = deadline
    return ChaosSpec(
        name="sweep",
        rack_failures=(RackFailure(at=0.15 * d, count=6, repair_seconds=600.0),),
        eviction_storms=(
            EvictionStorm(start=0.25 * d, end=0.55 * d, demand_fraction=0.6),
        ),
        token_shocks=(
            TokenShock(start=0.30 * d, end=0.70 * d, guaranteed_fraction=0.35),
        ),
        profile_drifts=(ProfileDrift(at=0.12 * d, factor=1.7),),
        control_faults=ControlFaults(
            drop_tick_prob=0.10,
            delay_tick_prob=0.10,
            delay_seconds=25.0,
            blackouts=((0.20 * d, 0.90 * d),),
        ),
    )


def _chaos_run(intensity: float, trained: TrainedJob, deadline: float) -> Dict:
    """A unit's RunConfig fields at the trimmed deadline.  Chaos is the only
    perturbation: input scale and cluster day are fixed, so intensity alone
    moves the outcome (and the monotonicity check is meaningful)."""
    trimmed = DEADLINE_TRIM * deadline
    return {
        "deadline_seconds": trimmed,
        "runtime_scale": 1.0,
        "sample_cluster_day": False,
        "chaos": replace(base_spec(trimmed), intensity=intensity),
    }


#: One arm per (intensity, mode), in digest order.  The Sweep keeps both
#: out of the seed, so every arm of one (job, rep) faces the same cluster.
VARIANTS = tuple(
    Variant(
        f"{mode} @ {intensity}",
        control=ControlConfig(
            degraded_fallback=(mode == "fallback"),
            fallback_staleness_seconds=FALLBACK_STALENESS_SECONDS,
        ),
        run=partial(_chaos_run, intensity),
    )
    for intensity in INTENSITIES
    for mode in MODES
)


def _row(unit: Unit, result: ExperimentResult) -> Dict:
    slo = result.slo_report()
    summary = result.chaos_summary or {}
    return {
        "job": unit.trained.name,
        "mode": "fallback" if unit.variant.control.degraded_fallback else "no-fallback",
        "intensity": unit.config.chaos.intensity,
        "met": bool(result.metrics.met_deadline),
        "duration_minutes": round(result.metrics.duration_seconds / 60.0, 3),
        "utility": round(float(slo.utility_realized), 6),
        "degraded_ticks": int(summary.get("degraded_ticks", 0)),
        "blackout_hits": int(summary.get("blackout_hits", 0)),
        "machines_failed": int(summary.get("machines_failed", 0)),
        "allocation_deficits": int(summary.get("allocation_deficits", 0)),
        "allocation_retries": int(summary.get("allocation_retries", 0)),
    }


def _mean(cell: List[Dict], key: str, digits: int) -> float:
    return round(float(np.mean([r[key] for r in cell])), digits)


def _aggregate(rows: List[Tuple[Unit, Dict]]) -> List[Dict]:
    """Per-variant aggregates, in sweep order."""
    out = []
    for variant in VARIANTS:
        cell = [row for unit, row in rows if unit.variant is variant]
        out.append({
            "intensity": cell[0]["intensity"],
            "mode": cell[0]["mode"],
            "runs": len(cell),
            "attainment": round(sum(1 for r in cell if r["met"]) / len(cell), 6),
            "mean_utility": _mean(cell, "utility", 6),
            "mean_duration_minutes": _mean(cell, "duration_minutes", 3),
            "mean_degraded_ticks": _mean(cell, "degraded_ticks", 3),
            "mean_allocation_deficits": _mean(cell, "allocation_deficits", 3),
        })
    return out


def run(scale: Scale = DEFAULT, *, seed: int = 0):
    report = ExperimentReport(
        experiment_id="chaos",
        title="Chaos-injection sweep: intensity vs SLO attainment "
              "(fallback = degraded-control mode, vs ablation)",
        headers=[
            "intensity",
            "mode",
            "runs",
            "attainment [%]",
            "mean utility",
            "mean finish [min]",
            "mean degraded ticks",
            "mean deficits",
        ],
    )
    jobs = trained_jobs(seed=seed, scale=scale)
    elastic = {n: tj for n, tj in jobs.items() if _elastic(tj)}
    dropped = sorted(set(jobs) - set(elastic))
    if elastic:
        jobs = elastic
    if dropped:
        report.add_note(
            f"dropped parallelism-capped job(s) {', '.join(dropped)}: "
            f"their C(p, a) spans < {ELASTICITY_MIN}x across the allocation "
            "grid, so no controller response can move their latency"
        )
    rows = [
        (unit, _row(unit, result))
        for unit, result in Sweep(VARIANTS, reps=scale.reps).run(jobs.values(), seed=seed)
    ]
    aggregates = _aggregate(rows)
    for agg in aggregates:
        report.add_row(
            agg["intensity"],
            agg["mode"],
            agg["runs"],
            100.0 * agg["attainment"],
            agg["mean_utility"],
            agg["mean_duration_minutes"],
            agg["mean_degraded_ticks"],
            agg["mean_allocation_deficits"],
        )
    report.digest = {
        "experiment": "chaos",
        "scale": scale.name,
        "seed": seed,
        "intensities": list(INTENSITIES),
        "modes": list(MODES),
        "aggregates": aggregates,
        "runs": [row for _unit, row in rows],
    }
    report.add_note(
        "schedule per run: 6-machine rack loss, eviction storm, 35% "
        "guaranteed-token shock, 1.7x profile drift, 10%/10% dropped/"
        "delayed ticks, predictor blackout over 0.20-0.90 of the deadline; "
        "the intensity dial scales every magnitude"
    )
    report.add_note(
        "no-fallback ablates ControlConfig.degraded_fallback: the "
        "controller holds its allocation through predictor blackouts "
        "instead of re-optimizing the last-known-good C(p, a) curve"
    )
    return report
