"""Prediction-honesty sweep: chaos intensity vs interval calibration.

Every control tick of a Jockey run publishes a distribution-valued
completion-time forecast (p50/p80/p90/p95 central intervals from the live
C(p, a) model plus the model-error envelope).  This sweep asks the PCS
question: *are the stated probabilities honest, and when do they stop
being honest?*

The sweep is a :class:`~repro.experiments.runner.Sweep` with one variant
per intensity, so every intensity of one (job, rep) runs on the same seed.
Each intensity pools the interval ledgers of those paired-seed runs (same
jobs, same cluster noise — intensity alone moves the outcome) and scores
them with :func:`repro.telemetry.predict.calibration`, whose verdict reads
one trial per run and level.  Expected shape:

* calm (intensity 0) — the run coverage of the nominal 90% interval is
  shown within [0.85, 0.95] and the overall verdict is ``honest``: the
  shipped model-error envelope matches the simulator-vs-cluster
  divergence it was calibrated against;
* under chaos — drift, storms and blackouts violate the model's
  assumptions, empirical coverage falls monotonically below nominal, the
  pinball loss rises, and the verdict flags ``overconfident``.  The
  observatory's value is exactly that it *says so* instead of quietly
  publishing stale bands.

The report carries a machine-readable ``digest`` (deterministic bytes for
a given seed/scale, at any worker count); ``repro experiment predict
--results-dir DIR`` writes it to ``DIR/exp_predict.json``.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from functools import partial
from typing import Dict, List, Tuple

from repro.chaos.spec import (
    ChaosSpec,
    ControlFaults,
    EvictionStorm,
    ProfileDrift,
)
from repro.experiments.reporting import ExperimentReport
from repro.experiments.runner import ExperimentResult, Sweep, Unit, Variant
from repro.experiments.scenarios import DEFAULT, Scale, TrainedJob, trained_jobs
from repro.telemetry import predict as _predict

INTENSITIES = (0.0, 0.5, 1.0, 1.5)

#: Runs pooled per (job, intensity).  Fixed rather than scale-driven:
#: coverage at the 90% level needs tens of pooled ticks before the
#: empirical rate is meaningful, even at smoke scale.
REPS = 6

#: The nominal level the calm cell's note quotes the verdict at.
CALM_LEVEL = 0.9


def base_spec(deadline: float) -> ChaosSpec:
    """The sweep's chaos schedule, anchored to the job's deadline ``D``.

    Milder than the SLO chaos sweep's (:mod:`exp_chaos`): the point here
    is *mis-calibration*, not outright deadline collapse — drift early so
    every later band is built on a wrong model, a storm to starve the
    spare-token supply the profile assumed, and a blackout so the honesty
    timeline shows the gap where no band could be published at all.
    """
    d = deadline
    return ChaosSpec(
        name="predict-sweep",
        eviction_storms=(
            EvictionStorm(start=0.25 * d, end=0.55 * d, demand_fraction=0.6),
        ),
        profile_drifts=(ProfileDrift(at=0.10 * d, factor=1.6),),
        control_faults=ControlFaults(
            drop_tick_prob=0.10,
            delay_tick_prob=0.10,
            delay_seconds=25.0,
            blackouts=((0.30 * d, 0.60 * d),),
        ),
    )


def _chaos_run(intensity: float, _trained: TrainedJob, deadline: float) -> Dict:
    """A unit's RunConfig fields.  Chaos is the only perturbation: input
    scale and cluster day are fixed, so intensity alone moves the
    calibration (and the coverage decline's monotonicity is meaningful)."""
    return {
        "runtime_scale": 1.0,
        "sample_cluster_day": False,
        "chaos": replace(base_spec(deadline), intensity=intensity),
    }


#: One arm per intensity at the short deadline.  The Sweep keeps it out of
#: the seed, so every arm of one (job, rep) faces the same cluster.
VARIANTS = tuple(
    Variant(f"intensity {intensity}", run=partial(_chaos_run, intensity))
    for intensity in INTENSITIES
)


def _row(unit: Unit, result: ExperimentResult) -> Dict:
    summary = result.chaos_summary or {}
    return {
        "job": unit.trained.name,
        "intensity": unit.config.chaos.intensity,
        "met": bool(result.metrics.met_deadline),
        "duration": float(result.metrics.duration_seconds),
        "records": result.audit_records,
        "degraded_ticks": int(summary.get("degraded_ticks", 0)),
        "blackout_hits": int(summary.get("blackout_hits", 0)),
    }


def _per_level(report: _predict.CalibrationReport, value) -> Dict:
    """``{level label: value(level)}`` over a report's levels."""
    return {_predict.level_label(lv.level): value(lv) for lv in report.levels}


def _aggregate(rows: List[Tuple[Unit, Dict]]) -> List[Dict]:
    """Per-variant pooled calibration, in sweep order."""
    out = []
    for variant in VARIANTS:
        cell = [row for unit, row in rows if unit.variant is variant]
        report = _predict.calibration(
            [(r["records"], r["duration"]) for r in cell],
            predictor="jockey",
        )
        out.append({
            "intensity": cell[0]["intensity"],
            "runs": len(cell),
            "ticks": report.ticks,
            "coverage": _per_level(report, lambda lv: round(lv.empirical, 6)),
            "runs_banded": _per_level(report, lambda lv: lv.runs),
            "runs_covered": _per_level(report, lambda lv: lv.runs_covered),
            "sharpness": _per_level(report, lambda lv: round(lv.sharpness, 6)),
            "pinball_loss_seconds": round(report.pinball_loss, 3),
            "verdict": report.verdict,
            "mean_degraded_ticks": round(
                sum(r["degraded_ticks"] for r in cell) / len(cell), 3
            ),
        })
    return out


def run(scale: Scale = DEFAULT, *, seed: int = 0):
    report = ExperimentReport(
        experiment_id="predict",
        title="Prediction-honesty sweep: chaos intensity vs interval "
              "calibration (pooled paired-seed ledgers)",
        headers=[
            "intensity",
            "runs",
            "ticks",
            "cov@50%",
            "cov@80%",
            "cov@90%",
            "cov@95%",
            "runs cov@90%",
            "pinball [min]",
            "verdict",
        ],
    )
    jobs = trained_jobs(seed=seed, scale=scale)
    rows = [
        (unit, _row(unit, result))
        for unit, result in Sweep(VARIANTS, reps=REPS).run(jobs.values(), seed=seed)
    ]
    aggregates = _aggregate(rows)
    nominal, margin = Fraction(str(CALM_LEVEL)), _predict.HONESTY_MARGIN
    band = [float(nominal - margin), float(nominal + margin)]
    for agg in aggregates:
        report.add_row(
            agg["intensity"],
            agg["runs"],
            agg["ticks"],
            agg["coverage"].get("50", 0.0),
            agg["coverage"].get("80", 0.0),
            agg["coverage"].get("90", 0.0),
            agg["coverage"].get("95", 0.0),
            f"{agg['runs_covered'].get('90', 0)}/{agg['runs_banded'].get('90', 0)}",
            agg["pinball_loss_seconds"] / 60.0,
            agg["verdict"],
        )
    report.digest = {
        "experiment": "predict",
        "scale": scale.name,
        "seed": seed,
        "intensities": list(INTENSITIES),
        "levels": [
            _predict.level_label(lv) for lv in _predict.NOMINAL_LEVELS
        ],
        "calm_level": CALM_LEVEL,
        "calm_coverage_band": band,
        "model_error_rel": _predict.MODEL_ERROR_REL,
        "aggregates": aggregates,
        "runs": [
            {k: v for k, v in row.items() if k != "records"} for _unit, row in rows
        ],
    }
    calm, label = aggregates[0], _predict.level_label(CALM_LEVEL)
    runs, covered = calm["runs_banded"][label], calm["runs_covered"][label]
    report.add_note(
        f"calm cell: {covered} of {runs} runs' first nominal 90% interval "
        f"covered their completion — "
        f"{_predict.honesty(runs, covered, CALM_LEVEL)[0]} at n={runs}, where "
        f"honest needs run coverage shown within {band} (verdict: {calm['verdict']})"
    )
    report.add_note(
        "schedule per run: eviction storm over 0.25-0.55 D, 1.6x profile "
        "drift at 0.10 D, 10%/10% dropped/delayed ticks, predictor "
        "blackout over 0.30-0.60 D; the intensity dial scales every "
        "magnitude (ticks shrink with intensity because degraded ticks "
        "publish no band)"
    )
    report.add_note(
        "coverage is pooled over paired-seed runs: each tick's band is "
        "judged against its own run's realized completion"
    )
    return report
