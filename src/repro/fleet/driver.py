"""The fleet driver: N recurring job templates over M simulated days.

Each template's lifecycle per day mirrors production Jockey:

1. the day's instance runs under the control loop, trained from the
   store's current generation (one long-lived :class:`JockeyPolicy` per
   template — the model only changes through the predictor refresh hook);
2. the finished run is re-profiled via :meth:`JobProfile.from_trace` and
   appended to the :class:`~repro.fleet.store.ProfileStore` as a new
   generation;
3. the drift detector compares the model's training profile against the
   observed one; only a *significant* drift triggers an update-policy
   resolve + C(p, a) rebuild (warm cache otherwise — a calm fleet day
   performs zero rebuilds).

Ground-truth drift is injected through the chaos subsystem's
:class:`~repro.chaos.ProfileDrift` — reused with ``at`` interpreted as a
**day index** instead of in-run seconds — via the shared
:func:`~repro.chaos.injectors.drifted_profile` helper, so the fleet ages
profiles with exactly the arithmetic the live injector applies mid-run.

Model modes beyond the update policies:

* ``stale`` — the model stays pinned at generation 0 (drift is detected
  and counted but never acted on);
* ``oracle`` — the model is rebuilt from the current *ground-truth*
  profile whenever it changes (the fresh-oracle upper bound);
* ``cold-start`` — every day pays a fresh profiling run and full rebuild
  (no cross-run store at all).
"""

from __future__ import annotations

import math
import shutil
import tempfile
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro import persist
from repro.chaos.injectors import drifted_profile
from repro.chaos.spec import ProfileDrift
from repro.core.control import ControlConfig
from repro.core.policies import build_policy
from repro.core.utility import deadline_utility
from repro.experiments.runner import ExperimentResult, RunConfig, run_experiment
from repro.experiments.scenarios import (
    DEADLINE_HEADROOM,
    SMOKE,
    TRAINING_ALLOCATION,
    Scale,
    TrainedJob,
    fit_model,
    learn_model,
    learn_profile,
    run_training,
)
from repro.fleet.store import FleetError, FleetSpecError, ProfileStore
from repro.fleet.update import (
    UPDATE_POLICIES,
    WINDOW,
    detect_drift,
    resolve_profile,
)
from repro.jobs.workloads import named_job
from repro.settable import Amount, Count, Positive, check, refuse
from repro.simkit.random import derive_seed
from repro.telemetry import metrics as _metrics
from repro.telemetry import predict as _predict

#: How a template's model evolves across days.  The middle two reuse the
#: update-policy names: drift-gated refresh resolved by that policy.
MODEL_MODES = ("stale", "latest", "ewma", "oracle", "cold-start")

#: The fleet's deadline floor (seconds): smoke-scale jobs are small, and
#: the experiments' 30-minute grid floor would hand every arm a free pass.
MIN_DEADLINE_SECONDS = 600.0

_RUNS = _metrics.REGISTRY.counter(
    "repro_fleet_runs_total",
    "Fleet runs executed",
    labelnames=("template", "outcome"),
)
_REBUILDS = _metrics.REGISTRY.counter(
    "repro_fleet_model_rebuilds_total",
    "C(p, a) model rebuilds performed by the fleet driver",
    labelnames=("template",),
)
_DRIFTS = _metrics.REGISTRY.counter(
    "repro_fleet_drift_detections_total",
    "Significant profile drifts detected between model and observed run",
    labelnames=("template",),
)
_PROFILING = _metrics.REGISTRY.counter(
    "repro_fleet_profiling_runs_total",
    "Dedicated profiling runs paid by the fleet (bootstrap + cold-start)",
    labelnames=("template",),
)
_STALENESS = _metrics.REGISTRY.gauge(
    "repro_fleet_model_staleness_days",
    "Days since the template's model was last rebuilt",
    labelnames=("template",),
)


@dataclass(frozen=True)
class FleetTemplate:
    """One recurring job: a stable name plus the workload it runs."""

    name: str
    #: Table 2 letter (A-G) or "mapreduce"; defaults to ``name``.
    job: Optional[str] = None

    def job_name(self) -> str:
        return self.job if self.job is not None else self.name


@dataclass(frozen=True)
class FleetConfig:
    """Everything that shapes one fleet simulation."""

    days: Count = 5
    model_mode: str = "ewma"
    #: Ground-truth drift: ``at`` is the first **day index** the drifted
    #: profile applies (None = no drift).
    drift: Optional[ProfileDrift] = None
    scale: Scale = SMOKE
    #: Deadline = trim x headroom x fastest-feasible from the bootstrap
    #: model; < 1 tightens the budget so staleness has consequences.
    deadline_trim: Positive = 0.85
    seed: Amount = 0
    #: Store root; None = a private temp dir, discarded after the run.
    store_root: Optional[str] = None
    #: Retain each template's final-day ExperimentResult (heavy) — the CLI
    #: sets this to render a run report with the fleet lineage section.
    keep_last_result: bool = False

    def __post_init__(self):
        check(self, FleetError)
        if self.model_mode not in MODEL_MODES:
            raise FleetError(
                f"unknown model mode {self.model_mode!r} "
                f"(choose from {', '.join(MODEL_MODES)})"
            )
        if self.deadline_trim > 1.5:
            refuse(self, "deadline_trim", "in (0, 1.5]", FleetError)


@dataclass(frozen=True)
class FleetRunRecord:
    """One (template, day) run's outcome and model-freshness telemetry."""

    template: str
    mode: str
    day: int
    met: bool
    duration_minutes: float
    utility: float
    staleness_days: int
    model_generation: int
    drift_statistic: float
    drift_mean_shift: float
    drift_significant: bool
    rebuilt: bool
    #: Interval ticks this day's run recorded and the fraction the nominal
    #: 90% band covered — a stale model shows up here (overconfident bands)
    #: before it shows up as a missed deadline.
    prediction_ticks: int = 0
    coverage90: float = 0.0

    def to_dict(self) -> Dict:
        return {
            "template": self.template,
            "mode": self.mode,
            "day": self.day,
            "met": self.met,
            "duration_minutes": self.duration_minutes,
            "utility": self.utility,
            "staleness_days": self.staleness_days,
            "model_generation": self.model_generation,
            "drift_statistic": self.drift_statistic,
            "drift_mean_shift": self.drift_mean_shift,
            "drift_significant": self.drift_significant,
            "rebuilt": self.rebuilt,
            "prediction_ticks": self.prediction_ticks,
            "coverage90": self.coverage90,
        }


@dataclass(frozen=True)
class TemplateSummary:
    """Per-template fleet telemetry: SLO attainment + model staleness."""

    template: str
    mode: str
    days: int
    attainment: float
    rebuilds: int
    drift_detections: int
    profiling_runs: int
    mean_staleness_days: float
    final_generation: int
    deadline_minutes: float
    #: Pooled interval calibration across the template's days: each day's
    #: ledger judged against its own realized completion, each day one
    #: trial of the honesty verdict.
    prediction_runs: int = 0
    prediction_ticks: int = 0
    coverage90: float = 0.0
    prediction_verdict: str = _predict.VERDICT_NO_DATA

    def to_dict(self) -> Dict:
        return {
            "template": self.template,
            "mode": self.mode,
            "days": self.days,
            "attainment": self.attainment,
            "rebuilds": self.rebuilds,
            "drift_detections": self.drift_detections,
            "profiling_runs": self.profiling_runs,
            "mean_staleness_days": self.mean_staleness_days,
            "final_generation": self.final_generation,
            "deadline_minutes": self.deadline_minutes,
            "prediction_runs": self.prediction_runs,
            "prediction_ticks": self.prediction_ticks,
            "coverage90": self.coverage90,
            "prediction_verdict": self.prediction_verdict,
        }


@dataclass
class FleetResult:
    """One fleet simulation's rows, summaries, and (optionally) the final
    day's full run artifacts per template."""

    mode: str
    days: int
    seed: int
    scale: str
    rows: List[FleetRunRecord]
    summaries: List[TemplateSummary]
    store_root: Optional[str] = None
    last_results: Dict[str, ExperimentResult] = field(default_factory=dict)

    def to_digest(self) -> Dict:
        return {
            "mode": self.mode,
            "days": self.days,
            "seed": self.seed,
            "scale": self.scale,
            "summaries": [s.to_dict() for s in self.summaries],
            "runs": [r.to_dict() for r in self.rows],
        }


def _generate(template: FleetTemplate, config: FleetConfig):
    job = template.job_name()
    generated = named_job(
        job, seed=config.seed, vertex_scale=config.scale.vertex_scale
    )
    if generated is None:
        raise FleetError(
            f"unknown template job {job!r} for template {template.name!r} "
            "(choose A-G or mapreduce)"
        )
    return generated


def _pick_fleet_deadline(table, trim: float) -> float:
    """Trimmed headroom over the fastest feasible execution, rounded up to
    a minute (the experiments' 5-minute/30-minute grid is too coarse for
    the fleet's small smoke jobs to feel a trim at all)."""
    fastest = table.predicted_duration(max(table.allocations), q=0.9)
    target = fastest * DEADLINE_HEADROOM * trim
    return max(math.ceil(target / 60.0) * 60.0, MIN_DEADLINE_SECONDS)


def _simulate_template(
    template: FleetTemplate,
    config: FleetConfig,
    store: ProfileStore,
) -> Tuple[List[FleetRunRecord], TemplateSummary, Optional[ExperimentResult]]:
    mode = config.model_mode
    scale = config.scale
    generated = _generate(template, config)
    base_truth = generated.profile
    uses_store = mode in ("stale", *UPDATE_POLICIES)
    # The update-policy modes resolve by their own policy; stale by latest.
    update_policy = mode if mode in UPDATE_POLICIES else "latest"

    # Bootstrap: one profiling run on the undrifted ground truth seeds the
    # lineage, the first model, and the (arm-independent) deadline.
    bootstrap_trace = run_training(
        generated,
        seed=derive_seed(config.seed, f"fleet-train:{template.name}"),
        allocation=TRAINING_ALLOCATION,
    )
    _PROFILING.labels(template=template.name).inc()
    profiling_runs = 1
    # One C(p, a) seed per template: rebuilding from an unchanged profile
    # is a warm cache hit.
    fit = dict(
        seed=derive_seed(config.seed, f"fleet-cpa:{template.name}"),
        allocations=scale.allocations,
        reps=scale.cpa_reps,
    )
    model_profile, indicator, table = learn_model(
        generated.graph, bootstrap_trace, **fit
    )
    if uses_store:
        generation = store.append(
            template.name, model_profile, metadata={"day": -1, "source": "bootstrap"}
        ).number
    else:
        generation = 0
    deadline = _pick_fleet_deadline(table, config.deadline_trim)
    policy = build_policy(
        "jockey",
        table=table,
        indicator=indicator,
        profile=model_profile,
        utility=deadline_utility(deadline),
        control=ControlConfig(),
    )

    rows: List[FleetRunRecord] = []
    rebuilds = 0

    def refit(profile) -> None:
        """Rebuild the model from ``profile`` and hand it to the policy."""
        nonlocal indicator, table, rebuilds
        indicator, table = fit_model(profile, **fit)
        policy.refresh_model(table=table, indicator=indicator)
        _REBUILDS.labels(template=template.name).inc()
        rebuilds += 1

    drift_detections = 0
    model_refresh_day = 0
    last_result: Optional[ExperimentResult] = None
    ledgers: List[Tuple[List, float]] = []

    for day in range(config.days):
        drift_active = (
            config.drift is not None and day >= int(config.drift.at)
        )
        truth = (
            drifted_profile(base_truth, config.drift)
            if drift_active else base_truth
        )
        rebuilt_today = False

        if mode == "cold-start":
            # Pay a fresh profiling run against today's ground truth, then
            # rebuild from it: maximal freshness at maximal cost.
            day_trace = run_training(
                replace(generated, profile=truth),
                seed=derive_seed(
                    config.seed, f"fleet-profiling:{template.name}:{day}"
                ),
                allocation=TRAINING_ALLOCATION,
            )
            _PROFILING.labels(template=template.name).inc()
            profiling_runs += 1
            model_profile = learn_profile(generated.graph, day_trace)
            refit(model_profile)
            rebuilt_today = True
            model_refresh_day = day
            generation += 1
        elif mode == "oracle" and (day == 0 or (
            drift_active and config.drift is not None
            and day == int(config.drift.at)
        )):
            # The oracle trains on the ground truth itself, refreshed the
            # moment it changes — the upper bound no learner can beat.
            model_profile = truth
            refit(model_profile)
            rebuilt_today = True
            model_refresh_day = day

        staleness = day - model_refresh_day
        _STALENESS.labels(template=template.name).set(staleness)
        trained = TrainedJob(
            generated=replace(generated, profile=truth),
            learned_profile=model_profile,
            training_trace=bootstrap_trace,
            table=table,
            indicator=indicator,
            short_deadline=deadline,
            long_deadline=2.0 * deadline,
            scale=scale,
            seed=config.seed,
        )
        policy.reset_run_state()
        result = run_experiment(
            trained,
            policy,
            RunConfig(
                deadline_seconds=deadline,
                seed=derive_seed(config.seed, f"fleet:{template.name}:{day}"),
                # The fleet isolates *model freshness*: day-to-day change
                # comes from the injected drift, not sampled noise.
                runtime_scale=1.0,
                sample_cluster_day=False,
            ),
        )
        met = bool(result.metrics.met_deadline)
        _RUNS.labels(
            template=template.name, outcome="met" if met else "missed"
        ).inc()

        observed = learn_profile(generated.graph, result.trace)
        drift_stat = 0.0
        drift_shift = 0.0
        significant = False
        if uses_store:
            generation = store.append(
                template.name, observed, metadata={"day": day}
            ).number
            report = detect_drift(model_profile, observed)
            drift_stat = report.max_statistic
            drift_shift = report.work_shift
            significant = report.significant
            if significant:
                _DRIFTS.labels(template=template.name).inc()
                drift_detections += 1
                if mode != "stale":
                    # Relearn from the lineage per the update policy; the
                    # rebuilt model serves from the next day on.
                    model_profile = resolve_profile(
                        update_policy,
                        store.lineage(
                            template.name, limit=WINDOW, graph=generated.graph
                        ),
                    )
                    refit(model_profile)
                    rebuilt_today = True
                    model_refresh_day = day + 1

        day_ledger = (
            result.audit_records, float(result.metrics.duration_seconds)
        )
        ledgers.append(day_ledger)
        day_ticks, day_covered, _width = _predict.coverage_count(
            [day_ledger], 0.9
        )

        slo = result.slo_report()
        rows.append(FleetRunRecord(
            template=template.name,
            mode=mode,
            day=day,
            met=met,
            duration_minutes=round(result.metrics.duration_seconds / 60.0, 3),
            utility=round(float(slo.utility_realized), 6),
            staleness_days=staleness,
            model_generation=generation,
            drift_statistic=round(drift_stat, 6),
            drift_mean_shift=round(drift_shift, 6),
            drift_significant=significant,
            rebuilt=rebuilt_today,
            prediction_ticks=day_ticks,
            coverage90=round(
                day_covered / day_ticks if day_ticks else 0.0, 6
            ),
        ))
        if config.keep_last_result:
            last_result = result

    # Pooled honesty across the template's days — per-template coverage
    # gauges land on /metrics via the calibration call itself.
    cal = _predict.calibration(ledgers, predictor=template.name)
    summary = TemplateSummary(
        template=template.name,
        mode=mode,
        days=config.days,
        attainment=round(sum(1 for r in rows if r.met) / len(rows), 6),
        rebuilds=rebuilds,
        drift_detections=drift_detections,
        profiling_runs=profiling_runs,
        mean_staleness_days=round(
            sum(r.staleness_days for r in rows) / len(rows), 6
        ),
        final_generation=generation,
        deadline_minutes=round(deadline / 60.0, 3),
        prediction_runs=cal.runs,
        prediction_ticks=cal.ticks,
        coverage90=round(cal.coverage(0.9), 6),
        prediction_verdict=cal.verdict,
    )
    return rows, summary, last_result


def run_fleet(
    templates: List[FleetTemplate], config: FleetConfig = FleetConfig()
) -> FleetResult:
    """Simulate every template over ``config.days`` simulated days."""
    if not templates:
        raise FleetError("need at least one fleet template")
    names = [t.name for t in templates]
    if len(set(names)) != len(names):
        raise FleetError(f"duplicate template names: {names}")
    temp_root: Optional[str] = None
    if config.store_root is not None:
        store = ProfileStore(config.store_root)
    else:
        temp_root = tempfile.mkdtemp(prefix="repro-fleet-")
        store = ProfileStore(temp_root)
    rows: List[FleetRunRecord] = []
    summaries: List[TemplateSummary] = []
    last_results: Dict[str, ExperimentResult] = {}
    try:
        for template in templates:
            t_rows, summary, last = _simulate_template(template, config, store)
            rows.extend(t_rows)
            summaries.append(summary)
            if last is not None:
                last_results[template.name] = last
    finally:
        if temp_root is not None:
            shutil.rmtree(temp_root, ignore_errors=True)
    return FleetResult(
        mode=config.model_mode,
        days=config.days,
        seed=config.seed,
        scale=config.scale.name,
        rows=rows,
        summaries=summaries,
        store_root=config.store_root,
        last_results=last_results,
    )


# ----------------------------------------------------------------------
# Fleet specs (JSON)
# ----------------------------------------------------------------------

#: A fleet spec's fields and their types (:func:`repro.persist.spec_fields`);
#: ``mode`` sets ``FleetConfig.model_mode`` and ``scale`` names a ``Scale``.
_SPEC = {
    "templates": Tuple[Any, ...], "days": int, "mode": str,
    "deadline_trim": float, "seed": int, "scale": str, "drift": Any,
}
#: The ground-truth drift; ``day`` sets ``ProfileDrift.at``.
_DRIFT = {"day": float, "factor": float, "stages": Tuple[str, ...]}


def fleet_spec_from_dict(data: Dict) -> Tuple[List[FleetTemplate], FleetConfig]:
    """Parse a fleet spec dict; unknown fields and bad shapes raise
    :class:`FleetSpecError` (a *usage* error — the CLI exits 2).  A
    template is a job name or a ``{"name", "job"}`` object."""
    from repro.experiments.scenarios import SCALES

    spec = persist.spec_fields(data, _SPEC, FleetSpecError)
    templates = [
        FleetTemplate(name=item) if isinstance(item, str) else
        persist.spec_object(item, FleetTemplate, FleetSpecError,
                            path=f"templates[{i}]")
        for i, item in enumerate(spec.get("templates", ("A", "C")))
    ]
    if not templates:
        raise FleetSpecError("'templates' must be a non-empty list")
    scale_name = spec.get("scale", "smoke")
    if scale_name not in SCALES:
        raise FleetSpecError(
            f"unknown scale {scale_name!r} (choose from {sorted(SCALES)})"
        )
    drift = spec.get("drift")
    if drift is not None:
        drift = persist.spec_fields(drift, _DRIFT, FleetSpecError, path="drift")
    try:
        config = FleetConfig(
            days=spec.get("days", 5),
            model_mode=spec.get("mode", "ewma"),
            drift=None if drift is None else ProfileDrift(
                at=drift.get("day", 0.0),
                factor=drift.get("factor", 1.5),
                stages=drift.get("stages", ()),
            ),
            scale=SCALES[scale_name],
            deadline_trim=spec.get("deadline_trim", 0.85),
            seed=spec.get("seed", 0),
        )
    except ValueError as exc:
        # A ChaosError from the drift or a FleetError from the config: out
        # of range in a spec file is a usage error too.
        raise FleetSpecError(f"malformed fleet spec: {exc}") from exc
    return templates, config


def load_fleet_spec(path) -> Tuple[List[FleetTemplate], FleetConfig]:
    """Read a fleet spec JSON file (with or without the
    ``{"format_version": 1, "fleet": {...}}`` envelope)."""
    return persist.load_spec(path, "fleet", fleet_spec_from_dict, FleetSpecError)


__all__ = [
    "FleetConfig",
    "FleetResult",
    "FleetRunRecord",
    "FleetTemplate",
    "MIN_DEADLINE_SECONDS",
    "MODEL_MODES",
    "TemplateSummary",
    "fleet_spec_from_dict",
    "load_fleet_spec",
    "run_fleet",
]
