"""Experiment drivers: one ``exp_*`` module per table/figure of the paper's
evaluation (and per extension sweep), a shared runner, metrics, and
plain-text reporting.

:mod:`repro.experiments.registry` lists every run once — driver, CLI ids,
the ``results/`` files it produces and the scale and seed they are committed
at; ``repro experiment`` is the one entry point that runs them.
"""

from repro.experiments.metrics import (
    PolicySummary,
    RunMetrics,
    coefficient_of_variation,
    group_by,
    metrics_from_trace,
    percentiles,
    summarize_policy,
)
from repro.experiments.reporting import ExperimentReport, ascii_table
from repro.experiments.runner import (
    POLICY_KINDS,
    ExperimentResult,
    RunConfig,
    make_policy,
    run_experiment,
)
from repro.experiments.scenarios import (
    DEFAULT,
    PAPER,
    SCALES,
    SMOKE,
    Scale,
    TrainedJob,
    clear_trained_cache,
    trained_job,
    trained_jobs,
)

__all__ = [
    "DEFAULT",
    "ExperimentReport",
    "ExperimentResult",
    "PAPER",
    "POLICY_KINDS",
    "PolicySummary",
    "RunConfig",
    "RunMetrics",
    "SCALES",
    "SMOKE",
    "Scale",
    "TrainedJob",
    "ascii_table",
    "clear_trained_cache",
    "coefficient_of_variation",
    "group_by",
    "make_policy",
    "metrics_from_trace",
    "percentiles",
    "run_experiment",
    "summarize_policy",
    "trained_job",
    "trained_jobs",
]
