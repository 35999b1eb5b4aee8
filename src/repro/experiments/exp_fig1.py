"""Fig. 1: dependence between jobs.

The paper mines three days of production history; we generate a synthetic
dependency trace (see :mod:`repro.jobs.pipelines`) and report the same four
distributions: the gap between dependent jobs, the length of dependent-job
chains, the number of jobs indirectly using a job's output, and the number
of business groups depending on a job.

Shape targets from the paper: median job has >10 indirect dependents (top
10% have >100), the median producer-consumer gap is ~10 minutes, and chains
are long and cross groups.
"""

from __future__ import annotations

from repro.experiments.metrics import percentiles
from repro.experiments.reporting import ExperimentReport
from repro.experiments.scenarios import DEFAULT, Scale
from repro.jobs.pipelines import generate_pipeline_trace


def run(scale: Scale = DEFAULT, *, seed: int = 0):
    num_jobs = 400 if scale.name == "smoke" else 3000
    trace = generate_pipeline_trace(seed=seed, num_jobs=num_jobs)
    gaps = trace.dependency_gaps_minutes()
    indirect = list(trace.indirect_dependents().values())
    groups = list(trace.dependent_groups().values())
    chains = trace.chain_lengths()

    report = ExperimentReport(
        experiment_id="fig1",
        title="Dependence between jobs (CDF percentiles)",
        headers=["series", "p10", "p25", "p50", "p75", "p90", "p99"],
    )
    qs = (10, 25, 50, 75, 90, 99)
    report.add_row("gap between dependent jobs [min]", *percentiles(gaps, qs))
    report.add_row("length of dependent job chains", *percentiles(chains, qs))
    report.add_row("# jobs indirectly using output", *percentiles(indirect, qs))
    report.add_row("# groups that depend on a job", *percentiles(groups, qs))
    report.add_note(
        f"{num_jobs} synthetic jobs over 72h; "
        f"{sum(1 for j in trace.jobs if j.inputs)} with >=1 dependency"
    )
    report.add_note(
        "paper shapes: median >10 indirect dependents, median gap ~10 min, "
        "long cross-group chains"
    )
    return report
