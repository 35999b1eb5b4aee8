"""Table 2 + Fig. 3: statistics and structure of the seven evaluation jobs.

Regenerates the paper's job-characterization table from *measured* data: we
synthesize jobs A-G from the published statistics, execute one training run
of each on the substrate, and report the same rows Table 2 reports.  The
paper's published values are included side-by-side so drift introduced by
the synthesis is visible.  Fig. 3's stage-dependency silhouettes are
rendered as ASCII DAGs.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.reporting import ExperimentReport
from repro.experiments.scenarios import DEFAULT, Scale, trained_job
from repro.jobs.workloads import TABLE2_SPECS


def run(scale: Scale = DEFAULT, *, seed: int = 0):
    """Build the Table 2 report (and the Fig. 3 ASCII rendering)."""
    report = ExperimentReport(
        experiment_id="table2",
        title="Statistics of the seven evaluation jobs (paper values in parens)",
        headers=[
            "stat",
            *[f"job {name}" for name in scale.jobs],
        ],
    )
    trained = {name: trained_job(name, seed=seed, scale=scale) for name in scale.jobs}

    def stage_p90s(tj):
        per_stage = {
            s: float(np.percentile(v, 90))
            for s, v in tj.training_trace.stage_runtimes().items()
            if v
        }
        return per_stage

    rows = {
        "vertex runtime median [sec]": [],
        "vertex runtime p90 [sec]": [],
        "p90, fastest stage [sec]": [],
        "p90, slowest stage [sec]": [],
        "number of stages": [],
        "number of barrier stages": [],
        "number of vertices": [],
    }
    for name in scale.jobs:
        tj = trained[name]
        spec = TABLE2_SPECS[name]
        runtimes = [
            r.run_time for r in tj.training_trace.successful_records()
        ]
        per_stage = stage_p90s(tj)
        rows["vertex runtime median [sec]"].append(
            f"{np.median(runtimes):.1f} ({spec.runtime_median})"
        )
        rows["vertex runtime p90 [sec]"].append(
            f"{np.percentile(runtimes, 90):.1f} ({spec.runtime_p90})"
        )
        rows["p90, fastest stage [sec]"].append(
            f"{min(per_stage.values()):.1f} ({spec.fastest_stage_p90})"
        )
        rows["p90, slowest stage [sec]"].append(
            f"{max(per_stage.values()):.1f} ({spec.slowest_stage_p90})"
        )
        graph = tj.graph
        rows["number of stages"].append(f"{graph.num_stages} ({spec.num_stages})")
        rows["number of barrier stages"].append(
            f"{graph.num_barrier_stages} ({spec.num_barriers})"
        )
        rows["number of vertices"].append(
            f"{graph.num_vertices} ({spec.num_vertices})"
        )
    for stat, cells in rows.items():
        report.add_row(stat, *cells)
    if scale.vertex_scale < 1.0:
        report.add_note(
            f"vertex counts scaled by {scale.vertex_scale} at this scale preset"
        )
    for name in scale.jobs:
        report.add_section(trained[name].graph.render_ascii())
    report.add_note(
        "ASCII DAGs stand in for Fig. 3; ▲ marks full-shuffle (barrier) stages"
    )
    return report
