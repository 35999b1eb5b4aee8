"""Extension: co-executing SLO jobs — independent Jockeys vs the arbiter.

The paper's evaluation runs one SLO job at a time and motivates a global
arbiter as future work (§1, §4.4).  Here three SLO jobs share the
100-token guaranteed slice simultaneously, with per-run heavy inputs, under
the two coordination modes of :mod:`repro.experiments.multijob`.

Under contention, first-come clamping lets whichever job asks first hoard
the slice while another misses; the marginal-utility arbiter should shift
tokens to the endangered job.  :data:`CLAIMS` states what it must then
show, paired on each rep's day.
"""

from __future__ import annotations

from operator import attrgetter
from typing import List

import numpy as np

from repro.experiments.metrics import Claim, tally
from repro.experiments.multijob import COORDINATION_MODES, run_multi_job
from repro.experiments.reporting import ExperimentReport
from repro.experiments.runner import sample_runtime_scale
from repro.experiments.scenarios import DEFAULT, Scale, trained_job
from repro.simkit.random import RngRegistry, derive_seed

#: Each job keeps its own short deadline; contention comes from the jobs'
#: combined needs (~25-45 tokens each at 1.0x input) plus per-run heavy
#: inputs occasionally pushing the total past the 100-token slice.
DEADLINE_FACTOR = 1.0

#: The arbiter the paper leaves as future work (§1, §4.4) should do no
#: worse than independent controllers clamped first-come.
CLAIMS = (
    Claim("arbiter misses no more job deadlines than independent",
          "§4.4 future work", attrgetter("jobs_missed"),
          "arbiter", "independent", better="lower"),
    Claim("arbiter's worst job finishes no later than independent's",
          "§4.4 future work", attrgetter("worst_relative_latency"),
          "arbiter", "independent", better="lower"),
)


def run(scale: Scale = DEFAULT, *, seed: int = 0):
    roster = [name for name in ("C", "F", "G") if name in scale.jobs]
    if len(roster) < 2:
        roster = list(scale.jobs[:2])
    reps = 2 if scale.name == "smoke" else 4
    jobs = [trained_job(name, seed=seed, scale=scale) for name in roster]

    report = ExperimentReport(
        experiment_id="multijob",
        title=f"Co-executing SLO jobs ({'+'.join(roster)}) on a 100-token "
        f"slice: independent vs arbiter",
        headers=[
            "coordination",
            "runs",
            "job-deadlines missed [%]",
            "runs with any miss [%]",
            "mean worst-job finish [% of deadline]",
            "p90 worst-job finish [%]",
        ],
    )
    rows = []
    for mode in COORDINATION_MODES:
        missed_jobs = 0
        total_jobs = 0
        runs_with_miss = 0
        worst: List[float] = []
        for rep in range(reps):
            # Both modes run rep ``rep`` from one key: same inputs, same day.
            key = f"multijob:{rep}"
            rep_seed = derive_seed(seed, key)
            day_rng = RngRegistry(rep_seed).stream("multijob-scales")
            scales = {
                name: sample_runtime_scale(day_rng) for name in roster
            }
            result = run_multi_job(
                jobs,
                mode=mode,
                seed=rep_seed,
                deadline_factor=DEADLINE_FACTOR,
                runtime_scales=scales,
            )
            rows.append((key, mode, result))
            missed_jobs += result.jobs_missed
            total_jobs += len(result.per_job)
            runs_with_miss += 1 if result.jobs_missed else 0
            worst.append(100.0 * result.worst_relative_latency)
        report.add_row(
            mode,
            reps,
            100.0 * missed_jobs / total_jobs,
            100.0 * runs_with_miss / reps,
            float(np.mean(worst)),
            float(np.percentile(worst, 90)),
        )
    report.tallies = [(claim, tally(claim, rows)) for claim in CLAIMS]
    return report
