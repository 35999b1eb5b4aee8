"""Fig. 6 + Table 3: dynamic adaptation case studies.

Three scripted runs mirror the paper's examples:

* (a) **overloaded cluster** — job F under a background surge plus a heavy
  input (the conditions of the paper's single missed deadline); the policy
  notices slow progress and adds resources early.  Table 3 compares the
  training run against two such reruns.
* (b) **slow stage** — job E with one stage's runtime inflated mid-run;
  the policy raises the allocation when the stage drags.
* (c) **over-provisioned start** — job G on a light input; the policy
  releases resources as the deadline approaches.

Each case is a one-job :class:`Sweep`.  Case (a) and Table 3's rerun 2 are
two variants of one sweep, so they share a seed and differ only in input
and load.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import List, Tuple

import numpy as np

from repro.cluster import LoadEpisode
from repro.experiments.reporting import ExperimentReport, scorecard_section, sparkline
from repro.experiments.runner import ExperimentResult, Sweep, Variant
from repro.experiments.scenarios import DEFAULT, Scale, TrainedJob, trained_job
from repro.jobs.profiles import JobProfile
from repro.simkit.distributions import scale as scale_dist
from repro.telemetry import scorecard as tscorecard


def _overloaded(runtime_scale: float, surge: float, _trained: TrainedJob, deadline: float):
    """A heavy input while the background surges for most of the run."""
    return {
        "runtime_scale": runtime_scale,
        "episodes": (LoadEpisode(0.0, deadline * 2, surge),),
        "sample_cluster_day": False,
    }


def _slow_stage(trained: TrainedJob) -> str:
    """The early stage carrying the most parallel work, so added tokens can
    actually absorb its slowdown (as in the paper's example)."""
    exec_totals = trained.learned_profile.total_exec_seconds()
    topo = trained.graph.topological_order()
    return max(topo[: max(1, len(topo) // 2)], key=lambda n: exec_totals[n])


def _slowed(trained: TrainedJob) -> TrainedJob:
    """Ground truth with :func:`_slow_stage` running 3x slower than trained."""
    profile = trained.generated.profile
    stages = {name: profile.stage(name) for name in profile.stage_names}
    slow = _slow_stage(trained)
    stages[slow] = replace(stages[slow], runtime=scale_dist(stages[slow].runtime, 3.0))
    generated = replace(trained.generated, profile=JobProfile(trained.graph, stages))
    return replace(trained, generated=generated)


#: (a): ~1.5x the trained work under a 15% background surge.
OVERLOAD = Variant("overload", run=partial(_overloaded, 1.5, 1.15))
#: Table 3's rerun 2: a lighter input and surge on (a)'s seed.
RERUN_2 = Variant("rerun 2", run=partial(_overloaded, 1.25, 1.05))
#: (b): one stage 3x slower than trained, at the trained input size.
SLOW_STAGE = Variant(
    "slow stage", run={"runtime_scale": 1.0, "sample_cluster_day": False},
    transform=_slowed,
)
#: (c): a light input; the trained model over-provisions it.
LIGHT_INPUT = Variant(
    "light input", run={"runtime_scale": 0.75, "sample_cluster_day": False}
)


def case_sweeps(scale: Scale) -> Tuple[Tuple[str, Sweep], ...]:
    """(job, sweep) per case, in report order: (a) with Table 3's rerun 2,
    then (b), then (c)."""
    roster = scale.jobs
    return (
        ("F" if "F" in roster else roster[0], Sweep((OVERLOAD, RERUN_2))),
        ("E" if "E" in roster else roster[0], Sweep((SLOW_STAGE,))),
        ("G" if "G" in roster else roster[-1], Sweep((LIGHT_INPUT,))),
    )


def _series_text(label: str, series: List[Tuple[float, float]]) -> str:
    if not series:
        return f"  {label}: (empty)"
    values = [v for _t, v in series]
    return (
        f"  {label:<22} start={values[0]:.0f} max={max(values):.0f} "
        f"end={values[-1]:.0f}  {sparkline(values)}"
    )


def _describe(result: ExperimentResult, caption: str) -> str:
    m = result.metrics
    lines = [
        f"-- {caption}",
        f"  deadline={m.deadline_seconds/60:.0f} min, finished at "
        f"{m.duration_seconds/60:.1f} min ({100*m.relative_latency:.0f}% of "
        f"deadline, {'met' if m.met_deadline else 'MISSED'}), "
        f"runtime scale={result.runtime_scale:.2f}",
        _series_text("requested allocation", result.allocation_series),
        _series_text("raw (pre-hysteresis)", [(t, float(v)) for t, v in result.raw_series]),
        _series_text("running tasks", result.running_series),
        f"  oracle allocation = {m.oracle_tokens} tokens",
    ]
    return "\n".join(lines)


def _table3(trained: TrainedJob, reruns: List[ExperimentResult]) -> ExperimentReport:
    table3 = ExperimentReport(
        experiment_id="table3",
        title=f"Job {trained.name}: training run vs two overloaded reruns",
        headers=["statistic", "training", "rerun 1", "rerun 2"],
    )

    def stats(trace):
        ok = trace.successful_records()
        queue = [r.queue_time for r in ok]
        runt = [r.run_time for r in ok]
        return {
            "total work [hours]": trace.total_cpu_seconds() / 3600.0,
            "queueing median [sec]": float(np.median(queue)),
            "queueing 90th perc. [sec]": float(np.percentile(queue, 90)),
            "latency median [sec]": float(np.median(runt)),
            "latency 90th perc. [sec]": float(np.percentile(runt, 90)),
            "completed [% of deadline]": 100.0
            * trace.duration
            / trained.short_deadline,
        }

    columns = [stats(t) for t in (trained.training_trace, *(r.trace for r in reruns))]
    for key in columns[0]:
        table3.add_row(key, *[c[key] for c in columns])
    table3.add_note(
        "paper: reruns needed 1.5-2x the training work; Jockey added "
        "resources and the worse rerun missed by only ~3%"
    )
    return table3


def run(scale: Scale = DEFAULT, *, seed: int = 0):
    (a, rerun_2), (b,), (c,) = [
        sweep.run([trained_job(name, seed=seed, scale=scale)], seed=seed)
        for name, sweep in case_sweeps(scale)
    ]
    report = ExperimentReport(
        experiment_id="fig6+table3",
        title="Dynamic adaptation examples (Fig. 6) and overload detail (Table 3)",
    )
    job_a, job_b, job_c = (unit.trained for unit, _result in (a, b, c))
    report.add_section(
        _describe(a[1], f"(a) job {job_a.name}, overloaded cluster + heavy input")
    )
    report.add_section(
        _describe(
            b[1],
            f"(b) job {job_b.name}, stage {_slow_stage(job_b)!r} running 3x "
            f"slower than trained",
        )
    )
    report.add_section(
        _describe(c[1], f"(c) job {job_c.name}, light input: policy releases tokens")
    )
    section = scorecard_section(
        [
            tscorecard.from_audit(
                result.audit_records, result.trace.duration,
                name=f"({case}) {unit.trained.name} {unit.variant.label}",
            )
            for case, (unit, result) in zip("abc", (a, b, c))
        ],
        caption="Controller prediction scorecards for the three case studies "
                "(divergence from the trained model shows up as bias)",
    )
    if section:
        report.add_section(section)
    report.add_note(
        "paper Fig. 6: (a) resources added early under overload, finishing "
        "just past the deadline; (b) allocation raised when a stage drags; "
        "(c) over-provisioned start, released as the deadline approaches"
    )
    return report, _table3(job_a, [a[1], rerun_2[1]])
