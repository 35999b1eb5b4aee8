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
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.cluster import LoadEpisode
from repro.experiments.reporting import ExperimentReport, scorecard_section, sparkline
from repro.experiments.runner import ExperimentResult, RunConfig, make_policy, run_experiment
from repro.experiments.scenarios import DEFAULT, Scale, trained_job
from repro.telemetry import scorecard as tscorecard


def _case_card(label: str, result: ExperimentResult):
    return tscorecard.from_audit(
        result.audit_records, result.trace.duration, name=label
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


def run(scale: Scale = DEFAULT, *, seed: int = 0):
    roster = scale.jobs
    job_a = "F" if "F" in roster else roster[0]
    job_b = "E" if "E" in roster else roster[0]
    job_c = "G" if "G" in roster else roster[-1]

    report = ExperimentReport(
        experiment_id="fig6+table3",
        title="Dynamic adaptation examples (Fig. 6) and overload detail (Table 3)",
    )

    # (a) Overloaded cluster + heavy input: job needs ~1.6x the trained work
    # and the background surges for most of the run.
    tj_a = trained_job(job_a, seed=seed, scale=scale)
    overload = RunConfig(
        deadline_seconds=tj_a.short_deadline,
        seed=seed + 11,
        runtime_scale=1.5,
        episodes=(LoadEpisode(start=0.0, end=tj_a.short_deadline * 2, factor=1.15),),
        sample_cluster_day=False,
    )
    res_a = run_experiment(
        tj_a, make_policy("jockey", tj_a, tj_a.short_deadline), overload
    )
    report.add_section(
        _describe(res_a, f"(a) job {job_a}, overloaded cluster + heavy input")
    )

    # Table 3: training run vs two overloaded reruns.
    table3 = ExperimentReport(
        experiment_id="table3",
        title=f"Job {job_a}: training run vs two overloaded reruns",
        headers=["statistic", "training", "rerun 1", "rerun 2"],
    )
    rerun2_cfg = RunConfig(
        deadline_seconds=tj_a.short_deadline,
        seed=seed + 12,
        runtime_scale=1.25,
        episodes=(LoadEpisode(0.0, tj_a.short_deadline * 2, 1.05),),
        sample_cluster_day=False,
    )
    res_a2 = run_experiment(
        tj_a, make_policy("jockey", tj_a, tj_a.short_deadline), rerun2_cfg
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
            / tj_a.short_deadline,
        }

    columns = [
        stats(tj_a.training_trace),
        stats(res_a.trace),
        stats(res_a2.trace),
    ]
    for key in columns[0]:
        table3.add_row(key, *[c[key] for c in columns])
    table3.add_note(
        "paper: reruns needed 1.5-2x the training work; Jockey added "
        "resources and the worse rerun missed by only ~3%"
    )

    # (b) A single slow stage: inflate the runtime of the stage carrying
    # the most parallel work, so added tokens can actually absorb the
    # slowdown (as in the paper's example).
    tj_b = trained_job(job_b, seed=seed, scale=scale)
    exec_totals = tj_b.learned_profile.total_exec_seconds()
    topo = tj_b.graph.topological_order()
    early = topo[: max(1, len(topo) // 2)]
    slow_stage = max(early, key=lambda n: exec_totals[n])
    from dataclasses import replace as dc_replace

    from repro.jobs.profiles import JobProfile
    from repro.simkit.distributions import scale as scale_dist

    slow_profile_stages = {
        name: (
            dc_replace(
                tj_b.generated.profile.stage(name),
                runtime=scale_dist(tj_b.generated.profile.stage(name).runtime, 3.0),
            )
            if name == slow_stage
            else tj_b.generated.profile.stage(name)
        )
        for name in tj_b.generated.profile.stage_names
    }
    slowed = dc_replace(
        tj_b.generated, profile=JobProfile(tj_b.graph, slow_profile_stages)
    )
    tj_b_slow = dc_replace(tj_b, generated=slowed)
    res_b = run_experiment(
        tj_b_slow,
        make_policy("jockey", tj_b, tj_b.short_deadline),
        RunConfig(
            deadline_seconds=tj_b.short_deadline, seed=seed + 21,
            runtime_scale=1.0, sample_cluster_day=False,
        ),
    )
    report.add_section(
        _describe(
            res_b,
            f"(b) job {job_b}, stage {slow_stage!r} running 3x slower than "
            f"trained",
        )
    )

    # (c) Over-provisioned start: a light input finishing ahead of schedule.
    tj_c = trained_job(job_c, seed=seed, scale=scale)
    res_c = run_experiment(
        tj_c,
        make_policy("jockey", tj_c, tj_c.short_deadline),
        RunConfig(
            deadline_seconds=tj_c.short_deadline, seed=seed + 31,
            runtime_scale=0.75, sample_cluster_day=False,
        ),
    )
    report.add_section(
        _describe(res_c, f"(c) job {job_c}, light input: policy releases tokens")
    )
    section = scorecard_section(
        [
            _case_card(f"(a) {job_a} overload", res_a),
            _case_card(f"(b) {job_b} slow stage", res_b),
            _case_card(f"(c) {job_c} light input", res_c),
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
    return report, table3
