"""Fig. 9 + Fig. 10: comparing the six job-progress indicators.

A job is executed once at a fixed allocation while we sample its per-stage
completion fractions every control period.  Each indicator maps those
samples to progress values, which index its own C(p, a) table to produce a
completion-time estimate ``T_t = t + C(p_t, a)``.  Two quality metrics per
indicator (paper Fig. 10):

* **avg △T** — mean |T_t − T_{t+1}| relative to job duration (oscillation);
* **longest constant interval** — the longest stretch where the indicator
  reports no progress, relative to job duration (stuck-ness).

Shape targets: totalworkWithQ best on both; cp/minstage/minstage-inf
noticeably worse (they track only the most-behind stage).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.cluster import Cluster, ClusterConfig
from repro.core.progress import INDICATOR_NAMES
from repro.experiments.reporting import ExperimentReport, scorecard_section, sparkline
from repro.telemetry.scorecard import Scorecard
from repro.experiments.scenarios import DEFAULT, Scale, TrainedJob, trained_jobs
from repro.runtime.jobmanager import JobManager, run_to_completion
from repro.simkit.events import Simulator
from repro.simkit.random import RngRegistry, derive_seed

SAMPLE_SECONDS = 60.0
#: The fixed guarantee every indicator run holds.
ALLOCATION = 40


def sample_fraction_timeline(
    tj: TrainedJob, *, seed: int
) -> Tuple[List[Tuple[float, Dict[str, float]]], float]:
    """Run the job once at the fixed guarantee, sampling stage fractions."""
    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(), rng=RngRegistry(seed))
    manager = JobManager(
        cluster,
        tj.graph,
        tj.generated.profile,
        initial_allocation=ALLOCATION,
        rng=RngRegistry(seed).stream("indicator-run"),
    )
    samples: List[Tuple[float, Dict[str, float]]] = []

    def probe() -> None:
        if not manager.finished:
            samples.append((sim.now, dict(manager.snapshot().stage_fractions)))

    probe()
    sim.schedule_every(SAMPLE_SECONDS, probe)
    trace = run_to_completion(manager)
    return samples, trace.duration


def indicator_quality(
    tj: TrainedJob,
    kind: str,
    samples: List[Tuple[float, Dict[str, float]]],
    duration: float,
) -> Tuple[float, float, List[float], List[float]]:
    """(avg △T, longest constant interval, progress series, T_t series)."""
    indicator = tj.indicator_named(kind)
    table = tj.table_for_indicator(kind)
    progress = [indicator.progress(f) for _t, f in samples]
    estimates = [
        t + table.remaining(p, ALLOCATION, q=0.9)
        for (t, _f), p in zip(samples, progress)
    ]
    deltas = [abs(b - a) for a, b in zip(estimates, estimates[1:])]
    avg_delta = float(np.mean(deltas)) / duration if deltas else 0.0
    longest = 0
    run_length = 0
    for a, b in zip(progress, progress[1:]):
        if abs(b - a) < 1e-9:
            run_length += 1
            longest = max(longest, run_length)
        else:
            run_length = 0
    longest_interval = longest * SAMPLE_SECONDS / duration
    return avg_delta, longest_interval, progress, estimates


def run(scale: Scale = DEFAULT, *, seed: int = 0):
    jobs = trained_jobs(seed=seed, scale=scale)
    # One run per job, read by all six indicators; Fig. 9 plots the focus
    # job's run, which is also its Fig. 10 row.
    timelines = {
        name: sample_fraction_timeline(tj, seed=derive_seed(seed, f"indicators:{name}"))
        for name, tj in jobs.items()
    }
    focus_name = "G" if "G" in scale.jobs else scale.jobs[-1]
    focus = jobs[focus_name]
    samples, duration = timelines[focus_name]

    # Fig. 9: time series for totalworkWithQ vs CP on the focus job.
    fig9 = ExperimentReport(
        experiment_id="fig9",
        title=f"Progress and estimated completion for job {focus_name} "
        f"(fixed {ALLOCATION} tokens)",
    )
    for kind in ("totalworkWithQ", "cp"):
        _d, _l, progress, estimates = indicator_quality(focus, kind, samples, duration)
        fig9.add_section(
            f"  {kind:<16} progress  {sparkline(progress)}\n"
            f"  {kind:<16} est. T_t  {sparkline(estimates)}  "
            f"(min {min(estimates)/60:.0f}m max {max(estimates)/60:.0f}m, "
            f"actual {duration/60:.0f}m)"
        )
    fig9.add_note(
        "paper: the CP indicator gets stuck mid-run, inflating T_t; "
        "totalworkWithQ increments smoothly"
    )

    # Fig. 10: quality metrics across jobs and all six indicators.
    fig10 = ExperimentReport(
        experiment_id="fig10",
        title="Progress indicator comparison",
        headers=["indicator", "avg dT [%]", "longest constant interval [%]"],
    )
    per_indicator: Dict[str, List[Tuple[float, float]]] = {
        k: [] for k in INDICATOR_NAMES
    }
    for name, tj in jobs.items():
        for kind in INDICATOR_NAMES:
            d, l, _p, _e = indicator_quality(tj, kind, *timelines[name])
            per_indicator[kind].append((d, l))
    for kind in INDICATOR_NAMES:
        pairs = per_indicator[kind]
        fig10.add_row(
            kind,
            100.0 * float(np.mean([d for d, _l in pairs])),
            100.0 * float(np.mean([l for _d, l in pairs])),
        )
    # Scorecards generalize Fig. 10: each indicator's completion-time
    # estimates T_t on the focus job become remaining-time predictions
    # (T_t - t), judged against the realized remaining time.
    indicator_cards = []
    for kind in INDICATOR_NAMES:
        _d, _l, _p, estimates = indicator_quality(focus, kind, samples, duration)
        indicator_cards.append(Scorecard.from_predictions(
            kind,
            [(t, est - t) for (t, _f), est in zip(samples, estimates)],
            duration,
        ))
    section = scorecard_section(
        indicator_cards,
        caption=f"Indicator scorecards on job {focus_name} (remaining-time "
                "error of each indicator's C(p, a) estimate)",
    )
    if section:
        fig10.add_section(section)
    fig10.add_note(
        "paper: totalworkWithQ 2.0%/8.5%; totalwork 2.3%/9.3%; vertexfrac "
        "2.2%/10.1%; cp 3.0%/15.2%; minstage 3.3%/19.9%; minstage-inf "
        "3.9%/26.7%"
    )
    return fig9, fig10
