"""§2.4 + §3.2: the variance-hypothesis and quota-sizing studies.

Two quantitative claims from the paper's motivation, reproduced:

* **§2.4** — "we compared runs of seven jobs ... with experimental runs
  that were restricted to using guaranteed capacity only — the CoV dropped
  by up to five times."  We run each job repeatedly at a fixed modest
  guarantee, with and without access to spare tokens (inputs held
  constant, so all variance is cluster-induced), and compare CoVs.
* **§3.2** — "the maximum parallelism of one-third of the jobs was less
  than the guaranteed allocation ... one-quarter of the jobs reached more
  than ten times the guaranteed allocation thanks to the spare capacity."
  We measure max achieved parallelism vs guarantee over a population of
  jobs with user-chosen (i.e. badly chosen) static quotas.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.cluster import Cluster, ClusterConfig
from repro.experiments.metrics import coefficient_of_variation
from repro.experiments.reporting import ExperimentReport
from repro.experiments.scenarios import DEFAULT, Scale, trained_jobs
from repro.jobs.workloads import random_job
from repro.runtime.jobmanager import JobManager, run_to_completion
from repro.simkit.events import Simulator
from repro.simkit.random import RngRegistry, derive_seed


def motivation_cluster_config() -> ClusterConfig:
    """The *pre-Jockey* cluster of §2: jobs with pending tasks soak up
    large, fluctuating amounts of spare capacity (5-80% of vertices ran on
    spare tokens, §2.4) because fewer jobs contend for it."""
    return ClusterConfig(
        background_mean_demand=390.0,
        background_min_demand=240,
        background_volatility=0.28,
        spare_soaker_weight=30.0,
    )


def _run_once(generated, *, guarantee: int, seed: int, use_spare: bool) -> float:
    sim = Simulator()
    cluster = Cluster(sim, motivation_cluster_config(), rng=RngRegistry(seed))
    manager = JobManager(
        cluster,
        generated.graph,
        generated.profile,
        initial_allocation=guarantee,
        rng=RngRegistry(seed).stream("sec24"),
        use_spare_tokens=use_spare,
    )
    return run_to_completion(manager).duration


#: §2.4's fixed, modest guarantee for every run.
GUARANTEE = 30


def run_spare_variance(scale: Scale = DEFAULT, *, seed: int = 0) -> ExperimentReport:
    """§2.4: CoV with spare tokens vs guaranteed-capacity-only."""
    reps = 4 if scale.name == "smoke" else 6
    report = ExperimentReport(
        experiment_id="sec2.4-spare-variance",
        title="CoV of completion time: spare tokens allowed vs guaranteed only",
        headers=["job", "CoV with spare", "CoV guaranteed-only", "ratio"],
    )
    jobs = trained_jobs(seed=seed, scale=scale)
    ratios = []
    for name, tj in jobs.items():
        durations: Dict[bool, List[float]] = {True: [], False: []}
        for use_spare in (True, False):
            for rep in range(reps):
                run_seed = derive_seed(seed, f"{name}:{rep}")
                durations[use_spare].append(
                    _run_once(
                        tj.generated,
                        guarantee=GUARANTEE,
                        seed=run_seed,
                        use_spare=use_spare,
                    )
                )
        cov_spare = coefficient_of_variation(durations[True])
        cov_guaranteed = coefficient_of_variation(durations[False])
        ratio = cov_spare / max(cov_guaranteed, 1e-9)
        ratios.append(ratio)
        report.add_row(name, cov_spare, cov_guaranteed, ratio)
    report.add_note(
        f"mean ratio {float(np.mean(ratios)):.1f}x; paper: restricting the "
        f"same jobs to guaranteed capacity cut the CoV by up to 5x (§2.4)"
    )
    return report


def run_quota_sizing(scale: Scale = DEFAULT, *, seed: int = 0) -> ExperimentReport:
    """§3.2: how badly do static user quotas match achieved parallelism?"""
    num_jobs = 10 if scale.name == "smoke" else 30
    rng = RngRegistry(seed).stream("quota-sizing")
    over_provisioned = 0   # max parallelism < guarantee
    huge_boost = 0         # max parallelism > 10x guarantee
    for j in range(num_jobs):
        generated = random_job(
            f"quota{j:02d}",
            seed=derive_seed(seed, f"quota{j}"),
            num_vertices=int(rng.lognormal(np.log(250), 1.0)) + 10,
        )
        # Users size quotas badly (§3.2): log-uniform, unrelated to need.
        guarantee = int(np.exp(rng.uniform(np.log(2), np.log(80))))
        run_rng = RngRegistry(derive_seed(seed, f"quota-run{j}"))
        sim = Simulator()
        cluster = Cluster(sim, motivation_cluster_config(), rng=run_rng)
        # Pre-Jockey Cosmos split spare per pending job, not by quota
        # (§2.1 prescribes no weighting) — small-quota jobs could surge.
        manager = JobManager(
            cluster, generated.graph, generated.profile,
            initial_allocation=guarantee,
            rng=run_rng.stream("quota-job"),
            spare_weight=30.0,
        )
        trace = run_to_completion(manager)
        max_parallelism = max(r for _t, r in trace.running_timeline)
        if max_parallelism < guarantee:
            over_provisioned += 1
        if max_parallelism > 10 * guarantee:
            huge_boost += 1
    report = ExperimentReport(
        experiment_id="sec3.2-quota-sizing",
        title="Static quotas vs achieved parallelism",
        headers=["statistic", "measured [%]", "paper [%]"],
    )
    report.add_row(
        "max parallelism below guarantee",
        100.0 * over_provisioned / num_jobs,
        "~33",
    )
    report.add_row(
        "max parallelism > 10x guarantee",
        100.0 * huge_boost / num_jobs,
        "~25",
    )
    report.add_note(
        f"{num_jobs} jobs with log-uniform user quotas on the shared cluster"
    )
    return report


def run(scale: Scale = DEFAULT, *, seed: int = 0):
    return run_spare_variance(scale, seed=seed), run_quota_sizing(scale, seed=seed)
