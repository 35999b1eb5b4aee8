"""Co-executing multiple SLO jobs in one cluster (paper §1/§4.4).

The paper's Jockey makes *local* decisions per job and leaves the global
layer as future work: "doing so requires an additional inter-job arbiter
that dynamically shifts resources from jobs with low expected marginal
utility to those with high expected marginal utility."  This module runs
several SLO jobs simultaneously on one simulated cluster under two
coordination modes:

* ``independent`` — each job runs its own Jockey control loop; the token
  pool clamps requests first-come-first-served when the guaranteed slice
  runs out (what deploying unmodified Jockey per-job would do);
* ``arbiter`` — each control period every live job bids its marginal
  utility per token, read off its own controller's candidate scan
  (:meth:`repro.core.control.JockeyController.candidates`), and one
  :meth:`repro.market.arbiter.MarketArbiter.clear` splits the slice
  (:func:`split_slice`) — the same clearing the token market runs over
  thousands of jobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.cluster import Cluster, ClusterConfig
from repro.core.control import ControlConfig
from repro.experiments.metrics import RunMetrics, metrics_from_trace
from repro.experiments.runner import MAX_VIRTUAL_SECONDS, make_policy
from repro.experiments.scenarios import TrainedJob
from repro.market.arbiter import Bid, MarketArbiter, concave_marginals
from repro.runtime.jobmanager import JobManager
from repro.simkit.events import Simulator
from repro.simkit.random import RngRegistry
from repro.telemetry.audit import CandidateEval, apply_hysteresis, quantize_allocation

COORDINATION_MODES = ("independent", "arbiter")


def split_slice(
    curves: Mapping[str, Sequence[CandidateEval]], slice_tokens: int
) -> Dict[str, int]:
    """Split ``slice_tokens`` across jobs to maximize summed utility.

    ``curves`` maps each job to its controller's candidates (allocations
    ascending, each with its utility).  Every job first receives its first
    grid point; each then bids the utility gained by every further token,
    its utility linearly interpolated between grid points, and one
    :meth:`MarketArbiter.clear` grants the best tokens (ties go to the
    smaller job name).  Tokens nobody gains from stay unallocated.
    """
    floors = {job: candidates[0].allocation for job, candidates in curves.items()}
    supply = slice_tokens - sum(floors.values())
    if supply < 0:
        raise ValueError(
            f"{slice_tokens} tokens cannot cover {len(curves)} jobs at their "
            f"grid floors {floors}"
        )
    bids = []
    for job, candidates in curves.items():
        grid = [c.allocation for c in candidates]
        tokens = np.arange(grid[0], min(grid[-1], grid[0] + supply) + 1)
        curve = np.interp(tokens, grid, [c.utility for c in candidates])
        marginals = concave_marginals(curve[1:], curve[0])
        # A token that gains nothing ends the schedule (the clamp carries
        # the zero to every later token): a job that already meets its
        # deadline leaves the rest of the slice to the others.
        marginals[marginals <= 1e-12] = 0.0
        bids.append(Bid(job, "slice", tuple(marginals.tolist())))
    grants = MarketArbiter().clear(bids, supply).grants
    return {bid.job: floors[bid.job] + grants.get(bid.job, 0) for bid in bids}


@dataclass
class MultiJobResult:
    """Outcome of one co-execution run."""

    mode: str
    per_job: Dict[str, RunMetrics] = field(default_factory=dict)
    #: (minute, {job: allocation}) samples.
    allocation_series: List[Tuple[float, Dict[str, int]]] = field(
        default_factory=list
    )

    @property
    def jobs_missed(self) -> int:
        return sum(1 for m in self.per_job.values() if not m.met_deadline)

    @property
    def worst_relative_latency(self) -> float:
        return max(m.relative_latency for m in self.per_job.values())


def run_multi_job(
    jobs: Sequence[TrainedJob],
    *,
    mode: str = "arbiter",
    seed: int = 0,
    slice_tokens: int = 100,
    runtime_scales: Optional[Dict[str, float]] = None,
    control_period: float = 60.0,
    cluster_config: ClusterConfig = ClusterConfig(),
    deadline_factor: float = 1.0,
) -> MultiJobResult:
    """Run every job in ``jobs`` simultaneously against its own short
    deadline (scaled by ``deadline_factor``) in one shared cluster."""
    if mode not in COORDINATION_MODES:
        raise ValueError(f"mode must be one of {COORDINATION_MODES}")
    if not jobs:
        raise ValueError("need at least one job")
    names = [t.name for t in jobs]
    if len(set(names)) != len(names):
        raise ValueError("duplicate job names")
    runtime_scales = runtime_scales or {}

    rng = RngRegistry(seed)
    sim = Simulator()
    cluster = Cluster(sim, cluster_config, rng=rng.spawn("cluster"))

    managers: Dict[str, JobManager] = {}
    policies = {}
    deadlines: Dict[str, float] = {}
    smoothed: Dict[str, float] = {}
    control = ControlConfig(max_tokens=slice_tokens)

    def halt_after_last(_done: JobManager) -> None:
        if all(m.finished for m in managers.values()):
            sim.halt()

    for trained in jobs:
        deadline = trained.short_deadline * deadline_factor
        deadlines[trained.name] = deadline
        policies[trained.name] = make_policy(
            "jockey", trained, deadline, control=control
        )
    if mode == "arbiter":
        # Every tick grants each job its grid floor first (split_slice).
        floors = {n: p.controller.grid[0] for n, p in policies.items()}
        if sum(floors.values()) > slice_tokens:
            raise ValueError(
                f"slice_tokens {slice_tokens} cannot cover {len(jobs)} jobs "
                f"at their grid floors {floors}"
            )

    for trained in jobs:
        policy = policies[trained.name]
        behavior = trained.generated.profile.with_runtime_scale(
            runtime_scales.get(trained.name, 1.0)
        )
        # Admission caps each job's starting reservation at an equal share
        # of the slice, so the initial guarantees never over-commit it; a
        # job can never later be pushed below what it already holds (the
        # pool only clamps *increases*), so nobody starves outright.
        initial = min(policy.initial_allocation(), slice_tokens // len(jobs))
        managers[trained.name] = JobManager(
            cluster,
            trained.graph,
            behavior,
            name=f"slo:{trained.name}",
            initial_allocation=max(initial, 1),
            rng=rng.stream(f"job:{trained.name}"),
            deadline=deadlines[trained.name],
            on_complete=halt_after_last,
        )

    result = MultiJobResult(mode=mode)

    def tick() -> None:
        live = [t for t in jobs if not managers[t.name].finished]
        if not live:
            return
        if mode == "independent":
            for trained in live:
                manager = managers[trained.name]
                allocation = policies[trained.name].on_tick(manager.snapshot())
                if allocation is not None:
                    manager.set_allocation(allocation)
        else:
            curves = {}
            for trained in live:
                snapshot = managers[trained.name].snapshot()
                curves[trained.name] = policies[trained.name].controller.candidates(
                    snapshot.stage_fractions, snapshot.elapsed
                )
            split = split_slice(curves, slice_tokens)
            # The per-job loop's smoothing chain (§4.3): the raw arbiter
            # split thrashes on noisy progress otherwise.
            targets = {}
            for trained in live:
                name = trained.name
                smoothed[name] = apply_hysteresis(
                    smoothed.get(name, float(managers[name].allocation)),
                    split[name],
                    control.hysteresis,
                )
                targets[name] = quantize_allocation(
                    smoothed[name], control.min_tokens, control.max_tokens
                )
            # Never exceed the slice after rounding.
            while sum(targets.values()) > slice_tokens:
                biggest = max(targets, key=targets.get)
                targets[biggest] -= 1
            # Apply releases before grabs so transient clamping by the
            # pool's guaranteed headroom never blocks a reassignment.
            ordered = sorted(
                live,
                key=lambda t: targets[t.name] - managers[t.name].allocation,
            )
            for trained in ordered:
                managers[trained.name].set_allocation(targets[trained.name])
        result.allocation_series.append(
            (
                sim.now / 60.0,
                {t.name: managers[t.name].allocation for t in live},
            )
        )

    sim.schedule_every(control_period, tick)

    # One dispatch loop, halted by whichever manager completes last.
    sim.run(until=MAX_VIRTUAL_SECONDS)
    unfinished = [n for n, m in managers.items() if not m.finished]
    if unfinished:
        raise RuntimeError(f"jobs did not finish: {unfinished}")

    for trained in jobs:
        trace = managers[trained.name].trace
        result.per_job[trained.name] = metrics_from_trace(
            trace, policy=f"multi-{mode}"
        )
    return result


__all__ = [
    "COORDINATION_MODES",
    "MultiJobResult",
    "run_multi_job",
    "split_slice",
]
