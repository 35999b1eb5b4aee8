"""Synthetic inter-job dependency traces (paper §2.5, Fig. 1).

The paper mines three days of production Cosmos history to show that job
outputs fan out widely: the median job's output (transitively) feeds >10
other jobs, directly dependent jobs start a median of 10 minutes later,
dependency chains are long, and many cross business groups.  We cannot
access that history, so this module generates a statistically similar
trace from a two-tier model of how production pipelines are organized:

* **feed jobs** publish popular datasets (clickstreams, indices); their
  consumer counts are heavy-tailed;
* **derived chains** hang off one or two feeds: sequences of jobs where
  each consumes its predecessor's output, starting a lognormal gap
  (median ~10 minutes) after the input finishes.  Chains mostly stay in
  one business group but sometimes cross.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.simkit.random import RngRegistry


@dataclass(frozen=True)
class PipelineJob:
    """One job occurrence in the trace."""

    job_id: int
    group: str
    start_time: float  # seconds since trace start
    end_time: float
    inputs: Tuple[int, ...] = ()

    def __post_init__(self):
        if self.end_time < self.start_time:
            raise ValueError(f"job {self.job_id}: end before start")


@dataclass
class PipelineTrace:
    """A set of jobs plus their dependency edges."""

    jobs: List[PipelineJob] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.jobs)

    def dependents(self) -> Dict[int, List[int]]:
        """job_id -> list of directly dependent job ids."""
        out: Dict[int, List[int]] = {j.job_id: [] for j in self.jobs}
        for job in self.jobs:
            for parent in job.inputs:
                out[parent].append(job.job_id)
        return out

    # ------------------------------------------------------------------
    # Fig. 1 statistics
    # ------------------------------------------------------------------

    def dependency_gaps_minutes(self) -> List[float]:
        """For each dependency edge: minutes between the producer finishing
        and the consumer starting (clamped at zero)."""
        by_id = {j.job_id: j for j in self.jobs}
        gaps = []
        for job in self.jobs:
            for parent_id in job.inputs:
                gap = (job.start_time - by_id[parent_id].end_time) / 60.0
                gaps.append(max(0.0, gap))
        return gaps

    def _reverse_reachability(self, value_of) -> Dict[int, set]:
        """For each job: the set of ``value_of(descendant)`` over all
        transitive dependents.  Jobs only depend on earlier jobs, so one
        reverse pass over ids suffices."""
        children = self.dependents()
        reach: Dict[int, set] = {}
        for job in sorted(self.jobs, key=lambda j: j.job_id, reverse=True):
            acc: set = set()
            for child in children[job.job_id]:
                acc.add(value_of(child))
                acc |= reach.get(child, set())
            reach[job.job_id] = acc
        return reach

    def indirect_dependents(self) -> Dict[int, int]:
        """job_id -> number of jobs (transitively) using its output, for
        jobs with at least one direct dependent (the paper's population)."""
        children = self.dependents()
        reach = self._reverse_reachability(lambda child: child)
        return {jid: len(acc) for jid, acc in reach.items() if children[jid]}

    def dependent_groups(self) -> Dict[int, int]:
        """job_id -> number of distinct business groups among transitive
        dependents (for jobs that have dependents)."""
        by_id = {j.job_id: j for j in self.jobs}
        children = self.dependents()
        reach = self._reverse_reachability(lambda child: by_id[child].group)
        return {jid: len(acc) for jid, acc in reach.items() if children[jid]}

    def chain_lengths(self) -> List[int]:
        """Longest dependency chain (in jobs) from each root job that has
        at least one dependent."""
        children = self.dependents()
        depth: Dict[int, int] = {}
        for job in sorted(self.jobs, key=lambda j: j.job_id, reverse=True):
            kids = children[job.job_id]
            depth[job.job_id] = 1 + max((depth[k] for k in kids), default=0)
        return [
            depth[j.job_id]
            for j in self.jobs
            if not j.inputs and children[j.job_id]
        ]


def generate_pipeline_trace(
    *,
    seed: int = 0,
    num_jobs: int = 3000,
    num_groups: int = 20,
    window_hours: float = 72.0,
    feed_fraction: float = 0.08,
    mean_chain_length: float = 6.0,
    branch_prob: float = 0.2,
    cross_group_prob: float = 0.15,
    gap_median_minutes: float = 10.0,
    gap_sigma: float = 1.1,
) -> PipelineTrace:
    """Generate a synthetic dependency trace (see module docstring).

    ``branch_prob`` is the chance each chain job spawns an extra sibling
    consumer of the same input, thickening fan-out below the feeds.
    """
    if num_jobs < 2:
        raise ValueError("need at least two jobs")
    if not 0 < feed_fraction < 1:
        raise ValueError("feed_fraction must be in (0, 1)")
    rng = RngRegistry(seed).stream("pipelines")
    window = window_hours * 3600.0
    group_names = [f"group{g:02d}" for g in range(num_groups)]
    trace = PipelineTrace()
    feed_ids: List[int] = []
    feed_weights: List[float] = []

    def add_job(group: str, start: float, inputs: Tuple[int, ...]) -> PipelineJob:
        duration = float(rng.lognormal(math.log(20 * 60), 0.8))  # ~20-min jobs
        job = PipelineJob(
            job_id=len(trace.jobs),
            group=group,
            start_time=start,
            end_time=start + duration,
            inputs=inputs,
        )
        trace.jobs.append(job)
        return job

    def sample_gap() -> float:
        return float(rng.lognormal(math.log(gap_median_minutes * 60), gap_sigma))

    # Seed feeds across the window; popularity weights are heavy-tailed.
    num_feeds = max(1, int(num_jobs * feed_fraction))
    for _ in range(num_feeds):
        group = group_names[int(rng.integers(0, num_groups))]
        job = add_job(group, float(rng.uniform(0, window * 0.8)), ())
        feed_ids.append(job.job_id)
        feed_weights.append(float(rng.pareto(1.2) + 0.3))

    weights = np.asarray(feed_weights)
    weights = weights / weights.sum()
    by_id = lambda jid: trace.jobs[jid]

    # Derived work: trees of chains hanging off the feeds.  A stack entry is
    # (input ids, jobs left in this chain, group).
    pending: List[Tuple[Tuple[int, ...], int, str]] = []

    def chain_length(mean: float) -> int:
        return 1 + int(rng.geometric(1.0 / mean))

    while len(trace.jobs) < num_jobs:
        if not pending:
            # Root a new chain at one (sometimes two) feeds, weighted by
            # feed popularity.
            fan_in = 2 if rng.random() < 0.2 and len(feed_ids) > 1 else 1
            parents = tuple(
                sorted(set(int(p) for p in rng.choice(feed_ids, size=fan_in, p=weights)))
            )
            group = by_id(parents[0]).group
            pending.append((parents, chain_length(mean_chain_length), group))
        inputs, length, group = pending.pop()
        if rng.random() < cross_group_prob:
            group = group_names[int(rng.integers(0, num_groups))]
        start = max(by_id(p).end_time for p in inputs) + sample_gap()
        job = add_job(group, start, inputs)
        if length > 1:
            pending.append(((job.job_id,), length - 1, group))
        # Sub-pipelines fork off mid-chain outputs.
        if rng.random() < branch_prob:
            pending.append(((job.job_id,), chain_length(2.0), group))
    return trace


__all__ = ["PipelineJob", "PipelineTrace", "generate_pipeline_trace"]
