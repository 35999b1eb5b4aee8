#!/usr/bin/env python3
"""Surviving an overloaded cluster (paper Fig. 6(a) / Table 3).

The same job is run twice against the same deadline:

* a **calm** run under typical cluster conditions;
* an **overloaded** run: the input is 1.5x heavier than the training run
  *and* background demand surges 25% for the whole window — the conditions
  behind the paper's single missed deadline.

Watch the control loop notice the slow progress and climb the allocation
early in the overloaded run.

Run:  python examples/cluster_overload.py
"""

from repro.cluster import LoadEpisode
from repro.experiments.reporting import sparkline
from repro.experiments.runner import RunConfig, make_policy, run_experiment
from repro.experiments.scenarios import DEFAULT, TRAINING_ALLOCATION, trained_job


def show(title, result, deadline):
    m = result.metrics
    allocations = [a for _t, a in result.allocation_series]
    raw = [v for _t, v in result.raw_series]
    verdict = "MET" if m.met_deadline else "MISSED"
    print(f"\n{title}")
    print(f"  finished {m.duration_seconds / 60:.1f} min of "
          f"{deadline / 60:.0f} min -> {verdict} "
          f"({100 * m.relative_latency:.0f}% of deadline)")
    print(f"  requested allocation {sparkline(allocations)} "
          f"(start {allocations[0]}, peak {max(allocations)})")
    if raw:
        print(f"  raw (pre-hysteresis) {sparkline([float(v) for v in raw])} "
              f"(peak {max(raw)})")
    print(f"  evictions {m.evictions}, task failures {m.failures}, "
          f"{m.spare_fraction:.0%} of tasks on spare tokens")


def main() -> None:
    print("training job F...")
    tj = trained_job("F", seed=0, scale=DEFAULT)
    deadline = tj.short_deadline
    print(f"deadline: {deadline / 60:.0f} min; training run took "
          f"{tj.training_trace.duration / 60:.1f} min at "
          f"{TRAINING_ALLOCATION} tokens")

    calm = run_experiment(
        tj,
        make_policy("jockey", tj, deadline),
        RunConfig(deadline_seconds=deadline, seed=5, runtime_scale=1.0,
                  sample_cluster_day=False),
    )
    show("calm cluster, trained-size input", calm, deadline)

    overloaded = run_experiment(
        tj,
        make_policy("jockey", tj, deadline),
        RunConfig(
            deadline_seconds=deadline,
            seed=6,
            runtime_scale=1.5,
            episodes=(LoadEpisode(0.0, deadline * 2, 1.25),),
            sample_cluster_day=False,
        ),
    )
    show("overloaded cluster, 1.5x-heavy input (jockey)", overloaded, deadline)

    static = run_experiment(
        tj,
        make_policy("jockey-no-adapt", tj, deadline),
        RunConfig(
            deadline_seconds=deadline,
            seed=6,
            runtime_scale=1.5,
            episodes=(LoadEpisode(0.0, deadline * 2, 1.25),),
            sample_cluster_day=False,
        ),
    )
    show("overloaded cluster, static allocation (no adaptation)", static,
         deadline)

    extra = (
        overloaded.metrics.allocation_token_seconds
        - calm.metrics.allocation_token_seconds
    )
    print(f"\nJockey spent {extra / 3600:+.1f} extra token-hours defending "
          f"the SLO under overload.  Like the paper's overloaded 'job 1' "
          f"(Table 3), it can finish a little late when the whole cluster "
          f"degrades — but adaptation caps the damage that a static quota "
          f"cannot.")


if __name__ == "__main__":
    main()
