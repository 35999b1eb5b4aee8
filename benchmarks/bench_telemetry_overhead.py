"""Telemetry overhead benchmark: recorder-on vs recorder-off.

The acceptance bar for the instrumentation is that tracing changes the
end-to-end ``repro run`` wall time by less than 5%.  We reproduce the
quickstart pipeline — train a MapReduce-shaped job, build its C(p, a)
table, then control live runs against a deadline — and time the controlled
run (what ``repro run`` executes) with and without a recorder installed.
Machine noise between individual runs (CPU frequency drift, scheduler)
spans several percent, so runs are interleaved in off/on pairs and the
asserted statistic is the *median of pairwise deltas* — robust to the
correlated drift that min-of-N cannot remove.
"""

import gc
import statistics
import time

from repro.cluster import Cluster, ClusterConfig
from repro.core.control import ControlConfig
from repro.core.cpa import CpaTable
from repro.core.policies import build_policy
from repro.core.progress import totalwork_with_q
from repro.core.utility import deadline_utility
from repro.experiments.runner import run_control_loop
from repro.experiments.scenarios import learn_profile, run_training
from repro.jobs.workloads import mapreduce_job
from repro.simkit.events import Simulator
from repro.simkit.random import RngRegistry
from repro.telemetry import trace as telemetry_trace

PAIRS = 21
MAX_OVERHEAD = 0.05
DEADLINE = 3600.0


def _train():
    """The quickstart's training half: profiling run + C(p, a) table."""
    generated = mapreduce_job(num_maps=400, num_reduces=40)
    trace = run_training(generated, seed=4, allocation=50, stream="train")
    learned = learn_profile(generated.graph, trace)
    indicator = totalwork_with_q(learned)
    table = CpaTable.build(
        learned, indicator, RngRegistry(4).stream("cpa"), reps=2
    )
    return generated.graph, learned, indicator, table


GRAPH, LEARNED, INDICATOR, TABLE = _train()


def _controlled_run(seed: int = 2) -> None:
    """What ``repro run --policy jockey`` executes after loading a bundle:
    the shared control loop, seeded the CLI way."""
    control = ControlConfig()
    policy = build_policy(
        "jockey", table=TABLE, indicator=INDICATOR, profile=LEARNED,
        utility=deadline_utility(DEADLINE), control=control,
        max_tokens=control.max_tokens,
    )
    cluster = Cluster(Simulator(), ClusterConfig(), rng=RngRegistry(seed))
    run_control_loop(
        cluster, GRAPH, LEARNED, policy,
        rng=RngRegistry(seed).stream("cli-run"), deadline=DEADLINE,
    )


def test_tracing_overhead_under_five_percent():
    _controlled_run()  # warm imports, allocator, and code paths
    _controlled_run()
    gc.disable()
    try:
        deltas = []
        for _ in range(PAIRS):
            start = time.perf_counter()
            _controlled_run()
            off = time.perf_counter() - start
            with telemetry_trace.capture(capacity=1 << 20):
                start = time.perf_counter()
                _controlled_run()
                on = time.perf_counter() - start
            deltas.append((on - off) / off)
    finally:
        gc.enable()
    overhead = statistics.median(deltas)
    print(f"\ntelemetry overhead: median of {PAIRS} pairwise deltas = "
          f"{overhead * 100:+.2f}% "
          f"(spread {min(deltas) * 100:+.1f}% .. {max(deltas) * 100:+.1f}%)")
    assert overhead < MAX_OVERHEAD, (
        f"traced run {overhead * 100:.1f}% slower than untraced "
        f"(budget {MAX_OVERHEAD * 100:.0f}%)"
    )


def test_disabled_recorder_leaves_no_events():
    assert telemetry_trace.RECORDER is telemetry_trace.NULL
    _controlled_run()
    assert telemetry_trace.RECORDER.events() == []
