"""Live-service submission latency and sustained admission throughput.

Every submission is one HTTP round trip through the market front door:
parse, model lookup, market sizing, admission verdict, first prediction.
This bench drives an in-process arbiter (no workers — jobs queue or run
idle; only the submit path is measured) with a tiny injected template so
no training happens inside the measurement window.

The digest (``results/bench_service_submit.json``) is schema-stamped via
the shared ``write_digest`` so the perf observatory can track both the
round-trip quantiles and the sustained submissions/sec.
"""

import pathlib
import time

from repro.jobs.dag import Edge, EdgeType, JobGraph, Stage
from repro.jobs.profiles import JobProfile, StageProfile
from repro.perf.digest import write_digest
from repro.service.client import ServiceClient
from repro.service.models import TemplateModelStore
from repro.service.server import ClusterService, ServiceConfig
from repro.simkit.distributions import Constant

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"
DIGEST_PATH = RESULTS_DIR / "bench_service_submit.json"

SUBMISSIONS = 100
#: Loose CI bars: a submit round trip on loopback should be a few
#: milliseconds; these only catch order-of-magnitude regressions.
P95_BUDGET_SECONDS = 0.25
RATE_FLOOR_PER_SEC = 20.0


def build_service() -> ClusterService:
    graph = JobGraph(
        "bench",
        [Stage("map", 6), Stage("reduce", 2)],
        [Edge("map", "reduce", EdgeType.ALL_TO_ALL)],
    )
    profile = JobProfile(
        graph,
        {
            "map": StageProfile("map", runtime=Constant(30.0)),
            "reduce": StageProfile("reduce", runtime=Constant(20.0)),
        },
    )
    store = TemplateModelStore(seed=0)
    store.add("bench", graph, profile, None)
    config = ServiceConfig(capacity_tokens=10_000, time_scale=0.01)
    return ClusterService(config, store=store)


def quantile(samples, q):
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(q * len(ordered)))
    return ordered[index]


def test_submit_round_trip_and_sustained_rate():
    service = build_service()
    service.start()
    client = ServiceClient(service.url)
    try:
        # One warm-up submission outside the window (template sizing,
        # first-response plumbing).
        client.submit(
            template="bench", deadline_minutes=600.0, policy="jockey-no-sim"
        )

        latencies = []
        outcomes = {"running": 0, "queued": 0, "rejected": 0}
        window_start = time.perf_counter()
        for _ in range(SUBMISSIONS):
            start = time.perf_counter()
            reply = client.submit(
                template="bench",
                deadline_minutes=600.0,
                policy="jockey-no-sim",
            )
            latencies.append(time.perf_counter() - start)
            outcomes[reply["status"]] += 1
        window = time.perf_counter() - window_start
    finally:
        client.close()
        service.stop(drain=False)

    rate = SUBMISSIONS / window
    payload = {
        "benchmark": "service_submit",
        "submissions": SUBMISSIONS,
        "admitted": outcomes["running"] + outcomes["queued"],
        "rejected": outcomes["rejected"],
        "p50_seconds": round(quantile(latencies, 0.50), 6),
        "p95_seconds": round(quantile(latencies, 0.95), 6),
        "max_seconds": round(max(latencies), 6),
        "window_seconds": round(window, 6),
        "submissions_per_sec": round(rate, 2),
        "p95_budget_seconds": P95_BUDGET_SECONDS,
        "rate_floor_per_sec": RATE_FLOOR_PER_SEC,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    stamped = write_digest(DIGEST_PATH, payload)
    assert stamped["schema_version"] >= 1

    print(
        f"\nservice submit x{SUBMISSIONS}: p50 "
        f"{payload['p50_seconds'] * 1000:.1f}ms, p95 "
        f"{payload['p95_seconds'] * 1000:.1f}ms, sustained "
        f"{payload['submissions_per_sec']:.0f}/s"
    )

    # Every submission must get a verdict (the front door never drops).
    assert sum(outcomes.values()) == SUBMISSIONS
    assert payload["p95_seconds"] < P95_BUDGET_SECONDS
    assert rate > RATE_FLOOR_PER_SEC
