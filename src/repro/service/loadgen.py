"""Seeded open-loop load generator for the live service.

The batch fleet driver replays template workloads inside the simulator;
this module replays them against a *live* arbiter.  The workload itself
— arrival offsets, per-job deadline factors, template choice — is drawn
from a seeded RNG before any request is sent, so two runs with the same
seed submit byte-identical workloads (the digest records the
fingerprint to prove it).  Wall-clock timing is *not* deterministic and
the digest treats it as measurement: attainment and latency fields are
tolerance-banded observations, never part of the fingerprint.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.perf.digest import write_digest
from repro.service.client import ServiceClient, ServiceClientError
from repro.settable import Amount, Count, NonNegative, Positive, check, refuse
from repro.simkit.random import derive_seed

#: Digest kind stamped into every loadgen attainment digest.
DIGEST_KIND = "service_loadgen"


class LoadgenError(RuntimeError):
    """Raised when the load generator cannot run its plan."""


@dataclass(frozen=True)
class LoadgenConfig:
    """One load-generation campaign against one arbiter."""

    jobs: Count = 20
    seed: Amount = 0
    templates: Tuple[str, ...] = ("mapreduce",)
    tenant: str = "default"
    policy: str = "jockey"
    #: Mean inter-arrival gap in *virtual* seconds (exponential draws).
    #: At the default rate roughly two jobs overlap, so the arbiter is
    #: busy but keeps adaptation headroom below its token capacity; 0
    #: submits every job in one burst.
    mean_interarrival: NonNegative = 180.0
    #: Per-job deadline = factor * the template's min feasible duration;
    #: factors drawn uniformly from this range.  Keep the lower bound
    #: comfortably above 1.0 so the workload is admissible by design,
    #: with headroom for queueing delay and live-execution overhead the
    #: simulation-trained model cannot see.
    deadline_factors: Tuple[float, float] = (3.0, 6.0)
    #: Wall-clock budget for the whole campaign (submit + drain).
    timeout: Positive = 300.0

    def __post_init__(self):
        check(self, LoadgenError)
        if not self.templates:
            raise LoadgenError("need at least one template")
        lo, hi = self.deadline_factors
        if not 1.0 <= lo <= hi:
            refuse(self, "deadline_factors", "(lo, hi) with 1 <= lo <= hi", LoadgenError)


@dataclass(frozen=True)
class SubmitPlan:
    """One planned submission (fully determined by the seed)."""

    name: str
    template: str
    offset_seconds: float      # virtual seconds after campaign start
    deadline_factor: float


def generate_workload(config: LoadgenConfig) -> List[SubmitPlan]:
    """The deterministic part: same seed, same plan, always."""
    rng = np.random.default_rng(derive_seed(config.seed, "service-loadgen"))
    offset = 0.0
    plans: List[SubmitPlan] = []
    lo, hi = config.deadline_factors
    for i in range(config.jobs):
        if i > 0 and config.mean_interarrival > 0:
            offset += float(rng.exponential(config.mean_interarrival))
        template = config.templates[int(rng.integers(len(config.templates)))]
        factor = float(rng.uniform(lo, hi))
        plans.append(SubmitPlan(
            name=f"lg-{config.seed}-{i:04d}",
            template=template,
            offset_seconds=offset,
            deadline_factor=factor,
        ))
    return plans


def workload_fingerprint(plans: List[SubmitPlan]) -> str:
    """Stable hash of the planned workload (proves determinism)."""
    doc = [
        {
            "name": p.name,
            "template": p.template,
            "offset_seconds": round(p.offset_seconds, 6),
            "deadline_factor": round(p.deadline_factor, 6),
        }
        for p in plans
    ]
    payload = json.dumps(doc, sort_keys=True).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def _percentile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


def run_loadgen(
    url: str,
    config: LoadgenConfig = LoadgenConfig(),
    *,
    out: Optional[str] = None,
    client: Optional[ServiceClient] = None,
    progress=None,
) -> Dict:
    """Replay the seeded workload against ``url``; return (and optionally
    write) the attainment digest."""
    if client is None:
        with ServiceClient(url) as owned:
            return run_loadgen(
                url, config, out=out, client=owned, progress=progress
            )
    say = progress if progress is not None else (lambda msg: None)

    health = client.healthz()
    time_scale = float(health.get("time_scale", 1.0))

    # Sizing per template (this also warms the server's model store).
    feasible: Dict[str, float] = {}
    for template in sorted(set(config.templates)):
        info = client.template_info(template)
        feasible[template] = float(info["min_feasible_seconds"])
        say(f"template {template}: min feasible "
            f"{feasible[template]:.0f}s virtual")

    plans = generate_workload(config)
    fingerprint = workload_fingerprint(plans)
    say(f"submitting {len(plans)} jobs "
        f"(seed {config.seed}, fingerprint {fingerprint[:12]})")

    started_wall = time.monotonic()
    submit_latency_ms: List[float] = []
    submitted: List[Tuple[SubmitPlan, Dict]] = []
    for plan in plans:
        # Open loop: pace arrivals on the virtual axis regardless of how
        # fast the service absorbs them.
        target_wall = started_wall + plan.offset_seconds * time_scale
        delay = target_wall - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        deadline_minutes = (
            plan.deadline_factor * feasible[plan.template] / 60.0
        )
        t0 = time.monotonic()
        try:
            reply = client.submit(
                template=plan.template,
                deadline_minutes=deadline_minutes,
                tenant=config.tenant,
                policy=config.policy,
                name=plan.name,
            )
        except ServiceClientError as exc:
            raise LoadgenError(
                f"submit of {plan.name!r} failed: {exc}"
            ) from exc
        submit_latency_ms.append((time.monotonic() - t0) * 1000.0)
        submitted.append((plan, reply))

    statuses = [reply["status"] for _, reply in submitted]
    open_ids = [
        reply["job_id"]
        for _, reply in submitted
        if reply["status"] in ("running", "queued")
    ]
    say(f"submitted {len(submitted)}: "
        f"{statuses.count('running')} running, "
        f"{statuses.count('queued')} queued, "
        f"{statuses.count('rejected')} rejected; draining...")

    spent = time.monotonic() - started_wall
    finals = client.wait_all(
        open_ids, timeout=max(5.0, config.timeout - spent)
    )

    completed = sum(1 for f in finals.values() if f["status"] == "completed")
    failed = sum(1 for f in finals.values() if f["status"] == "failed")
    late_rejected = sum(
        1 for f in finals.values() if f["status"] == "rejected"
    )
    met = sum(1 for f in finals.values() if f.get("met_deadline"))
    rejected = statuses.count("rejected") + late_rejected
    wall_seconds = time.monotonic() - started_wall

    digest = {
        "kind": DIGEST_KIND,
        "seed": config.seed,
        "templates": sorted(set(config.templates)),
        "tenant": config.tenant,
        "policy": config.policy,
        "workload_fingerprint": fingerprint,
        "jobs": config.jobs,
        "admitted": statuses.count("running") + statuses.count("queued")
        - late_rejected,
        "rejected": rejected,
        "completed": completed,
        "failed": failed,
        "met_deadline": met,
        "attainment": round(met / config.jobs, 6),
        "submit_latency_ms": {
            "p50": round(_percentile(submit_latency_ms, 50), 3),
            "p95": round(_percentile(submit_latency_ms, 95), 3),
            "max": round(max(submit_latency_ms), 3),
        },
        "wall_seconds": round(wall_seconds, 3),
        "time_scale": time_scale,
    }
    if out:
        return write_digest(out, digest)
    return digest


__all__ = [
    "DIGEST_KIND",
    "LoadgenConfig",
    "LoadgenError",
    "SubmitPlan",
    "generate_workload",
    "run_loadgen",
    "workload_fingerprint",
]
