"""Admission with per-tenant quota enforcement.

The paper's admission question (§1) — does one more SLO job fit once
every admitted job's minimum is reserved? — answered for many tenants at
once under the fluid job model: a queued job's minimum guarantee is the
token count that finishes its remaining work inside its remaining deadline
budget (with the controller's slack), and it is admitted the moment that
guarantee fits under its tenant's quota.  A single guaranteed slice is one
:class:`~repro.market.tenant.Tenant` whose quota is the slice.  What a
job's own C(p, a) table says it needs is
:meth:`repro.core.cpa.CpaTable.min_allocation_for`;
``examples/multi_job_admission.py`` prints the two side by side.

Outcomes per queued job, re-evaluated every tick:

* **admitted** — guarantee reserved, job goes live;
* **queued** — would fit a quiet quota but not right now (the tenant's
  live jobs hold too much); it waits, burning deadline budget;
* **rejected** — can never run: infeasible deadline (needs more tokens
  than its width), guarantee larger than the whole quota, unknown
  tenant, or the deadline passed while it waited.

Telemetry counts every transition so the experiment digests can report
rejection/queueing behavior per tenant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.market.tenant import JobSpec, MarketError, MarketJob, Tenant
from repro.telemetry import metrics as _metrics

_REJECTED_TOTAL = _metrics.REGISTRY.counter(
    "repro_market_rejected_total",
    "Jobs rejected by market admission",
    labelnames=("reason",),
)
#: The counter cells, resolved once: a queued spec is re-decided on every
#: tick, so the hot path is one attribute call.
_ADMITTED = _metrics.REGISTRY.counter(
    "repro_market_admitted_total", "Jobs admitted to the token market"
).labels()
_REJECTED = {
    reason: _REJECTED_TOTAL.labels(reason=reason)
    for reason in ("deadline_passed", "infeasible_width", "exceeds_quota")
}
_QUEUE_WAITS = _metrics.REGISTRY.counter(
    "repro_market_queue_waits_total",
    "Job-ticks spent waiting in tenant admission queues",
).labels()


@dataclass
class AdmissionStats:
    """Aggregate admission telemetry for one market run."""

    admitted: int = 0
    rejected: int = 0
    queue_waits: int = 0
    rejected_reasons: Dict[str, int] = field(default_factory=dict)

    def reject(self, reason: str) -> None:
        self.rejected += 1
        self.rejected_reasons[reason] = (
            self.rejected_reasons.get(reason, 0) + 1
        )


class MarketAdmission:
    """Turns queued job specs into guaranteed reservations."""

    def __init__(self, *, slack: float = 1.2):
        if not 1.0 <= slack < math.inf:
            raise MarketError(f"slack must be finite and >= 1, got {slack!r}")
        self.slack = slack
        self.stats = AdmissionStats()

    def admit_one(
        self, tenant: Tenant, spec: JobSpec, now: float
    ) -> Tuple[str, Optional[MarketJob], Optional[str]]:
        """Decide one spec against one tenant's quota right now.

        Returns ``("admitted", job, None)`` with the guarantee reserved in
        ``tenant.live``, ``("queued", None, None)`` when the spec fits a
        quiet quota but live jobs hold too much (the caller keeps it
        queued), or ``("rejected", None, reason)``.  The live service's
        synchronous submit path calls this; it runs the same loop as the
        batch market's per-tick queue drain, so telemetry and rejection
        reasons stay identical across substrates.
        """
        admitted, rejected = [], []
        if self._decide(tenant, (spec,), now, admitted, rejected):
            return ("queued", None, None)
        if admitted:
            return ("admitted", admitted[0], None)
        return ("rejected", None, rejected[0][1])

    def tick(
        self, tenants: Mapping[str, Tenant], now: float
    ) -> Tuple[List[MarketJob], List[Tuple[JobSpec, str]]]:
        """Run one admission pass over every tenant's queue.

        Tenants are visited in sorted-name order and each queue FIFO, so
        the outcome is independent of dict insertion order.  Returns the
        newly admitted jobs, and the specs it rejected (dropped from their
        queues) each with its reason.
        """
        admitted: List[MarketJob] = []
        rejected: List[Tuple[JobSpec, str]] = []
        for name in sorted(tenants):
            tenant = tenants[name]
            if tenant.queue:
                kept = self._decide(tenant, tenant.queue, now, admitted, rejected)
                tenant.queue.clear()
                tenant.queue.extend(kept)
        return admitted, rejected

    def _decide(
        self, tenant: Tenant, specs: Iterable[JobSpec], now: float,
        admitted: List[MarketJob], rejected: List[Tuple[JobSpec, str]],
    ) -> List[JobSpec]:
        """The one admission rule, over ``specs`` in order against
        ``tenant``'s quota at ``now``: appends to ``admitted`` and
        ``rejected`` and returns the specs that wait.  The guarantee is
        ``ceil(slack * work / budget)``, at least 1."""
        slack, quota, stats = self.slack, tenant.quota, self.stats
        kept: List[JobSpec] = []
        for spec in specs:
            budget = spec.absolute_deadline - now
            if budget <= 0:
                reason = "deadline_passed"
            else:
                need = slack * spec.work / budget
                # ceil(need) > width exactly when need > width (an
                # integer), and an overflowed need is inf, not an error.
                if need > spec.width:
                    reason = "infeasible_width"
                else:
                    minimum = math.ceil(need) or 1
                    if minimum > quota:
                        reason = "exceeds_quota"
                    elif tenant.guaranteed_in_use + minimum > quota:
                        # Fits a quiet quota, just not now: wait for live
                        # jobs to release their guarantees.
                        kept.append(spec)
                        continue
                    else:
                        job = MarketJob(spec, guarantee=minimum, admitted_at=now)
                        tenant.admit(job)
                        tenant.admitted += 1
                        tenant.queue_delay_total += job.queue_delay
                        stats.admitted += 1
                        _ADMITTED.inc()
                        admitted.append(job)
                        continue
            tenant.reject(reason)
            stats.reject(reason)
            _REJECTED[reason].inc()
            rejected.append((spec, reason))
        if kept:
            stats.queue_waits += len(kept)
            _QUEUE_WAITS.inc(len(kept))
        return kept


__all__ = ["AdmissionStats", "MarketAdmission"]
