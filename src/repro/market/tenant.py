"""Tenants and the jobs they submit to the token market.

A *tenant* is the unit of isolation: it owns a guaranteed-token quota, a
FIFO queue of not-yet-admitted jobs, the name -> job dict of its live jobs
and the ledger of what they reserve (``guaranteed_in_use``, moved only by
:meth:`Tenant.admit` / :meth:`Tenant.release`).  Jobs are fluid-model
lightweight — remaining work drains at the granted token rate, with no
per-task simulation (that stays in :mod:`repro.core`; the market
reproduces its *allocation* behavior).  A live job's ``remaining`` and
``allocation`` are held in the :class:`~repro.market.engine.TokenMarket`'s
arrays; the :class:`MarketJob` is the view they are written back to.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional

from repro.settable import is_count


class MarketError(ValueError):
    """Raised for invalid market configuration or references."""


@dataclass(frozen=True)
class JobSpec:
    """One job as submitted to the market.

    ``work`` is in token-seconds: a job holding ``a`` tokens for ``s``
    seconds drains ``a * s`` of it.  ``width`` caps useful parallelism —
    tokens beyond it are wasted, so the market never grants them.
    ``deadline_seconds`` is relative to ``submit_seconds``; their sum,
    ``absolute_deadline``, is computed once here (admission reads it for
    every queued spec on every tick).
    """

    name: str
    tenant: str
    work: float
    width: int
    deadline_seconds: float
    submit_seconds: float = 0.0
    absolute_deadline: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.name:
            raise MarketError("job needs a name")
        if not (0 < self.work < math.inf):
            raise MarketError(
                f"job {self.name!r}: work must be positive and finite, "
                f"got {self.work!r}"
            )
        if not is_count(self.width):
            raise MarketError(
                f"job {self.name!r}: width must be an integer >= 1, "
                f"got {self.width!r}"
            )
        if not self.deadline_seconds > 0:
            raise MarketError(
                f"job {self.name!r}: deadline_seconds must be positive, "
                f"got {self.deadline_seconds!r}"
            )
        if not (0 <= self.submit_seconds < math.inf):
            raise MarketError(
                f"job {self.name!r}: submit_seconds must be finite and "
                f"non-negative, got {self.submit_seconds!r}"
            )
        object.__setattr__(
            self, "absolute_deadline", self.submit_seconds + self.deadline_seconds
        )


@dataclass
class MarketJob:
    """Live (admitted) state of a job."""

    spec: JobSpec
    #: Guaranteed tokens reserved at admission (counted against the
    #: tenant's quota until completion).
    guarantee: int
    admitted_at: float
    remaining: float = field(default=0.0)
    #: Most recent total grant (guaranteed part + spare part).
    allocation: int = 0
    finished_at: Optional[float] = None

    def __post_init__(self):
        if self.remaining == 0.0:
            self.remaining = self.spec.work

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def tenant(self) -> str:
        return self.spec.tenant

    @property
    def queue_delay(self) -> float:
        return self.admitted_at - self.spec.submit_seconds

    def demand(self, tick_seconds: float) -> int:
        """Tokens this job can usefully hold for the next tick."""
        if self.remaining <= 0:
            return 0
        return min(self.spec.width,
                   max(1, math.ceil(self.remaining / tick_seconds)))

    @property
    def met_deadline(self) -> bool:
        return (
            self.finished_at is not None
            and self.finished_at <= self.spec.absolute_deadline + 1e-9
        )


@dataclass
class Tenant:
    """One paying customer of the cluster."""

    name: str
    #: Cap on the sum of guaranteed tokens its live jobs may hold.
    quota: int

    queue: Deque[JobSpec] = field(default_factory=deque)
    live: Dict[str, MarketJob] = field(default_factory=dict)

    # Lifetime accounting (the admission layer fills these in).
    submitted: int = 0
    admitted: int = 0
    rejected: int = 0
    completed: int = 0
    met: int = 0
    #: reason -> count of rejections.
    rejected_reasons: Dict[str, int] = field(default_factory=dict)
    queue_delay_total: float = 0.0
    #: Sum of the live jobs' guarantees (the reservation ledger).
    guaranteed_in_use: int = field(default=0, init=False)

    def __post_init__(self):
        if not self.name:
            raise MarketError("tenant needs a name")
        if not is_count(self.quota):
            raise MarketError(
                f"tenant {self.name!r}: quota must be an integer >= 1, "
                f"got {self.quota!r}"
            )

    def admit(self, job: MarketJob) -> None:
        """Make ``job`` live and reserve its guarantee."""
        self.live[job.name] = job
        self.guaranteed_in_use += job.guarantee

    def release(self, name: str) -> Optional[MarketJob]:
        """Drop a live job (if ``name`` is one) and free its guarantee."""
        job = self.live.pop(name, None)
        if job is not None:
            self.guaranteed_in_use -= job.guarantee
        return job

    def reject(self, reason: str) -> None:
        self.rejected += 1
        self.rejected_reasons[reason] = self.rejected_reasons.get(reason, 0) + 1

    def stats(self) -> Dict:
        """Summary dict (stable key order for digests)."""
        finished = self.completed + self.rejected
        return {
            "name": self.name,
            "quota": self.quota,
            "submitted": self.submitted,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "completed": self.completed,
            "met": self.met,
            "attainment": round(self.met / self.submitted, 6)
            if self.submitted else 1.0,
            "mean_queue_delay_seconds": round(
                self.queue_delay_total / self.admitted, 6
            ) if self.admitted else 0.0,
            "rejected_reasons": dict(sorted(self.rejected_reasons.items())),
            "unfinished": self.submitted - finished,
        }


__all__ = ["JobSpec", "MarketError", "MarketJob", "Tenant"]
