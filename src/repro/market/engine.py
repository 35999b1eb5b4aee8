"""The token market's tick loop: admission, clearing, work drain.

Every tick the engine

1. runs the admission pass (:mod:`repro.market.admission`),
2. hands each live job the guaranteed part of its grant —
   ``min(guarantee, demand)`` — straight off its admission reservation
   (spare traffic can *never* displace it),
3. auctions the leftover capacity as spare tokens
   (:mod:`repro.market.arbiter`), with the bids built in one vectorized
   pass over every live job, and
4. drains each job's remaining work at its granted token rate,
   completing and releasing jobs whose work hits zero.

Two market structures, the PAPERS.md "When Two is Worse Than One"
comparison:

* ``pooled`` — one auction over the whole cluster's spare capacity; an
  idle tenant's tokens flow to whoever bids highest;
* ``split`` — capacity is pre-partitioned into per-tenant buckets
  (proportional to quota, largest-remainder rounded) and each bucket
  clears its own auction; a busy tenant cannot borrow a quiet one's
  tokens, which is exactly the latency penalty the theory predicts.

Job arrivals ride the simkit event heap through one
:meth:`~repro.simkit.events.Simulator.schedule_batch` call, so
million-job arrival schedules stay cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.utility import deadline_utility
from repro.market.admission import MarketAdmission
from repro.market.arbiter import Bid, Clearing, MarketArbiter, concave_marginals
from repro.market.tenant import JobSpec, MarketError, MarketJob, Tenant
from repro.simkit.events import Simulator
from repro.telemetry import metrics as _metrics

MARKET_MODES = ("pooled", "split")

_TICKS = _metrics.REGISTRY.counter(
    "repro_market_ticks_total", "Market clearing ticks"
)
_PRICE = _metrics.REGISTRY.gauge(
    "repro_market_clearing_price", "Most recent market clearing price"
)
_LIVE = _metrics.REGISTRY.gauge(
    "repro_market_live_jobs", "Live (admitted, unfinished) jobs"
)

#: Utility floor for a job granted nothing: the paper's worst utility
#: (−1000 at deadline + 1000 minutes).  Bounded so starving jobs bid
#: urgently but finitely.
_UTILITY_FLOOR = -1000.0

#: The paper's piecewise-linear deadline utility, expressed relative to
#: the deadline: flat 1 until it, −1 ten minutes later, −1000 a thousand
#: minutes later.  Read off :func:`repro.core.utility.deadline_utility`
#: (its points from the deadline on) so the two cannot disagree; past the
#: last point ``np.interp`` holds −1000 where the core function keeps
#: falling, which is the bound ``_UTILITY_FLOOR`` relies on.
_FROM_DEADLINE = deadline_utility(1.0).points[1:]
_UTIL_X = np.array([t - 1.0 for t, _u in _FROM_DEADLINE])
_UTIL_Y = np.array([u for _t, u in _FROM_DEADLINE])

#: Work-conserving bid floor: an unfinished job values its ``k``-th token
#: at least ``_EPS_BID / k`` even when its guarantee already meets the
#: deadline (the paper's deadline utility is flat there).  Spare capacity
#: therefore never idles while work remains, yet the bonus sits far below
#: any real utility gap, so genuinely late jobs always outbid cruising
#: ones.  ``/ k`` keeps schedules strictly decreasing (prefix grants).
_EPS_BID = 1e-6


def _utility_at(lateness: np.ndarray) -> np.ndarray:
    """Vectorized deadline utility as a function of ``finish − deadline``."""
    return np.interp(lateness, _UTIL_X, _UTIL_Y)


@dataclass(frozen=True)
class MarketConfig:
    """Knobs for one market run."""

    capacity: int = 200
    mode: str = "pooled"
    tick_seconds: float = 60.0
    slack: float = 1.2
    #: Hard stop: a run that exceeds this many ticks raises (admitted
    #: jobs always drain ≥ 1 token/tick, so hitting it means a bug).
    max_ticks: int = 200_000

    def __post_init__(self):
        if self.capacity < 1:
            raise MarketError("capacity must be >= 1")
        if self.mode not in MARKET_MODES:
            raise MarketError(
                f"mode must be one of {MARKET_MODES}, got {self.mode!r}"
            )
        if self.tick_seconds <= 0:
            raise MarketError("tick_seconds must be positive")


@dataclass
class TickSample:
    """Per-tick telemetry row."""

    tick: int
    now: float
    live: int
    queued: int
    granted: int
    guaranteed: int
    spare: int
    price: float
    demand: int


@dataclass
class MarketResult:
    """Everything a finished market run knows about itself."""

    mode: str
    capacity: int
    tick_seconds: float
    ticks: int
    tenants: List[Dict]
    samples: List[TickSample] = field(default_factory=list)
    completions: List[Dict] = field(default_factory=list)

    @property
    def submitted(self) -> int:
        return sum(t["submitted"] for t in self.tenants)

    @property
    def met(self) -> int:
        return sum(t["met"] for t in self.tenants)

    @property
    def rejected(self) -> int:
        return sum(t["rejected"] for t in self.tenants)

    @property
    def attainment(self) -> float:
        return self.met / self.submitted if self.submitted else 1.0

    def price_stats(self) -> Dict[str, float]:
        prices = [s.price for s in self.samples]
        if not prices:
            return {"mean": 0.0, "max": 0.0, "nonzero_ticks": 0}
        return {
            "mean": round(float(np.mean(prices)), 9),
            "max": round(float(np.max(prices)), 9),
            "nonzero_ticks": int(sum(1 for p in prices if p > 0)),
        }

    def to_digest(self) -> Dict:
        """Deterministic JSON-ready summary (no per-tick series)."""
        delays = [c["queue_delay"] for c in self.completions]
        return {
            "mode": self.mode,
            "capacity": self.capacity,
            "tick_seconds": self.tick_seconds,
            "ticks": self.ticks,
            "submitted": self.submitted,
            "admitted": sum(t["admitted"] for t in self.tenants),
            "rejected": self.rejected,
            "met": self.met,
            "attainment": round(self.attainment, 6),
            "price": self.price_stats(),
            "mean_queue_delay_seconds": round(
                float(np.mean(delays)), 6
            ) if delays else 0.0,
            "tenants": self.tenants,
        }


def _tenant_buckets(
    tenants: Sequence[Tenant], capacity: int
) -> Dict[str, int]:
    """Split ``capacity`` across tenants proportional to quota
    (largest-remainder rounding, name-ordered for determinism)."""
    ordered = sorted(tenants, key=lambda t: t.name)
    total_quota = sum(t.quota for t in ordered)
    shares = [capacity * t.quota / total_quota for t in ordered]
    floors = [int(s) for s in shares]
    leftover = capacity - sum(floors)
    by_frac = sorted(
        range(len(ordered)),
        key=lambda i: (floors[i] - shares[i], ordered[i].name),
    )
    for i in by_frac[:leftover]:
        floors[i] += 1
    return {t.name: f for t, f in zip(ordered, floors)}


class TokenMarket:
    """A multi-tenant token market over one simkit simulator."""

    def __init__(
        self,
        tenants: Sequence[Tenant],
        jobs: Sequence[JobSpec],
        config: MarketConfig = MarketConfig(),
        *,
        sim: Optional[Simulator] = None,
    ):
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise MarketError("duplicate tenant names")
        if not tenants:
            raise MarketError("need at least one tenant")
        total_quota = sum(t.quota for t in tenants)
        if total_quota > config.capacity:
            raise MarketError(
                f"tenant quotas sum to {total_quota} > capacity "
                f"{config.capacity}"
            )
        job_names = [j.name for j in jobs]
        if len(set(job_names)) != len(job_names):
            raise MarketError("duplicate job names")
        self.tenants: Dict[str, Tenant] = {t.name: t for t in tenants}
        for spec in jobs:
            if spec.tenant not in self.tenants:
                raise MarketError(
                    f"job {spec.name!r} references unknown tenant "
                    f"{spec.tenant!r}"
                )
        self.config = config
        self.admission = MarketAdmission(slack=config.slack)
        self.arbiter = MarketArbiter()
        self.sim = sim if sim is not None else Simulator()
        self._jobs = sorted(jobs, key=lambda j: (j.submit_seconds, j.name))
        self._pending = len(self._jobs)     # not yet completed/rejected
        self._samples: List[TickSample] = []
        self._completions: List[Dict] = []
        self._ticks = 0
        self._buckets = (
            _tenant_buckets(tenants, config.capacity)
            if config.mode == "split" else {}
        )
        # One batched heap merge for the whole arrival schedule.
        self.sim.schedule_batch(
            [j.submit_seconds for j in self._jobs],
            self._arrive,
            self._jobs,
        )

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------

    def _arrive(self, spec: JobSpec) -> None:
        tenant = self.tenants[spec.tenant]
        tenant.submitted += 1
        tenant.queue.append(spec)

    @property
    def done(self) -> bool:
        return self._pending == 0

    @property
    def live_jobs(self) -> List[MarketJob]:
        out: List[MarketJob] = []
        for name in sorted(self.tenants):
            out.extend(
                self.tenants[name].live[j]
                for j in sorted(self.tenants[name].live)
            )
        return out

    # ------------------------------------------------------------------
    # The tick
    # ------------------------------------------------------------------

    def tick(self) -> TickSample:
        """One market round at the simulator's current time."""
        now = self.sim.now
        dt = self.config.tick_seconds
        rejected_before = sum(t.rejected for t in self.tenants.values())
        self.admission.tick(self.tenants, now)
        live = self.live_jobs
        grants, guaranteed_total, clearing = self._clear(live, dt)
        self._advance(live, grants, now, dt)
        rejected_after = sum(t.rejected for t in self.tenants.values())
        self._pending -= rejected_after - rejected_before
        queued = sum(len(t.queue) for t in self.tenants.values())
        sample = TickSample(
            tick=self._ticks,
            now=now,
            live=len(live),
            queued=queued,
            granted=int(sum(grants)),
            guaranteed=guaranteed_total,
            spare=int(sum(grants)) - guaranteed_total,
            price=clearing.price,
            demand=clearing.demand,
        )
        self._samples.append(sample)
        self._ticks += 1
        _TICKS.inc()
        _PRICE.set(clearing.price)
        _LIVE.set(len(live))
        return sample

    def _clear(
        self, live: List[MarketJob], dt: float
    ) -> Tuple[np.ndarray, int, Clearing]:
        """Guaranteed grants plus the spare auction(s).

        Returns (per-job total grants aligned with ``live``, total
        guaranteed part, the clearing — for split mode the bucket
        clearings merged, with the price reported as the dearest
        bucket's price).
        """
        n = len(live)
        if n == 0:
            return np.empty(0, dtype=np.int64), 0, Clearing(
                supply=self.config.capacity
            )
        remaining = np.array([j.remaining for j in live])
        width = np.array([j.spec.width for j in live], dtype=np.int64)
        deadline = np.array([j.spec.absolute_deadline for j in live])
        guarantee = np.array([j.guarantee for j in live], dtype=np.int64)
        demand = np.minimum(
            width, np.maximum(1, np.ceil(remaining / dt).astype(np.int64))
        )
        g = np.minimum(guarantee, demand)
        marginals = self._bid_schedules(
            live, remaining, deadline, g, demand
        )
        if self.config.mode == "pooled":
            supply = self.config.capacity - int(g.sum())
            bids = [
                Bid(job=j.name, tenant=j.tenant, marginals=m)
                for j, m in zip(live, marginals) if m
            ]
            clearing = self.arbiter.clear(bids, supply)
            spare = np.array(
                [clearing.grants.get(j.name, 0) for j in live],
                dtype=np.int64,
            )
            return g + spare, int(g.sum()), clearing
        # split: one auction per tenant bucket.
        spare = np.zeros(n, dtype=np.int64)
        price = 0.0
        demand_total = 0
        value_total = 0.0
        grants_all: Dict[str, int] = {}
        supply_total = 0
        for name in sorted(self.tenants):
            idx = [i for i, j in enumerate(live) if j.tenant == name]
            bucket = self._buckets[name]
            g_used = int(g[idx].sum()) if idx else 0
            supply = max(0, bucket - g_used)
            supply_total += supply
            bids = [
                Bid(job=live[i].name, tenant=name, marginals=marginals[i])
                for i in idx if marginals[i]
            ]
            clearing = self.arbiter.clear(bids, supply)
            for i in idx:
                spare[i] = clearing.grants.get(live[i].name, 0)
            price = max(price, clearing.price)
            demand_total += clearing.demand
            value_total += clearing.value
            grants_all.update(clearing.grants)
        merged = Clearing(
            grants=grants_all,
            price=price,
            supply=supply_total,
            demand=demand_total,
            value=value_total,
        )
        return g + spare, int(g.sum()), merged

    def _bid_schedules(
        self,
        live: List[MarketJob],
        remaining: np.ndarray,
        deadline: np.ndarray,
        g: np.ndarray,
        demand: np.ndarray,
    ) -> List[Tuple[float, ...]]:
        """Marginal-value schedules for tokens ``g+1 .. demand``, built
        for every live job in one flat vectorized pass (this is what
        keeps thousand-job ticks cheap)."""
        now = self.sim.now
        slack = self.config.slack
        counts = (demand - g).astype(np.int64)
        total = int(counts.sum())
        if total == 0:
            return [() for _ in live]
        job_idx = np.repeat(np.arange(len(live)), counts)
        offsets = np.concatenate(([0], np.cumsum(counts)))[:-1]
        k_local = np.arange(total) - np.repeat(offsets, counts) + 1
        k = g[job_idx] + k_local
        finish = now + slack * remaining[job_idx] / k
        values = _utility_at(finish - deadline[job_idx])
        bonus = _EPS_BID / k
        # Utility at the guaranteed-only allocation (the schedule's floor);
        # jobs with zero guarantee start from the worst-case utility.
        g_pos = g > 0
        floors = np.full(len(live), _UTILITY_FLOOR)
        if g_pos.any():
            finish_g = now + slack * remaining[g_pos] / g[g_pos]
            floors[g_pos] = _utility_at(finish_g - deadline[g_pos])
        schedules: List[Tuple[float, ...]] = []
        for i, count in enumerate(counts):
            if count == 0:
                schedules.append(())
                continue
            start = offsets[i]
            seg = concave_marginals(
                values[start:start + count], floors[i]
            )
            seg = seg + bonus[start:start + count]
            schedules.append(tuple(seg))
        return schedules

    def _advance(
        self,
        live: List[MarketJob],
        grants: np.ndarray,
        now: float,
        dt: float,
    ) -> None:
        for job, grant in zip(live, grants):
            job.allocation = int(grant)
            if grant <= 0:
                continue
            drained = float(grant) * dt
            if drained >= job.remaining - 1e-9:
                # Interpolated completion inside the tick.
                job.finished_at = now + job.remaining / float(grant)
                job.remaining = 0.0
                tenant = self.tenants[job.tenant]
                del tenant.live[job.name]
                tenant.completed += 1
                if job.met_deadline:
                    tenant.met += 1
                self._pending -= 1
                self._completions.append({
                    "job": job.name,
                    "tenant": job.tenant,
                    "finished_at": round(job.finished_at, 6),
                    "met": job.met_deadline,
                    "queue_delay": round(job.queue_delay, 6),
                })
            else:
                job.remaining -= drained

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def step(self) -> TickSample:
        """Deliver arrivals (and anything else scheduled) up to the next
        tick boundary, then clear — one iteration of :meth:`run`."""
        target = self._ticks * self.config.tick_seconds
        self.sim.run(until=target)
        return self.tick()

    def run(self) -> MarketResult:
        """Tick until every submitted job completed or was rejected."""
        while not self.done:
            if self._ticks >= self.config.max_ticks:
                raise MarketError(
                    f"market did not drain within {self.config.max_ticks} "
                    "ticks"
                )
            self.step()
        return self.result()

    def result(self) -> MarketResult:
        return MarketResult(
            mode=self.config.mode,
            capacity=self.config.capacity,
            tick_seconds=self.config.tick_seconds,
            ticks=self._ticks,
            tenants=[
                self.tenants[name].stats() for name in sorted(self.tenants)
            ],
            samples=list(self._samples),
            completions=sorted(
                self._completions,
                key=lambda c: (c["finished_at"], c["job"]),
            ),
        )


__all__ = [
    "MARKET_MODES",
    "MarketConfig",
    "MarketResult",
    "TickSample",
    "TokenMarket",
]
