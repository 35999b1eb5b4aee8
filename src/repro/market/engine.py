"""The token market's tick loop: admission, clearing, work drain.

The live set is the engine's own struct-of-arrays (``_LIVE_COLUMNS``, a
plain array per field, in tenant name then job name order); jobs join
once per tick that admits and leave in one compress per column, and the
``MarketJob`` objects are the reporting view.  Every tick the engine

1. runs the admission pass (:mod:`repro.market.admission`),
2. hands each live job the guaranteed part of its grant —
   ``min(guarantee, demand)`` — straight off its admission reservation
   (spare traffic can *never* displace it),
3. auctions the leftover capacity as spare tokens
   (:mod:`repro.market.arbiter`), the bids computed, clamped and cleared
   as one flat array that is never sliced per job, in one
   :meth:`~repro.market.arbiter.MarketArbiter.clear` call, and
4. drains every job's remaining work at its granted rate in one array
   operation, visiting one by one only the jobs that complete.

Two market structures, the PAPERS.md "When Two is Worse Than One"
comparison:

* ``pooled`` — one auction over the whole cluster's spare capacity; an
  idle tenant's tokens flow to whoever bids highest;
* ``split`` — capacity is pre-partitioned into per-tenant buckets
  (proportional to quota, largest-remainder rounded) and each bucket
  clears its own auction (a slice of the one book); a busy tenant cannot
  borrow a quiet one's tokens, which is exactly the latency penalty the
  theory predicts.

Job arrivals are read off the schedule, sorted once by (submit time,
name), by a cursor that each step moves past every spec due by the tick
boundary, so million-job arrival schedules stay cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.utility import deadline_utility
from repro.market.admission import MarketAdmission
from repro.market.arbiter import BidBook, Clearing, MarketArbiter, concave_marginals
from repro.market.tenant import JobSpec, MarketError, MarketJob, Tenant
from repro.settable import Count, Positive, check, refuse
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

#: The paper's piecewise-linear deadline utility, expressed relative to
#: the deadline: flat 1 until it, −1 ten minutes later, −1000 a thousand
#: minutes later.  Read off :func:`repro.core.utility.deadline_utility`
#: (its points from the deadline on) so the two cannot disagree; past the
#: last point ``np.interp`` holds ``_UTILITY_FLOOR`` (the paper's worst
#: utility, −1000 at deadline + 1000 minutes) where the core function
#: keeps falling, so starving jobs bid urgently but finitely.
_FROM_DEADLINE = deadline_utility(1.0).points[1:]
_UTIL_X = np.array([t - 1.0 for t, _u in _FROM_DEADLINE])
_UTIL_Y = np.array([u for _t, u in _FROM_DEADLINE])
_UTILITY_FLOOR = float(_UTIL_Y[-1])

#: Work-conserving bid floor: an unfinished job values its ``k``-th token
#: at least ``_EPS_BID / k`` even when its guarantee already meets the
#: deadline (the paper's deadline utility is flat there).  Spare capacity
#: therefore never idles while work remains, yet the bonus sits far below
#: any real utility gap, so genuinely late jobs always outbid cruising
#: ones.  ``/ k`` keeps schedules strictly decreasing (prefix grants).
_EPS_BID = 1e-6

#: One plain array per live-set column, entry ``i`` of each the same job.
#: ``remaining`` and ``allocation`` are the state the tick moves; the rest
#: is fixed at admission.  ``rank`` is the job's place in the name order of
#: every submitted job (the auction's tie-break).  ``job`` is the view.
_LIVE_COLUMNS = {
    "remaining": np.float64, "deadline": np.float64, "width": np.int64,
    "guarantee": np.int64, "tenant": np.int64, "rank": np.int64,
    "allocation": np.int64, "name": object, "job": object,
}


def _utility_at(lateness: np.ndarray) -> np.ndarray:
    """Vectorized deadline utility as a function of ``finish − deadline``."""
    return np.interp(lateness, _UTIL_X, _UTIL_Y)


@dataclass(frozen=True)
class MarketConfig:
    """Knobs for one market run."""

    capacity: Count = 200
    mode: str = "pooled"
    tick_seconds: Positive = 60.0
    slack: Positive = 1.2
    #: Hard stop: a run that exceeds this many ticks raises (admitted
    #: jobs always drain ≥ 1 token/tick, so hitting it means a bug).
    max_ticks: Count = 200_000

    def __post_init__(self):
        check(self, MarketError)
        if self.mode not in MARKET_MODES:
            refuse(self, "mode", f"one of {MARKET_MODES}", MarketError)
        if self.slack < 1:
            refuse(self, "slack", ">= 1", MarketError)


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


def _tenant_buckets(tenants: Sequence[Tenant], capacity: int) -> List[int]:
    """Split ``capacity`` across tenants proportional to quota
    (largest-remainder rounding), in tenant-name order."""
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
    return floors


class TokenMarket:
    """A multi-tenant token market on its own clock, ``now``."""

    def __init__(
        self,
        tenants: Sequence[Tenant],
        jobs: Sequence[JobSpec],
        config: MarketConfig = MarketConfig(),
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
        #: Every job's place in name order, ranked once.
        self._rank = {name: r for r, name in enumerate(sorted(j.name for j in jobs))}
        if len(self._rank) != len(jobs):
            raise MarketError("duplicate job names")
        self.tenants: Dict[str, Tenant] = {t.name: t for t in tenants}
        self._tenant_names = sorted(self.tenants)
        self._tenant_index = {n: i for i, n in enumerate(self._tenant_names)}
        self._live = {c: np.empty(0, t) for c, t in _LIVE_COLUMNS.items()}
        for spec in jobs:
            if spec.tenant not in self.tenants:
                raise MarketError(
                    f"job {spec.name!r} references unknown tenant "
                    f"{spec.tenant!r}"
                )
        self.config = config
        self.admission = MarketAdmission(slack=config.slack)
        self.arbiter = MarketArbiter()
        self.now = 0.0
        self._jobs = sorted(jobs, key=lambda j: (j.submit_seconds, j.name))
        self._arrived = 0                   # self._jobs[:_arrived] arrived
        self._pending = len(self._jobs)     # not yet completed/rejected
        self._samples: List[TickSample] = []
        self._completions: List[Dict] = []
        self._ticks = 0
        #: Spare-auction buckets: one per tenant, or the whole cluster.
        self._buckets = np.array(
            _tenant_buckets(tenants, config.capacity)
            if config.mode == "split" else [config.capacity]
        )

    @property
    def done(self) -> bool:
        return self._pending == 0

    @property
    def live_jobs(self) -> List[MarketJob]:
        """The live jobs, tenant name then job name, with ``remaining``
        and ``allocation`` written back from the engine's arrays."""
        live = self._live
        jobs = live["job"].tolist()
        state = zip(live["remaining"].tolist(), live["allocation"].tolist())
        for job, (remaining, allocation) in zip(jobs, state):
            job.remaining, job.allocation = remaining, allocation
        return jobs

    def _join(self, admitted: List[MarketJob]) -> None:
        """Append newly admitted jobs and restore the (tenant, job name)
        order — once per tick that admits."""
        rows = zip(*[
            (j.remaining, j.spec.absolute_deadline, j.spec.width, j.guarantee,
             self._tenant_index[j.tenant], self._rank[j.name], 0, j.name, j)
            for j in admitted
        ])
        live = {
            column: np.concatenate((self._live[column], np.array(new, dtype)))
            for (column, dtype), new in zip(_LIVE_COLUMNS.items(), rows)
        }
        order = np.lexsort((live["rank"], live["tenant"]))
        self._live = {column: values[order] for column, values in live.items()}

    # ------------------------------------------------------------------
    # The tick
    # ------------------------------------------------------------------

    def tick(self) -> TickSample:
        """One market round at the market's clock, ``now``."""
        now = self.now
        dt = self.config.tick_seconds
        admitted, rejected = self.admission.tick(self.tenants, now)
        if admitted:
            self._join(admitted)
        g, clearing = self._clear(dt)
        grants = g + clearing.granted
        guaranteed, granted = int(g.sum()), int(grants.sum())
        self._pending -= len(rejected) + self._advance(grants, now, dt)
        sample = TickSample(
            tick=self._ticks, now=now, live=g.size,
            queued=sum(len(t.queue) for t in self.tenants.values()),
            granted=granted, guaranteed=guaranteed, spare=granted - guaranteed,
            price=clearing.price, demand=clearing.demand,
        )
        self._samples.append(sample)
        self._ticks += 1
        _TICKS.inc()
        _PRICE.set(clearing.price)
        _LIVE.set(g.size)
        return sample

    def _clear(self, dt: float) -> Tuple[np.ndarray, Clearing]:
        """The guaranteed part of every live job's grant, and the spare
        auction on top of it: one clearing, one slice per bucket."""
        live = self._live
        demand = np.minimum(live["width"], np.maximum(
            1, np.ceil(live["remaining"] / dt).astype(np.int64)
        ))
        # >= 1 for every live job: admission reserves at least one token.
        g = np.minimum(live["guarantee"], demand)
        values, job_idx, step = self._bid_schedules(g, demand)
        # Pooled is one slice over the whole live set; in split mode each
        # tenant is a contiguous slice of it, and so of the flat bids.
        slices = np.array([0, g.size])
        if self.config.mode == "split":
            slices = np.searchsorted(live["tenant"], np.arange(self._buckets.size + 1))
        reserved = np.diff(np.concatenate(([0], np.cumsum(g)))[slices])
        book = BidBook(live["name"], live["rank"], values, job_idx, step, slices)
        return g, self.arbiter.clear(book, np.maximum(0, self._buckets - reserved))

    def _bid_schedules(
        self, g: np.ndarray, demand: np.ndarray
    ) -> Tuple[Callable[[], np.ndarray], np.ndarray, np.ndarray]:
        """Marginal values of tokens ``g+1 .. demand`` for every live job,
        flat in the :class:`BidBook` layout and never sliced per job:
        ``(values, job_idx, step)``, entry ``i`` being job ``job_idx[i]``'s
        ``g + step[i] + 1``-th token.  ``values`` is deferred: the auction
        prices the bids only if some slice is contested, and the
        ``_EPS_BID / k`` floor keeps every one positive, as it promises."""
        live = self._live
        now, slack = self.now, self.config.slack
        job_idx, step = BidBook.layout(demand - g)
        remaining, deadline = live["remaining"], live["deadline"]

        def values() -> np.ndarray:
            k = g[job_idx] + step + 1
            # Utility of finishing at now + slack * remaining / tokens: with
            # k tokens, and (each schedule's floor) with the guarantee alone.
            curve = _utility_at(
                now + slack * remaining[job_idx] / k - deadline[job_idx]
            )
            floors = _utility_at(now + slack * remaining / g - deadline)
            marginals = concave_marginals(curve, floors[job_idx], step)
            marginals += _EPS_BID / k
            return marginals

        return values, job_idx, step

    def _advance(self, grants: np.ndarray, now: float, dt: float) -> int:
        """Drain every job at its granted rate; complete and release the
        ones whose work runs out inside the tick, and count them."""
        live = self._live
        live["allocation"] = grants
        remaining = live["remaining"]
        drained = grants * dt
        done = (grants > 0) & (drained >= remaining - 1e-9)
        # Interpolated completion inside the tick.
        finished = (now + remaining[done] / grants[done]).tolist()
        remaining -= drained
        if not finished:
            return 0
        for job, finished_at, allocation in zip(
            live["job"][done].tolist(), finished, grants[done].tolist()
        ):
            job.finished_at = finished_at
            job.remaining = 0.0
            job.allocation = allocation
            tenant = self.tenants[job.tenant]
            tenant.release(job.name)
            tenant.completed += 1
            met = job.met_deadline
            tenant.met += met
            self._completions.append({
                "job": job.name,
                "tenant": job.tenant,
                "finished_at": round(finished_at, 6),
                "met": met,
                "queue_delay": round(job.queue_delay, 6),
            })
        keep = ~done
        self._live = {column: values[keep] for column, values in live.items()}
        return len(finished)

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def step(self) -> TickSample:
        """Deliver every arrival due by the next tick boundary (submit time
        ``<=`` it), then clear — one iteration of :meth:`run`."""
        self.now = target = self._ticks * self.config.tick_seconds
        jobs, i = self._jobs, self._arrived
        while i < len(jobs) and jobs[i].submit_seconds <= target:
            tenant = self.tenants[jobs[i].tenant]
            tenant.submitted += 1
            tenant.queue.append(jobs[i])
            i += 1
        self._arrived = i
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
                self.tenants[name].stats() for name in self._tenant_names
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
