"""Batched market clearing: the greedy marginal-utility ascent.

The paper leaves the inter-job layer as future work (§4.4): "an additional
inter-job arbiter that dynamically shifts resources from jobs with low
expected marginal utility to those with high".  This module is that
arbiter, and the only one in the repo.  Each job submits its whole
*marginal-value schedule* up front (value of its 1st, 2nd, ... spare
token or block of tokens, non-increasing), and the arbiter clears the
auction in one vectorized pass — concatenate every schedule, take the top
``supply`` entries, hand each job the prefix of its schedule that made
the cut.  Because every schedule is non-increasing, the top-``supply``
selection *is* what handing out one unit at a time to the currently
highest bidder converges to, computed without the per-step loop;
``tests/test_market_arbiter.py`` holds that walk as a reference and checks
the two grant for grant.

Callers: the token market's per-tick spare auction over thousands of
fluid jobs (:mod:`repro.market.engine`) and the multi-job experiment's
split of one slice across C(p, a)-predicted jobs
(:func:`repro.experiments.multijob.split_slice`).  Both turn a utility
curve into a schedule with :func:`concave_marginals`; on a curve that is
not concave in the allocation that clamp *defines* the ascent — a late
payoff bids no more than the blocks that must be bought before it.

The *clearing price* is the aggregate-marginal-utility price of a token
this tick:

* supply exhausted — the value of the cheapest token actually sold
  (lowest accepted bid, uniform-price auction style);
* zero supply with live bids — the best unserved bid (what the market
  would bear);
* otherwise (supply covers all positive bids) — 0: spare tokens are
  free when nobody competes for them.

Adding demand (more bids, or higher values) can only push the relevant
order statistic up, so the price is monotone non-decreasing in aggregate
demand — a property the test suite enforces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.market.tenant import MarketError


@dataclass(frozen=True)
class Bid:
    """One job's spare-token demand schedule.

    ``marginals[k]`` is the utility gained by this job's ``k+1``-th spare
    token.  The schedule must be non-increasing (concave utility in the
    allocation) — that is what lets the clearing grant prefixes.
    """

    job: str
    tenant: str
    marginals: Tuple[float, ...]

    def __post_init__(self):
        vals = self.marginals
        if any(b > a + 1e-12 for a, b in zip(vals, vals[1:])):
            raise MarketError(
                f"bid for {self.job!r}: marginals must be non-increasing"
            )

    @property
    def tokens_wanted(self) -> int:
        return len(self.marginals)


@dataclass
class Clearing:
    """Outcome of one auction round."""

    #: job name -> spare tokens granted (jobs granted zero are omitted).
    grants: Dict[str, int] = field(default_factory=dict)
    price: float = 0.0
    supply: int = 0
    #: Number of strictly-positive marginal entries across all bids.
    demand: int = 0
    #: Sum of the accepted marginal values (the utility the auction bought).
    value: float = 0.0

    @property
    def granted_total(self) -> int:
        return sum(self.grants.values())


class MarketArbiter:
    """Clears spare-token auctions; stateless apart from telemetry."""

    def __init__(self):
        self.rounds = 0
        self.tokens_sold = 0

    def clear(self, bids: Sequence[Bid], supply: int) -> Clearing:
        """Grant ``supply`` spare tokens to the highest marginal bids.

        Deterministic tie-break: equal marginal values go to the
        lexicographically smaller job name, earlier schedule position
        first (so grants are always schedule prefixes).
        """
        if supply < 0:
            raise MarketError(f"negative supply {supply!r}")
        names = [b.job for b in bids]
        if len(set(names)) != len(names):
            raise MarketError("duplicate job names in bids")
        self.rounds += 1
        counts = [b.tokens_wanted for b in bids]
        total = sum(counts)
        if total == 0:
            return Clearing(supply=supply)
        values = np.concatenate([
            np.asarray(b.marginals, dtype=np.float64) if b.marginals
            else np.empty(0, dtype=np.float64)
            for b in bids
        ])
        job_idx = np.repeat(np.arange(len(bids)), counts)
        step = np.concatenate([np.arange(c) for c in counts])
        positive = values > 0.0
        demand = int(np.count_nonzero(positive))
        if demand == 0:
            return Clearing(supply=supply, demand=0)
        values = values[positive]
        job_idx = job_idx[positive]
        step = step[positive]
        if supply == 0:
            return Clearing(
                supply=0, demand=demand, price=float(values.max())
            )
        # Job rank by *name*, not bid order: the tie-break callers can
        # reason about without knowing how the engine ordered its bids.
        rank_of = {
            name: r for r, name in enumerate(sorted(set(names)))
        }
        job_rank = np.asarray(
            [rank_of[b.job] for b in bids], dtype=np.int64
        )[job_idx]
        order = np.lexsort((step, job_rank, -values))
        taken = order[:supply]
        grants: Dict[str, int] = {}
        granted_counts = np.bincount(job_idx[taken], minlength=len(bids))
        for i, n in enumerate(granted_counts):
            if n:
                grants[bids[i].job] = int(n)
        sold = int(taken.size)
        self.tokens_sold += sold
        price = float(values[taken[-1]]) if demand >= supply else 0.0
        return Clearing(
            grants=grants,
            price=price,
            supply=supply,
            demand=demand,
            value=float(values[taken].sum()),
        )


def concave_marginals(values: np.ndarray, floor: float) -> np.ndarray:
    """Non-increasing marginal schedule from a utility curve.

    ``values[k]`` is the utility at ``k+1`` tokens; ``floor`` the utility
    at zero.  Raw consecutive differences are clamped non-negative and
    forced non-increasing with a running minimum — a conservative concave
    under-approximation of the true curve (late-payoff humps bid low
    rather than breaking the prefix-grant property).
    """
    if values.size == 0:
        return values
    diffs = np.diff(np.concatenate(([floor], values)))
    np.maximum(diffs, 0.0, out=diffs)
    return np.minimum.accumulate(diffs)


__all__ = ["Bid", "Clearing", "MarketArbiter", "concave_marginals"]
