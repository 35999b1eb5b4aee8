"""Batched market clearing: the greedy marginal-utility ascent.

The paper leaves the inter-job layer as future work (§4.4): "an additional
inter-job arbiter that dynamically shifts resources from jobs with low
expected marginal utility to those with high".  This module is that
arbiter, and the only one in the repo.  Each job submits its whole
*marginal-value schedule* up front (value of its 1st, 2nd, ... spare
token or block of tokens, non-increasing) and the arbiter clears the
auction in one vectorized pass over the flat :class:`BidBook`: take the
top ``supply`` entries, hand each job the prefix of its schedule that made
the cut.  Because every schedule is non-increasing, that selection *is*
what handing out one unit at a time to the currently highest bidder
converges to, without the per-step loop; ``tests/test_market_arbiter.py``
holds that walk as a reference and checks the two grant for grant.

Callers: the token market's per-tick spare auction over thousands of
fluid jobs (:mod:`repro.market.engine`, which builds the book directly)
and :func:`repro.experiments.multijob.split_slice` (a ``Bid`` per
C(p, a)-predicted job).  Both turn utility curves into schedules with
:func:`concave_marginals`; on a curve that is not concave in the
allocation that clamp *defines* the ascent — a late payoff bids no more
than the blocks that must be bought before it.

The *clearing price* is the aggregate-marginal-utility price of a token
this tick:

* supply exhausted — the value of the cheapest token actually sold
  (lowest accepted bid, uniform-price auction style);
* zero supply with live bids — the best unserved bid;
* otherwise (supply covers all positive bids) — 0: spare tokens are
  free when nobody competes for them.

Adding demand (more bids, or higher values) can only push the relevant
order statistic up, so the price is monotone non-decreasing in aggregate
demand — a property the test suite enforces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.market.tenant import MarketError


@dataclass(frozen=True)
class BidBook:
    """Every bidder's schedule laid end to end — what :meth:`clear
    <MarketArbiter.clear>` works on (a ``Bid`` list is converted).

    ``values[i]`` is marginal number ``step[i]`` (from 0) of job
    ``job_idx[i]``, each job's entries contiguous and in order; a job may
    have none.  ``ranks`` orders the jobs by *name* (any integers that
    sort as the names do).  Every schedule must be non-increasing.
    """

    names: Sequence[str]
    ranks: np.ndarray
    values: np.ndarray
    job_idx: np.ndarray
    step: np.ndarray

    def __post_init__(self):
        rises = (self.values[1:] > self.values[:-1] + 1e-12) & (self.step[1:] > 0)
        if rises.any():
            job = self.names[self.job_idx[1 + rises.argmax()]]
            raise MarketError(f"bid for {job!r}: marginals must be non-increasing")

    def __len__(self) -> int:
        """Jobs that bid at all (a non-empty schedule)."""
        return int(np.count_nonzero(self.step == 0))

    @staticmethod
    def layout(counts: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """``(job_idx, step)`` when job ``j`` has ``counts[j]`` entries."""
        counts = np.asarray(counts, dtype=np.int64)
        job_idx = np.repeat(np.arange(counts.size), counts)
        return job_idx, np.arange(job_idx.size) - (np.cumsum(counts) - counts)[job_idx]


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
        Bid.book([self])

    @property
    def tokens_wanted(self) -> int:
        return len(self.marginals)

    @staticmethod
    def book(bids: Sequence["Bid"]) -> BidBook:
        names = [b.job for b in bids]
        rank_of = {name: r for r, name in enumerate(sorted(names))}
        return BidBook(
            names,
            np.array([rank_of[n] for n in names], dtype=np.int64),
            np.array([v for b in bids for v in b.marginals], dtype=np.float64),
            *BidBook.layout([len(b.marginals) for b in bids]),
        )


@dataclass
class Clearing:
    """Outcome of one auction round."""

    #: The book's job names and the spare tokens each was granted.
    names: Sequence[str]
    granted: np.ndarray
    price: float = 0.0
    supply: int = 0
    #: Number of strictly-positive marginal entries across all bids.
    demand: int = 0
    #: Sum of the accepted marginal values (the utility the auction bought).
    value: float = 0.0

    @property
    def grants(self) -> Dict[str, int]:
        """job name -> spare tokens granted (jobs granted zero omitted)."""
        return {self.names[i]: int(self.granted[i]) for i in np.flatnonzero(self.granted)}

    @property
    def granted_total(self) -> int:
        return int(self.granted.sum())


class MarketArbiter:
    """Clears spare-token auctions; stateless."""

    def clear(self, bids: Union[BidBook, Sequence[Bid]], supply: int) -> Clearing:
        """Grant ``supply`` spare tokens to the highest marginal bids.

        Deterministic tie-break: equal marginal values go to the
        lexicographically smaller job name, earlier schedule position
        first (so grants are always schedule prefixes).  ``granted`` in
        the result is aligned with the book's jobs.
        """
        if supply < 0:
            raise MarketError(f"negative supply {supply!r}")
        book = bids if isinstance(bids, BidBook) else Bid.book(bids)
        names = book.names
        if len(set(names)) != len(names):
            raise MarketError("duplicate job names in bids")
        out = Clearing(names, np.zeros(len(names), dtype=np.int64), supply=supply)
        positive = book.values > 0.0
        out.demand = int(np.count_nonzero(positive))
        if out.demand == 0:
            return out
        values, job_idx, step = (
            flat[positive] for flat in (book.values, book.job_idx, book.step)
        )
        if supply == 0:
            out.price = float(values.max())
            return out
        # Job rank by *name*, not bid order: the tie-break callers can
        # reason about without knowing how the engine ordered its bids.
        order = np.lexsort((step, book.ranks[job_idx], -values))
        taken = order[:supply]
        out.granted = np.bincount(job_idx[taken], minlength=len(names))
        if out.demand >= supply:
            out.price = float(values[taken[-1]])
        out.value = float(values[taken].sum())
        return out


def concave_marginals(
    values: np.ndarray, floor, step: Optional[np.ndarray] = None
) -> np.ndarray:
    """Non-increasing marginal schedules from utility curves.

    ``values[k]`` is the utility at ``k+1`` tokens; ``floor`` the utility
    at zero.  Raw consecutive differences are clamped non-negative and
    forced non-increasing with a running minimum — a conservative concave
    under-approximation of the true curve (late-payoff humps bid low
    rather than breaking the prefix-grant property).

    With ``step`` the input is many curves end to end (a :class:`BidBook`
    layout: ``step`` is each entry's position in its curve, ``floor`` gives
    each entry its own curve's floor).  The running minimum is then taken
    by log-step doubling within each curve — ``min`` only, never arithmetic
    on the values, so every curve gets the bits it would get alone.
    """
    if values.size == 0:
        return values
    if step is None:
        step = np.arange(values.size)
    prev = np.empty_like(values)
    prev[1:] = values[:-1]
    diffs = values - np.where(step == 0, floor, prev)
    np.maximum(diffs, 0.0, out=diffs)
    d, longest = 1, int(step.max())
    while d <= longest:
        # Older entry first: on a tie ``minimum`` keeps the same operand
        # the sequential accumulate would.
        np.minimum(diffs[:-d], diffs[d:], out=diffs[d:], where=step[d:] >= d)
        d *= 2
    return diffs


__all__ = ["Bid", "BidBook", "Clearing", "MarketArbiter", "concave_marginals"]
