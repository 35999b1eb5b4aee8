"""Batched market clearing: the greedy marginal-utility ascent.

The paper leaves the inter-job layer as future work (§4.4): "an additional
inter-job arbiter that dynamically shifts resources from jobs with low
expected marginal utility to those with high".  This module is that
arbiter, and the only one in the repo.  Each job submits its whole
*marginal-value schedule* up front (value of its 1st, 2nd, ... spare
token, non-increasing) and the arbiter clears the auction in one
vectorized pass over the flat :class:`BidBook`: take the top ``supply``
entries, hand each job the prefix of its schedule that made the cut.  Because every schedule is non-increasing, that selection *is*
what handing out one unit at a time to the currently highest bidder
converges to, without the per-step loop; ``tests/test_market_arbiter.py``
holds that walk as a reference and checks the two grant for grant.  The
top entries are found by selection (``np.partition`` to the cut), and only
the entries at or above the cut are sorted; the same file keeps the full
sort as the reference for that.  A book may hold several independent
auctions (slices of its jobs, each with its own supply): the split
market's tenant buckets clear in one call, the pooled market is the
one-slice case.

Callers: the token market's per-tick spare auction over thousands of
fluid jobs (:mod:`repro.market.engine`, which builds the book directly)
and :func:`repro.experiments.multijob.split_slice` (a per-token ``Bid``
per job, read off its controller's candidate scan).  Both turn utility
curves into schedules with :func:`concave_marginals`; on a curve that is
not concave in the allocation that clamp *defines* the ascent — a late
payoff bids no more than the tokens that must be bought before it.

The *clearing price* is the aggregate-marginal-utility price of a token
this tick, per slice:

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
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

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

    ``values`` may be *deferred*: a zero-argument callable returning the
    array, which :meth:`~MarketArbiter.clear` calls only when some slice
    is contested.  A deferred book promises that every entry is a strictly
    positive bid; :meth:`priced` holds it to that when it is called.

    ``slices`` cuts the jobs into independent auctions, each clearing its
    own supply: slice ``s`` is jobs ``slices[s]`` to ``slices[s + 1]``
    (the split market's tenant buckets).  ``None`` is one slice of every
    job (the pooled market, a ``Bid`` list).
    """

    names: Sequence[str]
    ranks: np.ndarray
    values: Union[np.ndarray, Callable[[], np.ndarray]]
    job_idx: np.ndarray
    step: np.ndarray
    slices: Optional[np.ndarray] = None

    def __post_init__(self):
        if not callable(self.values):
            self._refuse_rises(self.values)
        if self.slices is not None and not (
            len(self.slices) >= 2 and self.slices[0] == 0
            and self.slices[-1] == len(self.names)
            and (np.diff(self.slices) >= 0).all()
        ):
            raise MarketError(
                f"slices {self.slices!r} do not tile {len(self.names)} jobs"
            )

    def _refuse_rises(self, values: np.ndarray) -> None:
        rises = (values[1:] > values[:-1] + 1e-12) & (self.step[1:] > 0)
        if rises.any():
            job = self.names[self.job_idx[1 + rises.argmax()]]
            raise MarketError(f"bid for {job!r}: marginals must be non-increasing")

    def priced(self) -> np.ndarray:
        """A deferred book's values, computed now and refused (naming the
        job) unless every entry is a positive bid in a non-increasing
        schedule."""
        values = self.values()
        positive = values > 0.0
        if not positive.all():
            job = self.names[self.job_idx[positive.argmin()]]
            raise MarketError(f"bid for {job!r}: a deferred bid must be positive")
        self._refuse_rises(values)
        return values

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
    """Outcome of one auction round, per job and per slice of the book."""

    #: The book's job names and the spare tokens each was granted.
    names: Sequence[str]
    granted: np.ndarray
    #: Per slice: the clearing price, the tokens auctioned and the number
    #: of strictly-positive marginal entries bid.
    prices: np.ndarray
    supplies: np.ndarray
    demands: np.ndarray

    @property
    def price(self) -> float:
        """The dearest slice's price."""
        return float(self.prices.max())

    @property
    def supply(self) -> int:
        return int(self.supplies.sum())

    @property
    def demand(self) -> int:
        return int(self.demands.sum())

    @property
    def grants(self) -> Dict[str, int]:
        """job name -> spare tokens granted (jobs granted zero omitted)."""
        return {self.names[i]: int(self.granted[i]) for i in np.flatnonzero(self.granted)}

    @property
    def granted_total(self) -> int:
        return int(self.granted.sum())


class MarketArbiter:
    """Clears spare-token auctions; stateless."""

    def clear(
        self, bids: Union[BidBook, Sequence[Bid]], supply: Union[int, Sequence[int]]
    ) -> Clearing:
        """Grant each slice of the book its ``supply`` (one count per
        slice; an int for a one-slice book) of spare tokens, to the
        highest marginal bids in that slice.

        Deterministic tie-break: equal marginal values go to the
        lexicographically smaller job name, earlier schedule position
        first (so grants are always schedule prefixes).  ``granted`` in
        the result is aligned with the book's jobs.
        """
        book = bids if isinstance(bids, BidBook) else Bid.book(bids)
        names = book.names
        edges = np.array([0, len(names)]) if book.slices is None else book.slices
        supplies = np.array(supply, dtype=np.int64).reshape(-1)
        if supplies.size != len(edges) - 1:
            raise MarketError(f"{supplies.size} supplies for {len(edges) - 1} slices")
        if (supplies < 0).any():
            raise MarketError(f"negative supply {supply!r}")
        if len(set(names)) != len(names):
            raise MarketError("duplicate job names in bids")
        values, job_idx, step = None, book.job_idx, book.step
        if not callable(book.values):
            positive = book.values > 0.0
            values, job_idx, step = (
                flat[positive] for flat in (book.values, job_idx, step)
            )
        # Jobs, and so their entries, are contiguous per slice: slice ``s``
        # bids ``values[bounds[s]:bounds[s + 1]]``.
        bounds = np.searchsorted(job_idx, edges)
        demands = np.diff(bounds)
        # A slice is contested when its bids reach its supply (or it has
        # none to sell).  Its cut is its k-th largest bid, k = max(supply,
        # 1), and the cut is its price: the cheapest token sold, or the
        # best unserved bid.  An uncontested slice sells every bid at 0,
        # so a deferred book none of whose slices is contested is never
        # priced.
        prices = np.zeros(supplies.size)
        contested = np.flatnonzero(demands >= np.maximum(supplies, 1))
        if contested.size and values is None:
            values = book.priced()
        for s in contested:
            bid = values[bounds[s]:bounds[s + 1]]
            kth = bid.size - max(supplies[s], 1)
            prices[s] = np.partition(bid, kth)[kth]
        taken = slice(None)
        if contested.size:
            # Only bids at or above their slice's cut can clear; sorted by
            # the full order's keys they are its prefix, so each slice
            # takes its first min(supply, demand).  Job rank by *name*, not
            # bid order: the tie-break callers can reason about without
            # knowing how the engine ordered its bids.
            slice_of = np.repeat(np.arange(supplies.size), demands)
            cand = np.flatnonzero(values >= prices[slice_of])
            order = cand[np.lexsort((
                step[cand], book.ranks[job_idx[cand]], -values[cand], slice_of[cand]
            ))]
            counts = np.bincount(slice_of[cand], minlength=supplies.size)
            ends = np.cumsum(counts) - counts + np.minimum(supplies, demands)
            taken = order[np.arange(order.size) < np.repeat(ends, counts)]
        return Clearing(
            names, np.bincount(job_idx[taken], minlength=len(names)),
            prices, supplies, demands,
        )


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
