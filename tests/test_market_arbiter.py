"""The one greedy marginal-utility ascent, checked against its definition.

``split_slice`` (per-token bids through ``MarketArbiter.clear``)
replaced the ``core.arbiter`` heap walk.  The walk survives here only, as
the by-definition reference the clearing is compared with, on per-token
curves.
"""

import heapq
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments.multijob import split_slice
from repro.market.arbiter import Bid, BidBook, MarketArbiter, concave_marginals
from repro.market.tenant import MarketError
from repro.telemetry.audit import CandidateEval


def heap_walk(utilities, total_tokens, *, min_tokens, step):
    """Reference: hand out ``step`` tokens at a time to the job whose
    utility gains the most, smaller name first on ties; a job whose next
    block gains ``<= 1e-12`` is done."""
    allocations = {name: min_tokens for name in utilities}
    values = {name: u(min_tokens) for name, u in utilities.items()}
    remaining = total_tokens - min_tokens * len(utilities)
    heap = [
        (-(u(min_tokens + step) - values[name]), name)
        for name, u in utilities.items()
    ]
    heapq.heapify(heap)
    while remaining >= step and heap:
        neg_gain, name = heapq.heappop(heap)
        if -neg_gain <= 1e-12:
            continue
        allocations[name] += step
        remaining -= step
        values[name] = utilities[name](allocations[name])
        gain = utilities[name](allocations[name] + step) - values[name]
        heapq.heappush(heap, (-gain, name))
    return allocations


#: Block values are dyadic so utility curves (their running sums) and the
#: differences taken back from them are exact: ties stay ties.  The last
#: one is positive but below the walk's 1e-12 stop.
BLOCK_VALUES = [k / 4.0 for k in range(1, 9)] + [2.0 ** -45]

schedules = st.lists(
    st.lists(st.sampled_from(BLOCK_VALUES), max_size=8).map(
        lambda values: sorted(values, reverse=True)
    ),
    min_size=1,
    max_size=6,
)


def curve(schedule, floor):
    """Utility at ``floor + k`` tokens = the first ``k`` token values."""
    totals = [0.0]
    for value in schedule:
        totals.append(totals[-1] + value)

    def at(allocation):
        return totals[min(allocation - floor, len(schedule))]

    return at


def candidates(utility_at, grid):
    """A controller's candidates on ``grid`` under ``utility_at`` (the
    predictions do not enter the split)."""
    return [CandidateEval(a, 0.0, utility_at(a)) for a in grid]


class TestClearingIsTheHeapWalk:
    """On a step-1 grid the interpolation is exact, so the per-token bids
    are the walk's one-token gains bit for bit."""

    # 300 examples in tier-1; the larger profile budget when CI asks for it.
    @settings(max_examples=max(300, settings.default.max_examples))
    @given(
        schedules=schedules,
        names=st.permutations("abcdef"),
        floor=st.integers(1, 3),
        supply=st.integers(0, 40),
    )
    def test_equal_grants(self, schedules, names, floor, supply):
        utilities = {
            name: curve(schedule, floor)
            for name, schedule in zip(names, schedules)
        }
        curves = {
            name: candidates(u, range(floor, floor + len(schedule) + 1))
            for (name, u), schedule in zip(utilities.items(), schedules)
        }
        total = floor * len(utilities) + supply
        assert split_slice(curves, total) == heap_walk(
            utilities, total, min_tokens=floor, step=1
        )


class TestBlockSchedule:
    def test_gainless_block_ends_the_schedule(self):
        """The third token gains 1e-13 (under the stop), so the fourth's
        large payoff is never reached."""
        curve = {1: 0.0, 2: 1.0, 3: 1.0 + 1e-13, 4: 5.0}.__getitem__
        assert split_slice({"j": candidates(curve, [1, 2, 3, 4])}, 4) == {"j": 2}

    def test_late_hump_bids_what_the_block_before_it_did(self):
        """On a non-concave curve the clamp *is* the schedule: a late
        payoff (+3.0) cannot outbid the block that must be bought first
        (+0.5), and a loss bids nothing."""
        curve = np.array([1.0, 1.5, 4.5, 4.0])
        assert concave_marginals(curve, 0.0).tolist() == [1.0, 0.5, 0.5, 0.0]


class TestPerTokenBids:
    """``split_slice`` bids every token between a job's grid points."""

    def test_supply_off_the_grid_step_is_granted_in_full(self):
        # Utility rises all the way up both 5-step grids.
        grid = [1, *range(6, 101, 5)]
        curves = {name: candidates(float, grid) for name in "ab"}
        split = split_slice(curves, 23)
        assert sum(split.values()) == 23
        assert not set(split.values()) <= set(grid)

    def test_partial_step_under_contention(self):
        """a's first step gains 1.0 a token and then 0.2; b gains 0.5 a
        token.  Of 8 spare tokens a takes its first step and b the other
        three, which is not a grid step."""
        a = {1: 0.0, 6: 5.0, 11: 6.0}.__getitem__
        b = {1: 0.0, 6: 2.5, 11: 5.0}.__getitem__
        curves = {"a": candidates(a, [1, 6, 11]), "b": candidates(b, [1, 6, 11])}
        assert split_slice(curves, 10) == {"a": 6, "b": 4}


#: Utility values: a few repeated ones (flat stretches and exact ties in
#: the running minimum) among arbitrary floats.
utility_values = st.one_of(
    st.sampled_from([-1000.0, -1.0, 0.0, 0.5, 1.0]),
    st.floats(-1000.0, 1.0, allow_nan=False),
)


def clamp_alone(floor, curve):
    """One curve's schedule by definition: the sequential running minimum."""
    return np.minimum.accumulate(np.maximum(np.diff([floor, *curve]), 0))


class TestOneClamp:
    """The segmented clamp the engine runs over every live job's curve at
    once is ``concave_marginals``; a single curve is its one-segment case."""

    @given(curves=st.lists(
        st.tuples(utility_values, st.lists(utility_values, max_size=40)),
        max_size=12,
    ))
    def test_segmented_equals_each_curve_alone_bit_for_bit(self, curves):
        job_idx, step = BidBook.layout([len(curve) for _floor, curve in curves])
        values = np.array([v for _floor, curve in curves for v in curve])
        floors = np.array([floor for floor, _curve in curves])
        segmented = concave_marginals(values, floors[job_idx], step)
        alone = [clamp_alone(floor, curve) for floor, curve in curves]
        assert segmented.tobytes() == np.concatenate(alone + [np.empty(0)]).tobytes()
        for floor, curve in curves:
            assert (
                concave_marginals(np.array(curve), floor).tobytes()
                == clamp_alone(floor, curve).tobytes()
            )

    def test_layout_skips_empty_and_counts_single_entries(self):
        job_idx, step = BidBook.layout([2, 0, 1, 3])
        assert job_idx.tolist() == [0, 0, 2, 3, 3, 3]
        assert step.tolist() == [0, 1, 0, 0, 1, 2]


def flat_book(schedules):
    """A ``BidBook`` from ``{name: marginals}``, ranked by name."""
    names = list(schedules)
    job_idx, step = BidBook.layout([len(m) for m in schedules.values()])
    return BidBook(
        names, np.argsort(np.argsort(names)),
        np.array([v for m in schedules.values() for v in m], dtype=float),
        job_idx, step,
    )


class TestFlatBookBoundaries:
    def test_rising_schedule_names_the_job(self):
        with pytest.raises(
            MarketError, match="bid for 'c': marginals must be non-increasing"
        ):
            flat_book({"a": [3.0, 2.0], "b": [4.0], "c": [1.0, 1.5], "d": [0.5]})

    def test_a_rise_from_one_job_to_the_next_is_no_rise(self):
        book = flat_book({"a": [3.0, 2.0], "b": [], "c": [9.0, 9.0], "d": [9.5]})
        assert len(book) == 3               # b bids nothing
        clearing = MarketArbiter().clear(book, 3)
        assert clearing.granted.tolist() == [0, 0, 2, 1]
        assert clearing.grants == {"c": 2, "d": 1}
        assert (clearing.price, clearing.demand) == (9.0, 5)

    def test_same_clearing_as_the_bid_list(self):
        schedules = {"b": [7.0, 7.0, 1.0], "a": [7.0, 7.0], "c": []}
        bids = [Bid(job, "t", tuple(m)) for job, m in schedules.items()]
        flat = MarketArbiter().clear(flat_book(schedules), 3)
        listed = MarketArbiter().clear(bids, 3)
        assert flat.grants == listed.grants == {"a": 2, "b": 1}
        assert (flat.price, flat.demand, flat.supply) == (
            listed.price, listed.demand, listed.supply
        )

    def test_duplicate_names_and_negative_supply(self):
        book = flat_book({"a": [1.0]})
        twice = BidBook(["a", "a"], np.array([0, 1]), book.values, book.job_idx, book.step)
        with pytest.raises(MarketError, match="duplicate job names in bids"):
            MarketArbiter().clear(twice, 1)
        with pytest.raises(MarketError, match="negative supply -1"):
            MarketArbiter().clear(book, -1)

    @pytest.mark.parametrize("bids", [[], flat_book({}), flat_book({"a": [], "b": []})])
    def test_nothing_bid_is_an_empty_clearing(self, bids):
        assert len(bids) == 0
        clearing = MarketArbiter().clear(bids, 5)
        assert clearing.granted_total == 0 and clearing.grants == {}
        assert clearing.granted.tolist() == [0] * len(clearing.names)
        assert (clearing.supply, clearing.demand, clearing.price) == (5, 0, 0.0)


# ----------------------------------------------------------------------
# The selection against the full sort it replaced
# ----------------------------------------------------------------------


@dataclass
class SortedClearing:
    """``Clearing`` as it was: one auction, scalar fields."""

    names: Sequence[str]
    granted: np.ndarray
    price: float = 0.0
    supply: int = 0
    demand: int = 0
    value: float = 0.0


def sort_clear(bids, supply):
    """The reference: ``MarketArbiter.clear`` before it selected, verbatim
    (one auction; one ``np.lexsort`` over every positive bid, the first
    ``supply`` of that order taken)."""
    if supply < 0:
        raise MarketError(f"negative supply {supply!r}")
    book = bids if isinstance(bids, BidBook) else Bid.book(bids)
    names = book.names
    if len(set(names)) != len(names):
        raise MarketError("duplicate job names in bids")
    out = SortedClearing(names, np.zeros(len(names), dtype=np.int64), supply=supply)
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


#: A small palette, so many jobs bid the same schedule and ties fall at
#: the cut (the standing market's shape); ``()`` and the zeros are jobs
#: that bid nothing, or stop bidding.
PALETTE = [(), (0.0,), (2.0,), (2.0, 1.0), (2.0, 1.0, 1.0), (1.0, 1.0, 0.5, 0.0), (0.5, 0.5)]

#: Each slice's supply, relative to its positive bids ``n``.
SUPPLIES = {"0": lambda n: 0, "1": lambda n: 1, "n-1": lambda n: max(n - 1, 0),
            "n": lambda n: n, "n+5": lambda n: n + 5}


@st.composite
def sliced_books(draw):
    sizes = draw(st.lists(st.integers(0, 6), min_size=1, max_size=4))
    jobs = sum(sizes)
    return dict(
        sizes=sizes,
        schedules=draw(st.lists(st.sampled_from(PALETTE), min_size=jobs, max_size=jobs)),
        # Name order is not book order, so the rank key is visible.
        ranks=draw(st.permutations(range(jobs))),
        supplies=draw(st.lists(
            st.sampled_from(sorted(SUPPLIES)), min_size=len(sizes), max_size=len(sizes)
        )),
    )


class TestSelectionIsTheSort:
    """``clear`` selects each slice's cut with ``np.partition`` and sorts
    only the bids at or above it; ``sort_clear`` above is the full sort it
    replaced, run on each slice alone.  ``test_market_engine``'s per-job
    reference calls the new ``clear``, so only this sees the selection."""

    # Two slices; in each, identical schedules tie at the cut and the
    # smaller name sits later in the book.
    @example(book=dict(
        sizes=[3, 2], schedules=[(2.0, 1.0)] * 3 + [(0.5, 0.5)] * 2,
        ranks=[2, 1, 0, 4, 3], supplies=["n-1", "1"],
    ))
    @given(book=sliced_books())
    def test_equal_to_the_full_sort_slice_by_slice(self, book):
        schedules, sizes = book["schedules"], book["sizes"]
        names = np.array([f"j{rank:02d}" for rank in book["ranks"]], dtype=object)
        ranks = np.array(book["ranks"], dtype=np.int64)
        values = np.array([v for s in schedules for v in s], dtype=np.float64)
        job_idx, step = BidBook.layout([len(s) for s in schedules])
        edges = np.cumsum([0] + sizes)
        at = np.searchsorted(job_idx, edges)
        slices = [
            (slice(edges[s], edges[s + 1]), slice(at[s], at[s + 1]))
            for s in range(len(sizes))
        ]
        supply = [
            SUPPLIES[pick](int(np.count_nonzero(values[bids] > 0.0)))
            for pick, (_jobs, bids) in zip(book["supplies"], slices)
        ]
        clearing = MarketArbiter().clear(
            BidBook(names, ranks, values, job_idx, step, edges), supply
        )
        for s, (jobs, bids) in enumerate(slices):
            ref = sort_clear(BidBook(
                names[jobs], ranks[jobs], values[bids], job_idx[bids] - edges[s], step[bids]
            ), supply[s])
            assert clearing.granted[jobs].tolist() == ref.granted.tolist()
            assert clearing.prices[s].hex() == ref.price.hex()
            assert (clearing.demands[s], clearing.supplies[s]) == (ref.demand, ref.supply)
        assert (clearing.demand, clearing.supply) == (sum(clearing.demands), sum(supply))
