"""The one greedy marginal-utility ascent, checked against its definition.

``split_slice`` (bids through ``MarketArbiter.clear``) replaced the
``core.arbiter`` heap walk.  The walk survives here only, as the
by-definition reference the clearing is compared with.
"""

import heapq

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.multijob import split_slice
from repro.market.arbiter import concave_marginals


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


def curve(schedule, floor, step):
    """Utility at ``floor + step * k`` tokens = the first ``k`` blocks."""
    totals = [0.0]
    for value in schedule:
        totals.append(totals[-1] + value)

    def at(allocation):
        return totals[min((allocation - floor) // step, len(schedule))]

    return at


class TestClearingIsTheHeapWalk:
    @settings(max_examples=300)
    @given(
        schedules=schedules,
        names=st.permutations("abcdef"),
        step=st.sampled_from([1, 5]),
        floor=st.integers(1, 3),
        supply=st.integers(0, 40),
    )
    def test_equal_grants(self, schedules, names, step, floor, supply):
        utilities = {
            name: curve(schedule, floor, step)
            for name, schedule in zip(names, schedules)
        }
        total = floor * len(utilities) + supply
        assert split_slice(
            utilities, total, floor=floor, step=step
        ) == heap_walk(utilities, total, min_tokens=floor, step=step)


class TestBlockSchedule:
    def test_gainless_block_ends_the_schedule(self):
        """The third token gains 1e-13 (under the stop), so the fourth's
        large payoff is never reached."""
        curve = {1: 0.0, 2: 1.0, 3: 1.0 + 1e-13, 4: 5.0}.__getitem__
        assert split_slice({"j": curve}, 4, floor=1, step=1) == {"j": 2}

    def test_late_hump_bids_what_the_block_before_it_did(self):
        """On a non-concave curve the clamp *is* the schedule: a late
        payoff (+3.0) cannot outbid the block that must be bought first
        (+0.5), and a loss bids nothing."""
        curve = np.array([1.0, 1.5, 4.5, 4.0])
        assert concave_marginals(curve, 0.0).tolist() == [1.0, 0.5, 0.5, 0.0]
