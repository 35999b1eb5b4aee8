"""Token accounting: guaranteed quotas plus weighted-fair spare tokens.

This is the scheduling mechanism of the paper's Cosmos cluster (§2.1): each
admitted job is guaranteed a number of *tokens*; a running task holds one
token; tokens guaranteed to a job but unused are *spare* and are
redistributed, weighted-fair, to jobs with pending tasks.  Tasks running on
spare tokens are lower priority: when the owner of the capacity returns,
they are evicted (§2.4).

The :class:`TokenPool` implements that policy over any number of consumers
(SLO jobs, background load, population jobs) with a water-filling spare
split.  Consumers react to grant changes via a callback; the pool never
starts or kills tasks itself.

The pool is incremental: it remembers enough of its last allocation pass
to tell when a demand change cannot move any consumer's grant, and then runs
no pass at all (:meth:`TokenPool.set_demand`; the argument is in DESIGN.md,
"Batch path: incremental token pool").  A backlogged job's demand moves by
one per finished task while its fair share still caps it, so most demand
changes are of that kind.  A job draining inside its guarantee (every
stage's tail) moves only its own grant among those a callback watches: the
pool hands it its demand and leaves the callback-less consumers' grants to
be settled by the next pass, pool operation or read.
:func:`compute_grants` is the by-definition allocation the pool must always
agree with, and no reader outside a grant callback sees anything else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.settable import is_amount
from repro.telemetry import metrics as _metrics
from repro.telemetry import trace as _trace

_RECOMPUTES = _metrics.REGISTRY.counter(
    "repro_cluster_recomputes_total",
    "Token-pool allocation passes run (a demand change that cannot move a "
    "grant runs none)",
).labels()
_GRANT_CHANGES = _metrics.REGISTRY.counter(
    "repro_cluster_grant_changes_total", "Consumer grant changes"
).labels()
_CAPACITY = _metrics.REGISTRY.gauge(
    "repro_cluster_capacity_tokens", "Current token-pool capacity"
)


class TokenError(RuntimeError):
    """Raised on invalid token-pool operations."""


def _check_amount(what: str, value) -> None:
    """Refuse what no pass can allocate: NaN, infinite, negative or
    fractional token numbers."""
    if not is_amount(value):
        raise TokenError(
            f"{what} must be a whole number of tokens >= 0, got {value!r}"
        )


@dataclass
class Grant:
    """A consumer's current entitlement."""

    total: int = 0
    #: How much of ``total`` is backed by the consumer's own guarantee; the
    #: remainder rides on spare tokens and is evictable.
    guaranteed_part: int = 0

    @property
    def spare_part(self) -> int:
        return self.total - self.guaranteed_part


class Consumer:
    """One token consumer registered with the pool."""

    def __init__(
        self,
        name: str,
        guaranteed: int,
        *,
        weight: Optional[float] = None,
        on_grant: Optional[Callable[[Grant], None]] = None,
    ):
        _check_amount(f"guarantee for {name!r}", guaranteed)
        if weight is not None and not 0 < weight < math.inf:
            raise TokenError(
                f"weight for {name!r} must be finite and > 0, got {weight!r}"
            )
        self.name = name
        self.guaranteed = guaranteed
        self._weight = weight
        self.on_grant = on_grant
        self.demand = 0
        self._grant = Grant()
        #: Set when the pool moved the spare without a pass; only consumers
        #: without a callback are ever left unsettled.
        self._unsettled = False
        self._pool: Optional[TokenPool] = None
        #: Set by the pool's last pass: the largest fair share this consumer
        #: was offered and did not fit under, or None if it was not left
        #: uncapped (no spare to split, no unmet demand, or satisfied).
        self._uncapped_share: Optional[float] = None

    @property
    def grant(self) -> Grant:
        """This consumer's entitlement: :func:`compute_grants`'s, settled by
        one pass if the pool left it behind."""
        if self._unsettled:
            self._pool.recompute()
        return self._grant

    @property
    def weight(self) -> float:
        """Fair-share weight; defaults to the guarantee (WFQ analogy, §2.6)."""
        if self._weight is not None:
            return self._weight
        return float(max(self.guaranteed, 1))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Consumer({self.name!r}, g={self.guaranteed}, d={self.demand}, "
            f"grant={self._grant.total})"
        )


def _largest_remainder_round(shares: List[float], budget: int) -> List[int]:
    """Round non-negative float shares down to integers summing to at most
    ``budget``, distributing leftover units by largest fractional part."""
    floors = [int(s) for s in shares]
    leftover = budget - sum(floors)
    if leftover <= 0:
        return floors
    remainders = [s - f for s, f in zip(shares, floors)]
    by_remainder = sorted(
        range(len(shares)), key=remainders.__getitem__, reverse=True
    )
    for i in by_remainder[:leftover]:
        floors[i] += 1
    return floors


class TokenPool:
    """The cluster-wide token scheduler."""

    def __init__(self, capacity: int, *, clock: Optional[Callable[[], float]] = None):
        _check_amount("pool capacity", capacity)
        self._capacity = capacity
        self._consumers: Dict[str, Consumer] = {}
        #: The consumers with and without a grant callback, in registration
        #: order.
        self._listeners: List[Consumer] = []
        self._passive: List[Consumer] = []
        #: True while the passive consumers' grants lag the spare.
        self._unsettled = False
        self._in_recompute = False
        self._recompute_queued = False
        # What the last pass found, for set_demand's skip rule: whether the
        # bases had to shrink to fit capacity, and the spare left after them.
        self._shrunk = False
        self._spare_after_bases = capacity
        #: Virtual-time source for trace events (the cluster passes
        #: ``lambda: sim.now``); pools built without one stamp 0.0.
        self._clock = clock
        _CAPACITY.set(capacity)

    def _ts(self) -> float:
        return self._clock() if self._clock is not None else 0.0

    # ------------------------------------------------------------------
    # Registration and updates
    # ------------------------------------------------------------------

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def total_guaranteed(self) -> int:
        return sum(c.guaranteed for c in self._consumers.values())

    def guaranteed_headroom(self) -> int:
        """Tokens still available to guarantee to new/growing consumers."""
        return self._capacity - self.total_guaranteed

    def register(self, consumer: Consumer) -> Consumer:
        if consumer.name in self._consumers:
            raise TokenError(f"duplicate consumer {consumer.name!r}")
        if consumer.guaranteed > self.guaranteed_headroom():
            raise TokenError(
                f"cannot guarantee {consumer.guaranteed} tokens to "
                f"{consumer.name!r}: only {self.guaranteed_headroom()} unreserved"
            )
        self._consumers[consumer.name] = consumer
        consumer._pool = self
        if consumer.on_grant is None:
            self._passive.append(consumer)
        else:
            self._listeners.append(consumer)
        self.recompute()
        return consumer

    def unregister(self, name: str) -> None:
        consumer = self.consumer(name)
        if consumer._unsettled:
            self.recompute()  # it leaves with compute_grants's grant
            consumer._unsettled = False  # inside a callback, only queued
        del self._consumers[name]
        if consumer.on_grant is None:
            self._passive.remove(consumer)
        else:
            self._listeners.remove(consumer)
        self.recompute()

    def consumer(self, name: str) -> Consumer:
        try:
            return self._consumers[name]
        except KeyError:
            raise TokenError(f"unknown consumer {name!r}") from None

    def set_capacity(self, capacity: int) -> None:
        """Machine failures and repairs move total capacity."""
        _check_amount("pool capacity", capacity)
        if capacity != self._capacity:
            self._capacity = capacity
            _CAPACITY.set(capacity)
            rec = _trace.RECORDER
            if rec.enabled:
                rec.emit(self._ts(), "tokens.capacity", capacity=capacity)
            self.recompute()

    def set_guaranteed(self, name: str, guaranteed: int) -> int:
        """Change a consumer's guarantee (Jockey's control knob).

        Clamped to the unreserved guaranteed headroom; returns the value
        actually applied.
        """
        consumer = self.consumer(name)
        _check_amount(f"guarantee for {name!r}", guaranteed)
        others = self.total_guaranteed - consumer.guaranteed
        applied = min(guaranteed, max(0, self._capacity - others))
        if applied != consumer.guaranteed:
            consumer.guaranteed = applied
            self.recompute()
        return applied

    def set_demand(self, name: str, demand: int) -> None:
        """Change a consumer's demand.  Runs an allocation pass unless the
        change provably leaves every grant of the last pass as it is, or
        moves no grant a callback watches but the consumer's own."""
        consumer = self.consumer(name)
        _check_amount(f"demand for {name!r}", demand)
        self.set_demand_of(consumer, demand)

    def set_demand_of(self, consumer: Consumer, demand: int) -> None:
        """:meth:`set_demand` for a registered consumer its owner holds (a
        job manager changes its demand on every finished task, to a count)."""
        if demand < 0:
            raise TokenError(f"negative demand for {consumer.name!r}")
        old = consumer.demand
        if demand == old:
            return
        consumer.demand = demand
        if not self._in_recompute:
            if not self._unsettled and self._moves_no_grant(consumer, old):
                return
            if self._moves_only_its_own_grant(consumer, old):
                self._deliver_own_grant(consumer, old)
                return
        self.recompute()

    def _moves_no_grant(self, consumer: Consumer, old_demand: int) -> bool:
        """True when ``consumer``'s demand going from ``old_demand`` to its
        current value cannot change any grant of the last pass.

        Its base must stay the full guarantee and no base may have been
        shrunk, so every base and the spare after them repeat.  Then either
        there was no spare to split, or the consumer was left uncapped and
        its new unmet demand is still strictly above every fair share it was
        offered: it stays uncapped through the same water-filling rounds, and
        its rounded amount (at most ``floor(share) + 1``) still fits.  No
        other consumer's grant reads its unmet demand.  Only asked while
        every grant is settled: the shares are those of the last pass.
        """
        guaranteed = consumer.guaranteed
        if old_demand < guaranteed or consumer.demand < guaranteed or self._shrunk:
            return False
        if self._spare_after_bases == 0:
            return True
        share = consumer._uncapped_share
        return share is not None and consumer.demand - guaranteed > share

    def _moves_only_its_own_grant(self, consumer: Consumer, old_demand: int) -> bool:
        """True when ``consumer`` has a grant callback, its demand went from
        ``old_demand`` to its current value with both at most its guarantee,
        and no other grant with a callback can move.

        Both demands are its base and it has no unmet demand, so its grant
        is ``Grant(demand, demand)``.  No base was shrunk and the new bases
        still fit capacity, so no other base moves; only the spare after
        them does, by the change.  No other listener has unmet demand, so no
        other listener takes spare: only the callback-less consumers' spare
        moves.  A live trace recorder forbids the skip, so a traced run
        emits every ``tokens.grant`` event a pass would.
        """
        if consumer.on_grant is None or self._shrunk or _trace.RECORDER.enabled:
            return False
        guaranteed = consumer.guaranteed
        demand = consumer.demand
        if old_demand > guaranteed or demand > guaranteed:
            return False
        if demand - old_demand > self._spare_after_bases:
            return False
        for other in self._listeners:
            if other.demand > other.guaranteed and other is not consumer:
                return False
        return True

    def _deliver_own_grant(self, consumer: Consumer, old_demand: int) -> None:
        """What a pass would do for a change :meth:`_moves_only_its_own_grant`
        admits: the consumer's grant becomes its demand and its callback runs
        (a demand change made inside it queues one follow-up pass).  The
        remembered spare moves by the change, and the callback-less
        consumers, whose share of it may move, wait unsettled for the next
        pass, pool operation or read of their grant."""
        demand = consumer.demand
        self._spare_after_bases += old_demand - demand
        consumer._uncapped_share = None
        grant = consumer._grant = Grant(demand, demand)
        _GRANT_CHANGES.inc()
        if not self._unsettled and self._passive:
            self._unsettled = True
            for other in self._passive:
                other._unsettled = True
        self._in_recompute = True
        try:
            consumer.on_grant(grant)
        finally:
            self._in_recompute = False
        if self._recompute_queued:
            self.recompute()

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def recompute(self) -> None:
        """Re-run the allocation and notify consumers whose grant changed.

        Re-entrant calls (a grant callback changing demand) are coalesced
        into one follow-up pass.
        """
        if self._in_recompute:
            self._recompute_queued = True
            return
        self._in_recompute = True
        try:
            while True:
                self._recompute_queued = False
                self._recompute_once()
                if not self._recompute_queued:
                    break
        finally:
            self._in_recompute = False

    def _recompute_once(self) -> None:
        """One allocation pass: :func:`compute_grants` step for step (same
        float expressions in the same order, so the same grants), keeping
        what :meth:`_moves_no_grant` needs, then the grant callbacks.  It
        settles every grant."""
        _RECOMPUTES.inc()
        if self._unsettled:
            self._unsettled = False
            for consumer in self._passive:
                consumer._unsettled = False
        consumers = list(self._consumers.values())
        capacity = self._capacity
        bases = [min(c.guaranteed, c.demand) for c in consumers]
        total_base = sum(bases)
        self._shrunk = total_base > capacity
        if self._shrunk:
            shares = [b * capacity / total_base for b in bases]
            bases = _largest_remainder_round(shares, capacity)
            total_base = sum(bases)
        spare = self._spare_after_bases = capacity - total_base
        extra = [0] * len(consumers)
        # Largest share each consumer was offered in a round it left uncapped.
        offered: List[Optional[float]] = [None] * len(consumers)
        if spare > 0:
            weights = []
            unmet = []
            active = []
            for i, consumer in enumerate(consumers):
                weights.append(consumer.weight)
                need = max(0, consumer.demand - bases[i])
                unmet.append(need)
                if need > 0:
                    active.append(i)
            while active and spare > 0:
                total_weight = sum([weights[i] for i in active])
                shares = [spare * weights[i] / total_weight for i in active]
                uncapped = []
                for i, share in zip(active, shares):
                    if unmet[i] <= share:
                        extra[i] = unmet[i]
                        spare -= unmet[i]
                        offered[i] = None
                    else:
                        uncapped.append(i)
                        if offered[i] is None or share > offered[i]:
                            offered[i] = share
                if len(uncapped) < len(active):
                    active = uncapped
                    continue
                # No consumer capped: hand out integer shares and stop.
                rounded = _largest_remainder_round(shares, spare)
                for i, amount in zip(active, rounded):
                    extra[i] = min(amount, unmet[i])
                break
        for consumer, share in zip(consumers, offered):
            consumer._uncapped_share = share
        rec = _trace.RECORDER
        for consumer, base, bonus in zip(consumers, bases, extra):
            grant = consumer._grant
            if grant.total == base + bonus and grant.guaranteed_part == base:
                continue
            grant = consumer._grant = Grant(base + bonus, base)
            _GRANT_CHANGES.inc()
            if rec.enabled:
                rec.emitted += 1
                rec.raw((self._ts(), "tokens.grant",
                         {"consumer": consumer.name,
                          "total": grant.total,
                          "guaranteed_part": grant.guaranteed_part,
                          "spare_part": grant.spare_part,
                          "demand": consumer.demand}))
            if consumer.on_grant is not None:
                consumer.on_grant(grant)

    def snapshot(self) -> Dict[str, Grant]:
        if self._unsettled:
            self.recompute()
        return {name: c._grant for name, c in self._consumers.items()}


def compute_grants(capacity: int, consumers: List[Consumer]) -> List[Grant]:
    """Pure allocation function (exposed for direct testing).

    1. Each consumer's *base* is ``min(guaranteed, demand)``; if capacity
       has dropped below the sum of bases (machine failures), bases shrink
       proportionally.
    2. Leftover capacity is split weighted-fair (water-filling) among
       consumers with unmet demand — the spare-token mechanism.
    """
    if not consumers:
        return []
    bases = [min(c.guaranteed, c.demand) for c in consumers]
    total_base = sum(bases)
    if total_base > capacity:
        shares = [b * capacity / total_base for b in bases]
        bases = _largest_remainder_round(shares, capacity)
        total_base = sum(bases)
    spare = capacity - total_base
    extra = [0] * len(consumers)
    if spare > 0:
        unmet = [max(0, c.demand - b) for c, b in zip(consumers, bases)]
        active = [i for i, u in enumerate(unmet) if u > 0]
        # Water-filling: consumers whose unmet demand is below their fair
        # share are satisfied exactly; their surplus recirculates.
        while active and spare > 0:
            total_weight = sum(consumers[i].weight for i in active)
            shares = {
                i: spare * consumers[i].weight / total_weight for i in active
            }
            capped = [i for i in active if unmet[i] - extra[i] <= shares[i]]
            if capped:
                for i in capped:
                    take = unmet[i] - extra[i]
                    extra[i] = unmet[i]
                    spare -= take
                active = [i for i in active if unmet[i] - extra[i] > 0]
                continue
            # No consumer capped: hand out integer shares and stop.
            ordered = sorted(active)
            floats = [shares[i] for i in ordered]
            rounded = _largest_remainder_round(floats, spare)
            for i, amount in zip(ordered, rounded):
                give = min(amount, unmet[i] - extra[i])
                extra[i] += give
                spare -= give
            break
    grants = []
    for consumer, base, bonus in zip(consumers, bases, extra):
        total = base + bonus
        grants.append(Grant(total=total, guaranteed_part=min(base, total)))
    return grants


__all__ = ["Consumer", "Grant", "TokenError", "TokenPool", "compute_grants"]
