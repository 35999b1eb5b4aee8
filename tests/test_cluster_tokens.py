"""Unit and property tests for token accounting (guaranteed + spare)."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import tokens
from repro.cluster.tokens import (
    Consumer,
    Grant,
    TokenError,
    TokenPool,
    compute_grants,
)
from repro.telemetry import trace as _trace


def consumers(*specs):
    """specs: (name, guaranteed, demand[, weight]) tuples."""
    out = []
    for spec in specs:
        name, guaranteed, demand = spec[:3]
        weight = spec[3] if len(spec) > 3 else None
        c = Consumer(name, guaranteed, weight=weight)
        c.demand = demand
        out.append(c)
    return out


class TestComputeGrants:
    def test_under_demand_gets_demand(self):
        [grant] = compute_grants(100, consumers(("a", 50, 20)))
        assert grant.total == 20
        assert grant.guaranteed_part == 20

    def test_guaranteed_respected_under_contention(self):
        grants = compute_grants(
            100, consumers(("a", 60, 100), ("b", 40, 100))
        )
        assert [g.total for g in grants] == [60, 40]
        assert all(g.spare_part == 0 for g in grants)

    def test_spare_flows_to_unmet_demand(self):
        grants = compute_grants(100, consumers(("a", 60, 20), ("b", 40, 100)))
        assert grants[0].total == 20
        assert grants[1].total == 80
        assert grants[1].guaranteed_part == 40
        assert grants[1].spare_part == 40

    def test_spare_split_by_weight(self):
        grants = compute_grants(
            120,
            consumers(("a", 30, 1000, 30.0), ("b", 30, 1000, 90.0)),
        )
        # 60 spare split 1:3.
        assert grants[0].total == 30 + 15
        assert grants[1].total == 30 + 45

    def test_water_filling_recirculates_surplus(self):
        grants = compute_grants(
            100,
            consumers(("a", 20, 25, 50.0), ("b", 20, 1000, 50.0)),
        )
        # a's unmet demand is tiny (5); the rest of the 60 spare goes to b.
        assert grants[0].total == 25
        assert grants[1].total == 75

    def test_capacity_degradation_shrinks_bases(self):
        grants = compute_grants(50, consumers(("a", 60, 60), ("b", 40, 40)))
        assert sum(g.total for g in grants) == 50
        assert grants[0].total == 30
        assert grants[1].total == 20

    def test_no_consumers(self):
        assert compute_grants(100, []) == []

    def test_zero_capacity(self):
        [grant] = compute_grants(0, consumers(("a", 10, 10)))
        assert grant.total == 0

    def test_grants_never_exceed_demand(self):
        grants = compute_grants(1000, consumers(("a", 10, 3), ("b", 10, 7)))
        assert [g.total for g in grants] == [3, 7]

    @given(
        capacity=st.integers(0, 500),
        specs=st.lists(
            st.tuples(
                st.integers(0, 100),   # guaranteed
                st.integers(0, 400),   # demand
                st.floats(0.5, 100.0), # weight
            ),
            min_size=1,
            max_size=6,
        ),
    )
    @settings(max_examples=200)
    def test_invariants(self, capacity, specs):
        cs = consumers(
            *[(f"c{i}", g, d, w) for i, (g, d, w) in enumerate(specs)]
        )
        grants = compute_grants(capacity, cs)
        total = sum(g.total for g in grants)
        assert total <= capacity
        for c, g in zip(cs, grants):
            assert 0 <= g.total <= c.demand
            assert 0 <= g.guaranteed_part <= g.total
            assert g.guaranteed_part <= max(c.guaranteed, g.total)
        # Work conservation: if any consumer has unmet demand, the pool is
        # fully used (up to sum of demands).
        unmet = any(g.total < c.demand for c, g in zip(cs, grants))
        total_demand = sum(c.demand for c in cs)
        if unmet and total_demand >= capacity:
            assert total == capacity


class TestTokenPool:
    def test_register_and_grant(self):
        pool = TokenPool(100)
        consumer = pool.register(Consumer("a", 40))
        pool.set_demand("a", 50)
        assert consumer.grant.total == 50  # 40 guaranteed + 10 spare

    def test_duplicate_name_rejected(self):
        pool = TokenPool(100)
        pool.register(Consumer("a", 10))
        with pytest.raises(TokenError):
            pool.register(Consumer("a", 10))

    def test_over_reservation_rejected(self):
        pool = TokenPool(100)
        pool.register(Consumer("a", 80))
        with pytest.raises(TokenError):
            pool.register(Consumer("b", 30))

    def test_set_guaranteed_clamps_to_headroom(self):
        pool = TokenPool(100)
        pool.register(Consumer("bg", 70))
        pool.register(Consumer("job", 0))
        applied = pool.set_guaranteed("job", 50)
        assert applied == 30

    def test_unregister_frees_guarantee(self):
        pool = TokenPool(100)
        pool.register(Consumer("a", 80))
        pool.unregister("a")
        pool.register(Consumer("b", 100))

    def test_unknown_consumer(self):
        pool = TokenPool(10)
        with pytest.raises(TokenError):
            pool.set_demand("ghost", 1)
        with pytest.raises(TokenError):
            pool.unregister("ghost")

    def test_grant_callback_fired_on_change(self):
        pool = TokenPool(100)
        grants = []
        pool.register(Consumer("a", 40, on_grant=grants.append))
        pool.set_demand("a", 10)
        pool.set_demand("a", 10)  # no change, no callback
        assert len(grants) == 1
        assert grants[0].total == 10

    def test_capacity_change_triggers_regrant(self):
        pool = TokenPool(100)
        grants = []
        pool.register(Consumer("a", 100, on_grant=grants.append))
        pool.set_demand("a", 100)
        pool.set_capacity(50)
        assert grants[-1].total == 50

    def test_reentrant_recompute_coalesces(self):
        pool = TokenPool(100)
        calls = []

        def on_grant(grant):
            calls.append(grant.total)
            if len(calls) == 1:
                pool.set_demand("a", 20)  # re-entrant change

        pool.register(Consumer("a", 40, on_grant=on_grant))
        pool.set_demand("a", 40)
        assert calls[-1] == 20

    def test_negative_values_rejected(self):
        pool = TokenPool(10)
        pool.register(Consumer("a", 5))
        with pytest.raises(TokenError):
            pool.set_demand("a", -1)
        with pytest.raises(TokenError):
            pool.set_guaranteed("a", -1)
        with pytest.raises(TokenError):
            pool.set_capacity(-5)
        with pytest.raises(TokenError):
            Consumer("x", -1)

    @pytest.mark.parametrize(
        "value", [-1, 3.5, 2.0, float("nan"), float("inf")],
        ids=["negative", "fractional", "float", "nan", "inf"],
    )
    def test_refuses_what_no_pass_can_allocate(self, value):
        """Capacity, guarantees and demands are whole token numbers >= 0;
        the refusal names the pool or the consumer and the value, and moves
        nothing."""
        got = re.escape(f"got {value!r}")
        with pytest.raises(TokenError, match=f"pool capacity .*{got}"):
            TokenPool(value)
        with pytest.raises(TokenError, match=f"guarantee for 'x' .*{got}"):
            Consumer("x", value)
        pool = TokenPool(10)
        pool.register(Consumer("a", 5))
        pool.set_demand("a", 4)
        with pytest.raises(TokenError, match=f"pool capacity .*{got}"):
            pool.set_capacity(value)
        with pytest.raises(TokenError, match=f"guarantee for 'a' .*{got}"):
            pool.set_guaranteed("a", value)
        with pytest.raises(TokenError, match=f"demand for 'a' .*{got}"):
            pool.set_demand("a", value)
        assert pool.capacity == 10
        assert pool.consumer("a").guaranteed == 5
        assert pool.snapshot() == {"a": Grant(4, 4)}

    def test_snapshot(self):
        pool = TokenPool(100)
        pool.register(Consumer("a", 10))
        pool.set_demand("a", 5)
        snap = pool.snapshot()
        assert snap["a"].total == 5

    @pytest.mark.parametrize(
        "weight", [0.0, -2.0, float("nan"), float("inf")],
        ids=["zero", "negative", "nan", "inf"],
    )
    def test_weight_must_be_finite_and_positive(self, weight):
        with pytest.raises(TokenError, match=f"'a'.*got {weight!r}"):
            Consumer("a", 5, weight=weight)

    def test_weight_defaults_to_guarantee(self):
        assert Consumer("a", 25).weight == 25.0
        assert Consumer("b", 0).weight == 1.0
        assert Consumer("c", 25, weight=3.0).weight == 3.0


class EveryChangePool(TokenPool):
    """The pool without its skip rules: a pass on every demand change."""

    def _moves_no_grant(self, consumer, old_demand):
        return False

    def _moves_only_its_own_grant(self, consumer, old_demand):
        return False


def passes_run():
    return tokens._RECOMPUTES.value


class TestIncrementalPool:
    """``set_demand`` runs no pass when the change cannot move a grant — and
    must be indistinguishable, grant by grant and callback by callback, from
    a pool that runs one every time."""

    def backlogged(self):
        pool = TokenPool(100)
        pool.register(Consumer("a", 30))
        pool.register(Consumer("b", 10))
        pool.set_demand("a", 90)
        pool.set_demand("b", 80)
        return pool

    def test_backlogged_consumer_under_its_share_runs_no_pass(self):
        pool = self.backlogged()
        before, grants = passes_run(), pool.snapshot()
        for demand in (89, 88, 91, 90):
            pool.set_demand("a", demand)
        assert passes_run() == before
        assert pool.snapshot() == grants
        assert grants == {"a": Grant(75, 30), "b": Grant(25, 10)}

    def test_falling_to_the_share_runs_a_pass(self):
        pool = self.backlogged()
        before = passes_run()
        pool.set_demand("a", 75)  # unmet 45 == a's share of the 60 spare
        assert passes_run() == before + 1
        pool.set_demand("a", 74)
        assert pool.snapshot() == {"a": Grant(74, 30), "b": Grant(26, 10)}

    def fully_guaranteed(self):
        pool = TokenPool(40)
        pool.register(Consumer("a", 30))
        pool.register(Consumer("b", 10))
        pool.set_demand("a", 35)
        pool.set_demand("b", 12)
        return pool

    def test_no_spare_and_demand_above_guarantee_runs_no_pass(self):
        pool = self.fully_guaranteed()
        before = passes_run()
        pool.set_demand("a", 60)
        pool.set_demand("a", 30)
        assert passes_run() == before
        pool.set_demand("a", 29)  # below the guarantee: the base moves
        assert passes_run() == before + 1
        assert pool.snapshot() == {"a": Grant(29, 29), "b": Grant(11, 10)}
        pool.set_capacity(39)  # exactly the bases: no spare again
        pool.set_demand("a", 31)  # from below the guarantee: the base moves
        assert passes_run() == before + 3
        assert pool.snapshot() == {"a": Grant(29, 29), "b": Grant(10, 10)}

    def test_shrunk_bases_always_run_a_pass(self):
        pool = self.fully_guaranteed()
        pool.set_capacity(20)
        before = passes_run()
        pool.set_demand("a", 36)
        assert passes_run() == before + 1

    def test_change_inside_a_pass_queues_a_follow_up_pass(self):
        pool = TokenPool(100)
        seen = []

        def react(grant):
            seen.append(grant.total)
            pool.set_demand("a", 90 - len(seen))  # still far above a's share

        pool.register(Consumer("a", 30, on_grant=react))
        pool.register(Consumer("b", 10))
        pool.set_demand("b", 80)
        before = passes_run()
        pool.set_demand("a", 90)
        assert seen == [75]
        assert passes_run() == before + 2
        pool.set_demand("a", 88)  # the same kind of change, outside a pass
        assert passes_run() == before + 2

    # -- a listener inside its guarantee: only its own grant is watched ---

    @staticmethod
    def draining(pool_cls):
        """A job (with a callback) at its guarantee of 20 beside a passive
        consumer whose unmet demand takes the spare."""
        pool = pool_cls(100)
        handed = []
        pool.register(Consumer("job", 20, on_grant=handed.append))
        pool.register(Consumer("bg", 10))
        pool.set_demand("bg", 200)
        pool.set_demand("job", 20)
        return pool, handed

    def test_draining_inside_the_guarantee_runs_no_pass(self):
        pool, handed = self.draining(TokenPool)
        assert pool.snapshot() == {"job": Grant(20, 20), "bg": Grant(80, 10)}
        before = passes_run()
        for demand in range(19, -1, -1):
            pool.set_demand("job", demand)
            assert handed[-1] == pool.consumer("job").grant == Grant(demand, demand)
        assert passes_run() == before
        assert pool.consumer("bg")._unsettled
        assert pool.consumer("bg").grant == Grant(100, 10)  # the read settles
        assert passes_run() == before + 1
        assert pool.snapshot() == {"job": Grant(0, 0), "bg": Grant(100, 10)}
        assert passes_run() == before + 1

    def test_a_live_recorder_runs_a_pass_per_step(self):
        """Traced, the rule never fires: every step runs its pass and emits
        the ``tokens.grant`` events a pass on every change emits."""
        emitted = []
        for pool_cls in (TokenPool, EveryChangePool):
            with _trace.capture() as rec:
                pool, _ = self.draining(pool_cls)
                before = passes_run()
                for demand in range(19, -1, -1):
                    pool.set_demand("job", demand)
                assert passes_run() == before + 20
            emitted.append(
                [e for e in rec.events() if e.kind == "tokens.grant"]
            )
        assert len(emitted[0]) == 2 * 20 + 3
        assert emitted[0] == emitted[1]

    def test_another_listener_with_unmet_demand_runs_a_pass(self):
        pool, _ = self.draining(TokenPool)
        pool.register(Consumer("other", 5, on_grant=lambda grant: None))
        pool.set_demand("other", 6)  # unmet: it takes spare too
        before = passes_run()
        pool.set_demand("job", 19)
        assert passes_run() == before + 1
        pool.set_demand("other", 5)  # satisfied inside its guarantee
        pool.set_demand("job", 18)
        assert passes_run() == before + 2

    def test_bases_past_capacity_run_a_pass(self):
        pool = TokenPool(30)
        handed = []
        pool.register(Consumer("job", 20, on_grant=handed.append))
        pool.register(Consumer("bg", 10))
        pool.set_demand("bg", 15)
        pool.set_demand("job", 10)
        pool.set_capacity(20)  # bases 20: no spare left after them
        before = passes_run()
        pool.set_demand("job", 11)  # the bases would need 21: they shrink
        assert passes_run() == before + 1
        assert pool.snapshot() == {"job": Grant(10, 10), "bg": Grant(10, 10)}

    def test_the_spare_a_drain_frees_is_remembered(self):
        """Two listeners and no passive consumer: a drain leaves nothing
        unsettled, and the token it frees reaches the next rise."""
        pool = TokenPool(20)
        handed = []
        pool.register(Consumer("a", 10, on_grant=lambda grant: None))
        pool.register(Consumer("b", 10, on_grant=handed.append))
        pool.set_demand("a", 10)
        pool.set_demand("b", 10)  # bases 20: no spare
        before = passes_run()
        pool.set_demand("a", 9)
        assert passes_run() == before
        pool.set_demand("b", 11)  # above its guarantee: takes that token
        assert handed[-1] == Grant(11, 10)
        assert pool.snapshot() == {"a": Grant(9, 9), "b": Grant(11, 10)}

    def test_the_first_rule_waits_for_a_settled_pool(self):
        """Conservative: while a drain has left grants unsettled, a change
        the first rule would skip runs the pass that settles them."""
        pool, _ = self.draining(TokenPool)
        pool.snapshot()  # settles the job's rise to its guarantee
        before = passes_run()
        pool.set_demand("bg", 199)  # unmet 189, above its share of 70
        assert passes_run() == before
        pool.set_demand("job", 19)
        pool.set_demand("bg", 198)
        assert passes_run() == before + 1
        pool.set_demand("bg", 197)
        assert passes_run() == before + 1
        assert pool.snapshot() == {"job": Grant(19, 19), "bg": Grant(81, 10)}

    # -- differential: skipping pool vs a pass on every change ------------

    WEIGHTS = st.one_of(
        st.none(),
        st.sampled_from([1e-6, 0.5, 1.0, 3.0, 2000.0]),
        st.floats(0.5, 100.0),
    )
    #: What a consumer's on_grant callback does, re-entrantly: lower the
    #: demand of the ``target``-th consumer (modulo the number registered) to
    #: the new grant plus ``slack``.  Demands only fall, so it terminates.
    REACTIONS = st.one_of(
        st.none(), st.tuples(st.integers(0, 7), st.integers(0, 3))
    )
    WHO = st.integers(0, 7)
    #: register = (guaranteed, first demand, weight, reaction, listens,
    #: reads): a consumer that does not listen has no callback (the
    #: background load, the spare soaker); one that reads, reads every grant
    #: from inside its callback.
    REGISTER = st.tuples(
        st.just("register"), st.integers(0, 30), st.integers(0, 60), WEIGHTS,
        REACTIONS, st.booleans(), st.booleans(),
    )
    #: Most operations aim at the boundaries the skip rules test: demand
    #: around the grant (where a job manager's demand, running + ready,
    #: hovers), around the guarantee and moving inside it (a stage's tail
    #: draining, a retry or a new wave); capacity around the sum of bases
    #: (below it they shrink, at it no spare is left, above it a small one).
    OPS = st.one_of(
        REGISTER,
        st.tuples(st.just("unregister"), WHO),
        st.tuples(st.just("set_demand"), WHO, st.integers(0, 60)),
        st.tuples(st.just("demand_near_grant"), WHO, st.integers(-2, 3)),
        st.tuples(st.just("demand_near_grant"), WHO, st.integers(-2, 3)),
        st.tuples(st.just("demand_near_guarantee"), WHO, st.integers(-2, 2)),
        st.tuples(st.just("inside"), st.integers(0, 1), st.integers(-3, 3)),
        st.tuples(st.just("inside"), st.integers(0, 1), st.integers(-3, 3)),
        st.tuples(st.just("set_guaranteed"), WHO, st.integers(0, 30)),
        st.tuples(st.just("set_capacity"), st.integers(0, 80)),
        st.tuples(st.just("capacity_near_bases"), st.integers(-2, 3)),
        st.tuples(st.just("read")),
    )

    @staticmethod
    def apply(pool, registered, log, op, serial):
        """Apply one generated operation to ``pool``; ``registered`` mirrors
        its consumers in registration order.  A callback logs the grant it
        is handed and checks that its own reads back as handed; a reading
        one also reads every grant (a read inside a callback settles
        re-entrantly, in one follow-up pass)."""
        kind = op[0]
        if kind == "register":
            _, guaranteed, demand, weight, reaction, listens, reads = op
            headroom = pool.guaranteed_headroom()
            if len(registered) == 8 or headroom < 0:  # register would refuse
                return
            name = f"c{serial}"

            def on_grant(grant):
                log.append((name, grant.total, grant.guaranteed_part))
                if reaction is not None:
                    target = registered[reaction[0] % len(registered)]
                    ceiling = grant.total + reaction[1]
                    if target.demand > ceiling:
                        pool.set_demand(target.name, ceiling)
                if reads:
                    for other in registered:
                        other.grant
                assert consumer.grant == grant

            consumer = Consumer(
                name, min(guaranteed, headroom), weight=weight,
                on_grant=on_grant if listens else None,
            )
            registered.append(consumer)
            pool.register(consumer)
            pool.set_demand(name, demand)
        elif kind == "set_capacity":
            pool.set_capacity(op[1])
        elif kind == "capacity_near_bases":
            bases = sum(min(c.guaranteed, c.demand) for c in registered)
            pool.set_capacity(max(0, bases + op[1]))
        elif kind == "read":
            wanted = compute_grants(pool.capacity, registered)
            assert list(pool.snapshot().values()) == wanted
        elif kind == "inside":
            # The first or second listener's demand moves by op[2], kept
            # inside its guarantee.
            listeners = [c for c in registered if c.on_grant is not None]
            if listeners:
                consumer = listeners[op[1] % len(listeners)]
                g = consumer.guaranteed
                demand = min(consumer.demand, g) + op[2]
                pool.set_demand(consumer.name, min(g, max(0, demand)))
        elif registered:
            consumer = registered[op[1] % len(registered)]
            if kind == "unregister":
                registered.remove(consumer)
                pool.unregister(consumer.name)
            elif kind == "set_demand":
                pool.set_demand(consumer.name, op[2])
            elif kind == "demand_near_grant":
                pool.set_demand(consumer.name, max(0, consumer.grant.total + op[2]))
            elif kind == "demand_near_guarantee":
                pool.set_demand(consumer.name, max(0, consumer.guaranteed + op[2]))
            else:
                pool.set_guaranteed(consumer.name, op[2])

    @given(
        capacity=st.integers(0, 80),
        population=st.lists(REGISTER, min_size=1, max_size=8),
        ops=st.lists(OPS, min_size=30, max_size=80),
    )
    def test_differential_against_a_pass_on_every_change(
        self, capacity, population, ops
    ):
        """After every operation each grant is ``compute_grants``'s, and the
        ordered callback log is the one a pass on every change produces.

        Three pools run each sequence: one whose grants are all read after
        every operation, one whose stored grants are only looked at (its
        callback-less consumers may stay unsettled across operations until
        a ``read`` operation), and the reference.  In the second, every
        grant not marked unsettled is already ``compute_grants``'s, and no
        consumer with a callback is ever marked.

        Mutation-checked.  Dropping the base-unchanged condition (either
        half), comparing demand instead of unmet demand with the share,
        remembering the smallest share instead of the largest or keeping a
        capped consumer's share all fail here; so do dropping the second
        rule's "no other listener has unmet demand" or "the bases still fit"
        conditions, not moving the remembered spare, and a grant read or a
        snapshot that does not settle.  Weakening ``>`` to ``>=``, skipping
        inside a pass, ignoring shrunk bases and asking the first rule while
        grants are unsettled move no grant (the rules are conservative
        there), so this cannot see them; the pass-count tests above pin
        those four.  A live recorder's veto is pinned there too.
        """
        pools = [
            (TokenPool(capacity), [], [], True),
            (TokenPool(capacity), [], [], False),
            (EveryChangePool(capacity), [], [], True),
        ]
        for serial, op in enumerate(population + ops):
            for pool, registered, log, read in pools:
                self.apply(pool, registered, log, op, serial)
                wanted = compute_grants(pool.capacity, registered)
                if read:
                    assert [c.grant for c in registered] == wanted, (serial, op)
                    continue
                for c, want in zip(registered, wanted):
                    assert not (c._unsettled and c.on_grant), (serial, op)
                    assert c._unsettled or c._grant == want, (serial, op)
            assert pools[0][2] == pools[1][2] == pools[2][2], (serial, op)
