"""Unit tests for named RNG streams and the scalar draws made on a
Generator's own bit generator."""

import gc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.simkit.random import RngRegistry, derive_seed, scalar_draws


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "alpha") == derive_seed(42, "alpha")

    def test_name_sensitive(self):
        assert derive_seed(42, "alpha") != derive_seed(42, "beta")

    def test_seed_sensitive(self):
        assert derive_seed(1, "alpha") != derive_seed(2, "alpha")

    def test_non_negative_63_bit(self):
        for seed in (0, 1, 2**40):
            value = derive_seed(seed, "x")
            assert 0 <= value < 2**63


class TestRngRegistry:
    def test_same_name_returns_same_generator(self):
        reg = RngRegistry(1)
        assert reg.stream("a") is reg.stream("a")

    def test_streams_reproducible_across_registries(self):
        a = RngRegistry(7).stream("tasks").random(5)
        b = RngRegistry(7).stream("tasks").random(5)
        assert list(a) == list(b)

    def test_streams_independent_of_each_other(self):
        reg1 = RngRegistry(7)
        reg1.stream("other").random(100)  # consuming one stream...
        value1 = reg1.stream("tasks").random()
        reg2 = RngRegistry(7)
        value2 = reg2.stream("tasks").random()  # ...does not perturb another
        assert value1 == value2

    def test_different_names_differ(self):
        reg = RngRegistry(7)
        assert reg.stream("a").random() != reg.stream("b").random()

    def test_spawn_is_independent(self):
        parent = RngRegistry(3)
        child = parent.spawn("worker")
        assert child.seed != parent.seed
        assert child.stream("x").random() != parent.stream("x").random()

    def test_spawn_deterministic(self):
        a = RngRegistry(3).spawn("worker").stream("x").random()
        b = RngRegistry(3).spawn("worker").stream("x").random()
        assert a == b

    def test_names_listing(self):
        reg = RngRegistry(0)
        reg.stream("b")
        reg.stream("a")
        assert list(reg.names()) == ["a", "b"]


#: Bounds of every kind numpy's 32-bit path takes: no draw (1), a power of
#: two, small odd bounds, a bound that rejects almost half its draws, and
#: the full 32-bit range.
BOUNDS = (1, 2, 7, 100, 2**31 + 1, 2**32)
#: One step of an interleaving: ``below(n)`` against
#: ``int(rng.integers(0, n))`` or ``double()`` against ``rng.random()``,
#: and Generator calls made on both sides, which take (or leave) PCG64's
#: cached 32-bit half-word as a ``below`` does.
steps = st.one_of(
    st.tuples(st.just("below"), st.sampled_from(BOUNDS)),
    st.tuples(st.just("double"), st.just(0)),
    st.tuples(st.just("random"), st.just(0)),
    st.tuples(st.just("lognormal"), st.just(0)),
    st.tuples(st.just("integers"), st.sampled_from(BOUNDS)),
)


class TestScalarDraws:
    """``double`` and ``below`` are ``rng.random()`` and
    ``int(rng.integers(0, n))`` bit for bit, on the Generator's own state."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        plan=st.lists(steps, min_size=1, max_size=60),
    )
    def test_interleaved_draws_are_the_generators(self, seed, plan):
        ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
        double, below = scalar_draws(ours)
        for op, n in plan:
            if op == "below":
                got, want = below(n), int(numpys.integers(0, n))
                assert type(got) is int
            elif op == "double":
                got, want = double(), numpys.random()
                assert type(got) is float
            elif op == "random":
                got, want = ours.random(), numpys.random()
            elif op == "lognormal":
                got, want = ours.lognormal(), numpys.lognormal()
            else:
                got, want = ours.integers(0, n), numpys.integers(0, n)
            assert got == want
        assert ours.random() == numpys.random()
        assert ours.integers(0, 2**32) == numpys.integers(0, 2**32)

    @pytest.mark.parametrize("n", BOUNDS)
    def test_each_bound_over_many_draws(self, n):
        ours, numpys = np.random.default_rng(n), np.random.default_rng(n)
        below = scalar_draws(ours)[1]
        assert [below(n) for _ in range(2000)] == numpys.integers(0, n, 2000).tolist()
        assert ours.integers(0, 2**32) == numpys.integers(0, 2**32)

    def test_below_one_consumes_nothing(self):
        ours, numpys = np.random.default_rng(3), np.random.default_rng(3)
        below = scalar_draws(ours)[1]
        assert [below(1) for _ in range(5)] == [0] * 5
        assert ours.bit_generator.state == numpys.bit_generator.state

    @pytest.mark.parametrize("n", [0, -1, 2**32 + 1, 2**40])
    def test_bounds_off_the_32_bit_path_are_refused(self, n):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=r"1 <= n <= 2\*\*32"):
            scalar_draws(rng)[1](n)
        assert rng.bit_generator.state == before

    def test_draws_keep_the_bit_generator_alive(self):
        double, below = scalar_draws(np.random.default_rng(9))
        gc.collect()
        twin = np.random.default_rng(9)
        assert double() == twin.random()
        assert below(100) == int(twin.integers(0, 100))
