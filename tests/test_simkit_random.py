"""Unit tests for named RNG streams."""

from repro.simkit.random import RngRegistry, derive_seed


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
