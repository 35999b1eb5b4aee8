"""Unit and property tests for the latency distributions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simkit.distributions import (
    Constant,
    DistributionError,
    Empirical,
    Exponential,
    LogNormal,
    Scaled,
    Truncated,
    Uniform,
    WithOutliers,
    scale,
)


@pytest.fixture
def rng():
    return np.random.default_rng(123)


class TestConstant:
    def test_sample(self, rng):
        assert Constant(4.0).sample(rng) == 4.0

    def test_mean_and_quantile(self):
        dist = Constant(4.0)
        assert dist.mean() == 4.0
        assert dist.quantile(0.1) == 4.0

    def test_negative_rejected(self):
        with pytest.raises(DistributionError):
            Constant(-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, value):
        with pytest.raises(DistributionError, match="constant value must be finite"):
            Constant(value)


class TestUniform:
    def test_samples_within_bounds(self, rng):
        dist = Uniform(2.0, 5.0)
        for _ in range(200):
            assert 2.0 <= dist.sample(rng) <= 5.0

    def test_mean(self):
        assert Uniform(2.0, 6.0).mean() == 4.0

    def test_quantile(self):
        assert Uniform(0.0, 10.0).quantile(0.3) == 3.0

    @pytest.mark.parametrize(
        "low, high, param",
        [(math.nan, 1.0, "low"), (0.0, math.inf, "high"), (0.0, math.nan, "high")],
    )
    def test_non_finite_rejected(self, low, high, param):
        with pytest.raises(DistributionError, match=f"uniform {param} must be finite"):
            Uniform(low, high)

    def test_invalid_bounds(self):
        with pytest.raises(DistributionError):
            Uniform(5.0, 2.0)
        with pytest.raises(DistributionError):
            Uniform(-1.0, 2.0)

    @given(
        low=st.floats(min_value=0.0, max_value=1e9),
        width=st.floats(min_value=0.0, max_value=1e9),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_sample_is_numpys_uniform_bit_for_bit(self, low, width, seed):
        """``sample`` spells ``rng.uniform(low, high)`` as arithmetic on
        ``rng.random()``: same floats, and the stream ends up in the same
        place (``width == 0`` is the ``low == high`` case)."""
        high = low + width
        dist = Uniform(low, high)
        ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(300):
            assert dist.sample(ours) == float(numpys.uniform(low, high))
        assert ours.random() == numpys.random()


class TestExponential:
    def test_mean_matches(self, rng):
        dist = Exponential(10.0)
        samples = [dist.sample(rng) for _ in range(5000)]
        assert np.mean(samples) == pytest.approx(10.0, rel=0.1)

    def test_quantile_median(self):
        assert Exponential(10.0).quantile(0.5) == pytest.approx(10.0 * math.log(2))

    @pytest.mark.parametrize("mean", [math.nan, math.inf])
    def test_non_finite_rejected(self, mean):
        with pytest.raises(DistributionError, match="mean_value must be finite"):
            Exponential(mean)

    def test_invalid(self):
        with pytest.raises(DistributionError):
            Exponential(0.0)


class TestLogNormal:
    def test_fit_reproduces_quantiles(self):
        dist = LogNormal.from_median_p90(10.0, 30.0)
        assert dist.quantile(0.5) == pytest.approx(10.0, rel=1e-6)
        assert dist.quantile(0.9) == pytest.approx(30.0, rel=1e-4)

    def test_fit_degenerate_when_p90_equals_median(self):
        dist = LogNormal.from_median_p90(10.0, 10.0)
        assert dist.sigma == 0.0

    @pytest.mark.parametrize(
        "mu, sigma, param",
        [(math.nan, 1.0, "mu"), (-math.inf, 1.0, "mu"), (1.0, math.inf, "sigma"),
         (1.0, math.nan, "sigma")],
    )
    def test_non_finite_rejected(self, mu, sigma, param):
        with pytest.raises(DistributionError, match=f"lognormal {param} must be finite"):
            LogNormal(mu, sigma)

    def test_fit_rejects_bad_quantiles(self):
        with pytest.raises(DistributionError):
            LogNormal.from_median_p90(10.0, 5.0)
        with pytest.raises(DistributionError):
            LogNormal.from_median_p90(0.0, 5.0)

    def test_sample_statistics(self, rng):
        dist = LogNormal.from_median_p90(10.0, 30.0)
        samples = [dist.sample(rng) for _ in range(20000)]
        assert np.median(samples) == pytest.approx(10.0, rel=0.05)
        assert np.percentile(samples, 90) == pytest.approx(30.0, rel=0.08)

    def test_mean_formula(self):
        dist = LogNormal(mu=1.0, sigma=0.5)
        assert dist.mean() == pytest.approx(math.exp(1.0 + 0.125))

    @given(
        median=st.floats(0.1, 1000),
        ratio=st.floats(1.01, 50),
        q=st.floats(0.01, 0.99),
    )
    @settings(max_examples=100)
    def test_quantile_monotone_property(self, median, ratio, q):
        dist = LogNormal.from_median_p90(median, median * ratio)
        assert dist.quantile(q) <= dist.quantile(min(q + 0.005, 0.995)) + 1e-9


class TestWithOutliers:
    def test_no_outliers_passthrough(self, rng):
        dist = WithOutliers(Constant(5.0), outlier_prob=0.0, outlier_factor=4.0)
        assert dist.sample(rng) == 5.0

    def test_outlier_rate(self, rng):
        dist = WithOutliers(Constant(1.0), outlier_prob=0.25, outlier_factor=4.0)
        samples = [dist.sample(rng) for _ in range(4000)]
        rate = sum(1 for s in samples if s == 4.0) / len(samples)
        assert rate == pytest.approx(0.25, abs=0.03)

    def test_mean_accounts_for_outliers(self):
        dist = WithOutliers(Constant(1.0), outlier_prob=0.5, outlier_factor=3.0)
        assert dist.mean() == pytest.approx(2.0)

    def test_invalid_params(self):
        with pytest.raises(DistributionError):
            WithOutliers(Constant(1.0), outlier_prob=1.5, outlier_factor=2.0)
        with pytest.raises(DistributionError):
            WithOutliers(Constant(1.0), outlier_prob=0.1, outlier_factor=0.5)

    @pytest.mark.parametrize("factor", [math.nan, math.inf])
    def test_non_finite_factor_rejected(self, factor):
        with pytest.raises(DistributionError, match="outlier_factor must be finite"):
            WithOutliers(Constant(1.0), outlier_prob=0.1, outlier_factor=factor)
        with pytest.raises(DistributionError, match="outlier_prob"):
            WithOutliers(Constant(1.0), outlier_prob=math.nan, outlier_factor=2.0)


class TestTruncated:
    def test_samples_capped(self, rng):
        dist = Truncated(LogNormal.from_median_p90(10.0, 30.0), cap=35.0)
        for _ in range(500):
            assert dist.sample(rng) <= 35.0

    def test_quantile_capped(self):
        dist = Truncated(LogNormal.from_median_p90(10.0, 30.0), cap=20.0)
        assert dist.quantile(0.99) == 20.0
        assert dist.quantile(0.5) == pytest.approx(10.0, rel=1e-6)

    def test_mean_below_cap(self):
        base = LogNormal.from_median_p90(10.0, 30.0)
        assert Truncated(base, cap=15.0).mean() <= 15.0

    def test_invalid_cap(self):
        with pytest.raises(DistributionError):
            Truncated(Constant(1.0), cap=0.0)

    @pytest.mark.parametrize("cap", [math.nan, math.inf])
    def test_non_finite_cap_rejected(self, cap):
        with pytest.raises(DistributionError, match="truncated cap must be finite"):
            Truncated(Constant(1.0), cap=cap)

    def test_scalar_and_block_draws_agree(self):
        """The runtime draws one value at a time and the simulator a block
        of the same stream.  A NaN cap split them: ``min`` ignores NaN and
        returned the base draw, ``np.minimum`` propagated it."""
        dist = Truncated(Uniform(0.0, 10.0), cap=5.0)
        scalar_rng = np.random.default_rng(8)
        scalar = [dist.sample(scalar_rng) for _ in range(200)]
        block = dist.sample_n(np.random.default_rng(8), 200).tolist()
        assert scalar == block
        assert 5.0 in scalar and min(scalar) < 5.0
        with pytest.raises(DistributionError, match="cap"):
            Truncated(Uniform(0.0, 10.0), cap=math.nan)

    @given(cap=st.floats(1.0, 100.0))
    @settings(max_examples=50)
    def test_cap_property(self, cap):
        rng = np.random.default_rng(0)
        dist = Truncated(Exponential(50.0), cap=cap)
        assert all(dist.sample(rng) <= cap for _ in range(50))


class TestEmpirical:
    def test_samples_from_values(self, rng):
        dist = Empirical([1.0, 2.0, 3.0])
        assert set(dist.sample(rng) for _ in range(100)) <= {1.0, 2.0, 3.0}

    def test_mean(self):
        assert Empirical([1.0, 2.0, 3.0]).mean() == 2.0

    def test_quantile_interpolates(self):
        assert Empirical([0.0, 10.0]).quantile(0.5) == 5.0

    def test_sample_many_shape(self, rng):
        assert Empirical([1.0, 2.0]).sample_many(rng, 17).shape == (17,)

    def test_empty_rejected(self):
        with pytest.raises(DistributionError):
            Empirical([])

    def test_negative_rejected(self):
        with pytest.raises(DistributionError):
            Empirical([1.0, -2.0])

    @pytest.mark.parametrize(
        "values", [[math.nan], [1.0, math.inf], [2.0, 3.0, -math.inf]]
    )
    def test_non_finite_rejected(self, values):
        """A NaN value gave a simulated run of NaN duration."""
        where = rf"empirical values\[{len(values) - 1}\] must be finite"
        with pytest.raises(DistributionError, match=where):
            Empirical(values)

    def test_len(self):
        assert len(Empirical([1.0, 2.0, 3.0])) == 3


class TestScaled:
    def test_sample_scaled(self, rng):
        assert Scaled(Constant(3.0), 2.0).sample(rng) == 6.0

    def test_mean_and_quantile_scaled(self):
        dist = Scaled(Uniform(0.0, 10.0), 3.0)
        assert dist.mean() == 15.0
        assert dist.quantile(0.5) == 15.0

    def test_scale_helper_flattens(self):
        nested = scale(scale(Constant(1.0), 2.0), 3.0)
        assert isinstance(nested, Scaled)
        assert isinstance(nested.base, Constant)
        assert nested.factor == 6.0

    def test_scale_helper_identity(self):
        base = Constant(1.0)
        assert scale(base, 1.0) is base

    def test_invalid_factor(self):
        with pytest.raises(DistributionError):
            Scaled(Constant(1.0), 0.0)

    @pytest.mark.parametrize("factor", [float("nan"), float("inf")])
    def test_non_finite_factor(self, factor):
        with pytest.raises(DistributionError, match="positive and finite"):
            Scaled(Constant(1.0), factor)


# ----------------------------------------------------------------------
# drawer(rng) against sample(rng), bit for bit
# ----------------------------------------------------------------------

finite = dict(allow_nan=False, allow_infinity=False)
leaves = st.one_of(
    st.floats(0.0, 1e6, **finite).map(Constant),
    st.tuples(st.floats(0.0, 1e6, **finite), st.floats(0.0, 1e6, **finite)).map(
        lambda lw: Uniform(lw[0], lw[0] + lw[1])
    ),
    # low == high: a uniform that still consumes one double per draw.
    st.floats(0.0, 1e6, **finite).map(lambda v: Uniform(v, v)),
    st.floats(1e-3, 1e6, **finite).map(Exponential),
    st.tuples(st.floats(-5.0, 5.0, **finite), st.floats(0.0, 3.0, **finite)).map(
        lambda ms: LogNormal(*ms)
    ),
    st.lists(st.floats(0.0, 1e6, **finite), min_size=1, max_size=6).map(Empirical),
)
distributions = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from([0.0, 0.05, 0.5, 1.0]),
                  st.floats(1.0, 20.0, **finite)).map(lambda a: WithOutliers(*a)),
        st.tuples(inner, st.floats(1e-3, 1e6, **finite)).map(lambda a: Truncated(*a)),
        st.tuples(inner, st.floats(1e-3, 1e3, **finite)).map(lambda a: Scaled(*a)),
    ),
    max_leaves=4,
)
#: Generator calls made on both sides between draws: they take or leave
#: PCG64's cached 32-bit half-word, which an ``Empirical`` draw also uses.
between = st.lists(st.sampled_from([None, "random", "integers"]), max_size=40)


class TestDrawerIsSample:
    @given(dist=distributions, seed=st.integers(0, 2**32 - 1), plan=between)
    def test_drawer_is_sample_bit_for_bit(self, dist, seed, plan):
        """Each call of ``dist.drawer(rng)`` returns the value ``dist.sample``
        returns on a twin Generator and leaves the stream where it leaves
        it, through nested chains, zero outlier probability, ``low ==
        high`` and one-value traces."""
        ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
        draw = dist.drawer(ours)
        for step in plan + [None] * 10:
            got, want = draw(), dist.sample(numpys)
            assert got == want and type(got) is type(want)
            if step == "random":
                assert ours.random() == numpys.random()
            elif step == "integers":
                assert ours.integers(0, 5) == numpys.integers(0, 5)
        assert ours.random() == numpys.random()
        assert ours.integers(0, 2**32) == numpys.integers(0, 2**32)

    def test_no_closure_is_kept_on_the_distribution(self):
        dist = Scaled(Truncated(WithOutliers(LogNormal(1.0, 0.5), 0.1, 4.0), 9.0), 2.0)
        empirical = Empirical([1.0, 2.0])
        before = (dict(vars(dist)), dict(vars(empirical)))
        dist.drawer(np.random.default_rng(0))
        empirical.drawer(np.random.default_rng(0))
        assert (vars(dist), vars(empirical)) == before
