"""Latency distributions used by profiles and workload generators.

The paper characterizes stage behaviour by quantiles (median and 90th
percentile of task runtimes, Table 2) and notes heavy-tailed outliers.  We
model runtimes with lognormals fitted to those quantiles, optionally mixed
with an outlier tail, and with empirical distributions when a trace is
available.

Every distribution draws two ways with the same bits: ``sample(rng)`` one
value per call through the Generator, and ``drawer(rng)`` a zero-argument
closure, built once, whose every call makes the draws ``sample(rng)`` would
make next, in the same order (the batch path's per-attempt draws; see
:func:`repro.simkit.random.scalar_draws`).  A closure is never stored on a
distribution: profiles cross process pools, closures do not pickle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, List, Union

import numpy as np

from repro.simkit.random import scalar_draws

# z-score of the 90th percentile of the standard normal.
_Z90 = 1.2815515655446004


class DistributionError(ValueError):
    """Raised for invalid distribution parameters."""


def _finite(owner: str, **params: float) -> None:
    """Refuse a NaN or infinite parameter, naming it: every range check
    below is a comparison, and NaN passes a negated one."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise DistributionError(f"{owner} {name} must be finite, got {value!r}")


@dataclass(frozen=True)
class Constant:
    """A degenerate distribution: always ``value``."""

    value: float

    def __post_init__(self):
        _finite("constant", value=self.value)
        if self.value < 0:
            raise DistributionError(f"negative constant {self.value!r}")

    def sample(self, rng: np.random.Generator) -> float:
        return self.value

    def drawer(self, rng: np.random.Generator) -> Callable[[], float]:
        value = self.value
        return lambda: value

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, self.value, dtype=float)

    def mean(self) -> float:
        return self.value

    def quantile(self, q: float) -> float:
        return self.value


@dataclass(frozen=True)
class Uniform:
    """Uniform on ``[low, high]``."""

    low: float
    high: float

    def __post_init__(self):
        _finite("uniform", low=self.low, high=self.high)
        if not 0 <= self.low <= self.high:
            raise DistributionError(f"bad uniform bounds [{self.low}, {self.high}]")

    def sample(self, rng: np.random.Generator) -> float:
        # The expression numpy's random_uniform evaluates on the same
        # next_double, without rng.uniform's scalar-argument handling.
        return self.low + (self.high - self.low) * rng.random()

    def drawer(self, rng: np.random.Generator) -> Callable[[], float]:
        low, span = self.low, self.high - self.low
        double = scalar_draws(rng)[0]
        return lambda: low + span * double()

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=n)

    def mean(self) -> float:
        return (self.low + self.high) / 2.0

    def quantile(self, q: float) -> float:
        return self.low + q * (self.high - self.low)


@dataclass(frozen=True)
class Exponential:
    """Exponential with the given mean (not rate)."""

    mean_value: float

    def __post_init__(self):
        _finite("exponential", mean_value=self.mean_value)
        if self.mean_value <= 0:
            raise DistributionError(f"mean must be positive, got {self.mean_value!r}")

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.exponential(self.mean_value))

    def drawer(self, rng: np.random.Generator) -> Callable[[], float]:
        # numpy's own call, bound: its ziggurat and arithmetic are in C,
        # and a scalar call returns a Python float, so no frame of ours.
        return partial(rng.exponential, self.mean_value)

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.exponential(self.mean_value, size=n)

    def mean(self) -> float:
        return self.mean_value

    def quantile(self, q: float) -> float:
        if not 0 <= q < 1:
            raise DistributionError(f"quantile {q!r} out of [0, 1)")
        return -self.mean_value * math.log1p(-q)


@dataclass(frozen=True)
class LogNormal:
    """Lognormal parameterized by the underlying normal's ``mu``/``sigma``."""

    mu: float
    sigma: float

    def __post_init__(self):
        _finite("lognormal", mu=self.mu, sigma=self.sigma)
        if self.sigma < 0:
            raise DistributionError(f"sigma must be >= 0, got {self.sigma!r}")

    @classmethod
    def from_median_p90(cls, median: float, p90: float) -> "LogNormal":
        """Fit a lognormal to an observed median and 90th percentile.

        This is how Table 2's published quantiles become samplable stage
        runtime distributions.
        """
        if median <= 0 or p90 < median:
            raise DistributionError(
                f"need 0 < median <= p90, got median={median!r}, p90={p90!r}"
            )
        mu = math.log(median)
        sigma = (math.log(p90) - mu) / _Z90 if p90 > median else 0.0
        return cls(mu=mu, sigma=sigma)

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.lognormal(self.mu, self.sigma))

    def drawer(self, rng: np.random.Generator) -> Callable[[], float]:
        # numpy's own call, bound: ``exp(mu + sigma * z)`` is evaluated in
        # C, where the compiler may contract it into a fused multiply-add,
        # and a scalar call returns a Python float, so no frame of ours.
        return partial(rng.lognormal, self.mu, self.sigma)

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.lognormal(self.mu, self.sigma, size=n)

    def mean(self) -> float:
        return math.exp(self.mu + self.sigma**2 / 2.0)

    def quantile(self, q: float) -> float:
        if not 0 < q < 1:
            raise DistributionError(f"quantile {q!r} out of (0, 1)")
        # Inverse CDF via the normal quantile (Acklam-free: use erfinv).
        from math import sqrt

        z = sqrt(2.0) * _erfinv(2.0 * q - 1.0)
        return math.exp(self.mu + self.sigma * z)


def _erfinv(x: float) -> float:
    """Inverse error function (Winitzki's approximation, refined by Newton)."""
    if not -1.0 < x < 1.0:
        raise DistributionError(f"erfinv domain error: {x!r}")
    a = 0.147
    ln1mx2 = math.log(1.0 - x * x)
    term = 2.0 / (math.pi * a) + ln1mx2 / 2.0
    y = math.copysign(math.sqrt(math.sqrt(term**2 - ln1mx2 / a) - term), x)
    # Two Newton steps against erf for ~1e-12 accuracy.
    for _ in range(2):
        err = math.erf(y) - x
        y -= err / (2.0 / math.sqrt(math.pi) * math.exp(-y * y))
    return y


@dataclass(frozen=True)
class WithOutliers:
    """Mixture: with probability ``outlier_prob`` multiply a base draw by
    ``outlier_factor`` — the paper's stragglers/outliers (§4.1)."""

    base: "Distribution"
    outlier_prob: float
    outlier_factor: float

    def __post_init__(self):
        _finite("outlier mixture", outlier_factor=self.outlier_factor)
        if not 0 <= self.outlier_prob <= 1:
            raise DistributionError(f"outlier_prob {self.outlier_prob!r} out of [0,1]")
        if self.outlier_factor < 1:
            raise DistributionError(
                f"outlier_factor must be >= 1, got {self.outlier_factor!r}"
            )

    def sample(self, rng: np.random.Generator) -> float:
        value = self.base.sample(rng)
        if self.outlier_prob > 0 and rng.random() < self.outlier_prob:
            value *= self.outlier_factor
        return value

    def drawer(self, rng: np.random.Generator) -> Callable[[], float]:
        base = self.base.drawer(rng)
        prob, factor = self.outlier_prob, self.outlier_factor
        if prob == 0:
            return base
        double = scalar_draws(rng)[0]

        def draw() -> float:
            value = base()
            if double() < prob:
                value *= factor
            return value

        return draw

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        values = sample_n(self.base, rng, n)
        if self.outlier_prob > 0:
            mask = rng.random(n) < self.outlier_prob
            # In place on the freshly drawn block: same values as the
            # np.where form without scaling the non-outliers first.
            values[mask] *= self.outlier_factor
        return values

    def mean(self) -> float:
        base_mean = self.base.mean()
        return base_mean * (1 + self.outlier_prob * (self.outlier_factor - 1))

    def quantile(self, q: float) -> float:
        # Approximation: outliers only shift the extreme tail.
        if q <= 1 - self.outlier_prob:
            return self.base.quantile(min(q / max(1e-12, 1 - self.outlier_prob), 1 - 1e-9))
        return self.base.quantile(q) * self.outlier_factor


@dataclass(frozen=True)
class Truncated:
    """A base distribution with draws capped at ``cap``.

    Synthetic task-runtime lognormals fitted to published quantiles have
    unbounded tails; real data-parallel tasks are bounded by their input
    partition size.  Workload generators cap runtimes at a small multiple
    of the stage's 90th percentile.
    """

    base: "Distribution"
    cap: float

    def __post_init__(self):
        _finite("truncated", cap=self.cap)
        if self.cap <= 0:
            raise DistributionError(f"cap must be positive, got {self.cap!r}")

    def sample(self, rng: np.random.Generator) -> float:
        return min(self.base.sample(rng), self.cap)

    def drawer(self, rng: np.random.Generator) -> Callable[[], float]:
        base, cap = self.base.drawer(rng), self.cap

        def draw() -> float:
            # min(value, cap) without the builtin's call: cap only if below.
            value = base()
            return cap if cap < value else value

        return draw

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        values = sample_n(self.base, rng, n)
        np.minimum(values, self.cap, out=values)
        return values

    def mean(self) -> float:
        # Monte-Carlo-free approximation: integrate the quantile function.
        qs = np.linspace(0.005, 0.995, 100)
        return float(np.mean([min(self.base.quantile(q), self.cap) for q in qs]))

    def quantile(self, q: float) -> float:
        return min(self.base.quantile(q), self.cap)


@dataclass
class Empirical:
    """Resample from observed values (a trace).

    ``quantile`` interpolates linearly, matching ``numpy.quantile``.
    """

    values: List[float] = field(default_factory=list)

    def __post_init__(self):
        if not self.values:
            raise DistributionError("empirical distribution needs at least one value")
        self._array = np.asarray(self.values, dtype=float)
        finite = np.isfinite(self._array)
        if not finite.all():
            bad = int(finite.argmin())
            raise DistributionError(
                f"empirical values[{bad}] must be finite, got {self.values[bad]!r}"
            )
        if any(v < 0 for v in self.values):
            raise DistributionError("empirical values must be non-negative")

    def sample(self, rng: np.random.Generator) -> float:
        return float(self._array[rng.integers(0, len(self._array))])

    def drawer(self, rng: np.random.Generator) -> Callable[[], float]:
        values = self._array.tolist()
        n, below = len(values), scalar_draws(rng)[1]
        return lambda: values[below(n)]

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self._array[rng.integers(0, len(self._array), size=n)]

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.sample_many(rng, n)

    def mean(self) -> float:
        return float(self._array.mean())

    def quantile(self, q: float) -> float:
        return float(np.quantile(self._array, q))

    def __len__(self) -> int:
        return len(self._array)


@dataclass(frozen=True)
class Scaled:
    """A base distribution with every draw multiplied by ``factor``.

    Used to model input-size scaling and cluster-wide slowdowns.
    """

    base: "Distribution"
    factor: float

    def __post_init__(self):
        if not 0 < self.factor < math.inf:
            raise DistributionError(f"factor must be positive and finite, got {self.factor!r}")

    def sample(self, rng: np.random.Generator) -> float:
        return self.base.sample(rng) * self.factor

    def drawer(self, rng: np.random.Generator) -> Callable[[], float]:
        base, factor = self.base.drawer(rng), self.factor
        return lambda: base() * factor

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return sample_n(self.base, rng, n) * self.factor

    def mean(self) -> float:
        return self.base.mean() * self.factor

    def quantile(self, q: float) -> float:
        return self.base.quantile(q) * self.factor


Distribution = Union[
    Constant,
    Uniform,
    Exponential,
    LogNormal,
    WithOutliers,
    Empirical,
    Scaled,
    Truncated,
]


def scale(dist: "Distribution", factor: float) -> "Distribution":
    """Scale a distribution, flattening nested ``Scaled`` wrappers."""
    if factor == 1.0:
        return dist
    if isinstance(dist, Scaled):
        return Scaled(dist.base, dist.factor * factor)
    return Scaled(dist, factor)


def sample_n(dist: "Distribution", rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw ``n`` values from ``dist`` as one vectorized block.

    Every built-in distribution implements ``sample_n``; third-party
    distributions that only provide scalar ``sample`` fall back to a loop
    with the same per-draw order.
    """
    batched = getattr(dist, "sample_n", None)
    if batched is not None:
        return np.asarray(batched(rng, n), dtype=float)
    return np.asarray([dist.sample(rng) for _ in range(n)], dtype=float)


__all__ = [
    "Constant",
    "Distribution",
    "DistributionError",
    "Empirical",
    "Exponential",
    "LogNormal",
    "Scaled",
    "Truncated",
    "Uniform",
    "WithOutliers",
    "sample_n",
    "scale",
]
