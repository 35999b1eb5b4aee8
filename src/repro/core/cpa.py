"""C(p, a): precomputed remaining-completion-time distributions.

The paper's key data structure (§4.1): a random variable giving the time
still needed to finish the job when it has made progress ``p`` and holds
``a`` tokens.  Built offline by simulating the job repeatedly at each
allocation on a grid; every sampling instant of every run contributes one
``(p_t, T − t)`` observation.  At runtime the control loop indexes the
table with the live progress-indicator value and reads a configurable high
percentile (predicting the worst case, §5.3).

Performance notes:

* **Construction** fans out over :func:`repro.parallel.parallel_map`: each
  ``(allocation, rep)`` simulation is an independent unit with its own RNG
  substream (derived via :func:`repro.simkit.random.derive_seed`), so the
  table is bit-identical for a fixed seed at any worker count.
* **Queries** are row reads: C(p, a) is computed offline and only indexed
  at runtime.  Samples are stored sorted per progress bin; the first query
  at a percentile ``q`` derives its ``(num_bins + 1) x |allocations|``
  quantile rows by index arithmetic vectorized over bins (the scalar
  lookup's IEEE operations in its order, so the same bits), and the first
  :meth:`remaining_curve` over a candidate grid interpolates them to the
  grid once.  Both memos fill idempotently (no lock) and are not pickled.
* **Binning** is one numpy pass per allocation: one sort by (progress
  bin, remaining time), sliced at the bins' counts.
* **Construction** checks what every query reads blind — positive
  allocations, each with ``num_bins + 1`` non-empty bins of finite
  ascending samples — so a malformed bundle or cache entry is refused
  where it enters.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.simulator import simulate_job
from repro.jobs.profiles import JobProfile
from repro.parallel import parallel_map
from repro.settable import is_count, is_positive_finite
from repro.simkit.random import derive_seed


class CpaError(ValueError):
    """Raised for invalid table construction or queries."""


DEFAULT_ALLOCATIONS = (10, 20, 30, 40, 50, 60, 70, 80, 90, 100)


@dataclass
class _AllocationColumn:
    """Sorted remaining-time samples per progress bin for one allocation.

    ``bins`` is the source of truth (one sorted array per progress bin);
    the flattened ``_data``/``_offsets``/``_sizes`` triple built at
    construction is the quantile-ready layout every query runs on.
    """

    bins: List[np.ndarray]
    _data: np.ndarray = field(init=False, repr=False)
    _offsets: np.ndarray = field(init=False, repr=False)
    _sizes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        sizes = np.array([b.size for b in self.bins], dtype=np.int64)
        offsets = np.zeros(len(self.bins), dtype=np.int64)
        if len(sizes):
            np.cumsum(sizes[:-1], out=offsets[1:])
        self._data = (
            np.concatenate(self.bins) if self.bins else np.empty(0, dtype=float)
        )
        self._offsets = offsets
        self._sizes = sizes

    def check(self, allocation: int, num_bins: int) -> None:
        """Raise :class:`CpaError` naming ``allocation`` and the bin unless
        the column holds ``num_bins + 1`` non-empty bins of finite samples
        in ascending order: what :meth:`percentiles` reads blind."""
        data, offsets = self._data, self._offsets
        if len(self.bins) != num_bins + 1 or data.ndim != 1:
            raise CpaError(
                f"allocation {allocation}: needs {num_bins + 1} one-dimensional"
                f" progress bins, got {len(self.bins)}"
            )
        empty = np.flatnonzero(self._sizes == 0)
        if empty.size:
            raise CpaError(
                f"allocation {allocation}: progress bin {empty[0]} is empty"
            )
        starts = np.zeros(data.size, dtype=bool)
        starts[offsets] = True
        for bad, what in (
            (~np.isfinite(data), "holds a non-finite sample"),
            ((data < np.roll(data, 1)) & ~starts, "is not in ascending order"),
        ):
            if bad.any():
                bin_index = np.searchsorted(offsets, bad.argmax(), "right") - 1
                raise CpaError(
                    f"allocation {allocation}: progress bin {bin_index} {what}"
                )

    def percentiles(self, q: float) -> np.ndarray:
        """Quantile ``q`` of every bin, linearly interpolated
        (``np.quantile``'s default method) by index arithmetic on the
        stored sorted samples.  Assumes :meth:`check` passed."""
        data, sizes = self._data, self._sizes
        last = self._offsets + sizes - 1
        pos = q * (sizes - 1)
        lo = pos.astype(np.int64)
        at = np.minimum(self._offsets + lo, last)
        lo_v = data[at]
        between = lo_v + (data[np.minimum(at + 1, last)] - lo_v) * (pos - lo)
        return np.where(lo >= sizes - 1, data[last], between)

    def frac_above(self, bin_index: int, threshold: float) -> float:
        """Fraction of the bin's samples strictly above ``threshold``."""
        n = int(self._sizes[bin_index])
        off = int(self._offsets[bin_index])
        pos = int(
            np.searchsorted(self._data[off:off + n], threshold, side="right")
        )
        return (n - pos) / n


def _build_unit(spec) -> np.ndarray:
    """One independent ``(allocation, rep)`` simulation: the parallel unit.

    Module-level so it pickles into worker processes.  ``spec`` is
    ``(profile, indicator, allocation, unit_seed, sample_dt)``; the result
    is the run's :meth:`~SimulatedRun.remaining_samples` as an ``(n, 2)``
    array (the same IEEE subtraction, done once per run).
    """
    profile, indicator, allocation, unit_seed, sample_dt = spec
    run = simulate_job(
        profile,
        allocation,
        np.random.default_rng(unit_seed),
        indicator=indicator,
        sample_dt=sample_dt,
    )
    times, progress = np.fromiter(
        chain.from_iterable(run.progress_samples), float
    ).reshape(-1, 2).T
    return np.stack((progress, run.duration - times), axis=1)


class CpaTable:
    """The C(p, a) lookup table.

    Queries interpolate linearly between grid allocations and clamp outside
    the grid.  Progress bins left empty by simulation (progress values the
    job jumps over) inherit the nearest *lower* non-empty bin — the
    conservative direction, since remaining time decreases with progress.
    """

    def __init__(
        self,
        allocations: Sequence[int],
        columns: Dict[int, _AllocationColumn],
        num_bins: int,
    ):
        if not allocations:
            raise CpaError("no allocations")
        if num_bins < 1:
            raise CpaError(f"need at least one progress bin, got {num_bins!r}")
        self.allocations = sorted(set(int(a) for a in allocations))
        for a in self.allocations:
            if a <= 0:
                raise CpaError(f"allocation {a} is not positive")
            if a not in columns:
                raise CpaError(f"allocation {a} has no column")
            columns[a].check(a, num_bins)
        self._columns = columns
        self.num_bins = num_bins
        #: Memos (see the module's performance notes): q -> quantile rows,
        #: and (q, candidate grid) -> those rows interpolated to the grid.
        self._quantile_rows: Dict[float, np.ndarray] = {}
        self._curves: Dict[tuple, np.ndarray] = {}

    def __getstate__(self):
        # Derived data: a copy or a worker process fills its own.
        state = self.__dict__.copy()
        state["_quantile_rows"], state["_curves"] = {}, {}
        return state

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        profile: JobProfile,
        indicator,
        rng: Optional[np.random.Generator] = None,
        *,
        allocations: Sequence[int] = DEFAULT_ALLOCATIONS,
        reps: int = 10,
        num_bins: int = 100,
        sample_dt: float = 15.0,
        seed: Optional[int] = None,
        jobs: Optional[int] = None,
    ) -> "CpaTable":
        """Simulate ``reps`` runs at every allocation and bin the samples.

        Every ``(allocation, rep)`` run is an independent unit seeded by
        ``derive_seed(base, ...)`` — with an explicit ``seed`` the base is
        that seed; with an ``rng`` the base is one draw from it.  Units fan
        out over ``jobs`` worker processes (``None`` defers to the
        ``REPRO_JOBS`` environment variable, default serial); the resulting
        table is identical at any worker count.
        """
        # Both checked before any unit runs, so a bad value costs no
        # simulation and is named, not a bare TypeError from numpy.
        if not is_count(reps):
            raise CpaError(f"reps must be an integer >= 1, got {reps!r}")
        if not (is_count(num_bins) and num_bins >= 2):
            raise CpaError(f"num_bins must be an integer >= 2, got {num_bins!r}")
        if not is_positive_finite(sample_dt):
            raise CpaError(f"sample_dt must be finite and > 0, got {sample_dt!r}")
        if seed is not None:
            base_seed = int(seed)
        elif rng is not None:
            base_seed = int(rng.integers(0, 2**63))
        else:
            raise CpaError("build needs an rng or an explicit seed")
        for i, a in enumerate(allocations):
            if not is_count(a):
                raise CpaError(f"allocation must be an integer >= 1, got {a!r}")
            if a in allocations[:i]:
                raise CpaError(f"allocation {a} is repeated")
        allocations = [int(a) for a in allocations]
        specs = [
            (
                profile,
                indicator,
                a,
                derive_seed(base_seed, f"cpa-unit:{a}:{rep}"),
                sample_dt,
            )
            for a in allocations
            for rep in range(reps)
        ]
        results = parallel_map(_build_unit, specs, jobs=jobs)
        columns = {
            a: cls._finalize_column(
                np.concatenate(results[i * reps:(i + 1) * reps]), a, num_bins
            )
            for i, a in enumerate(allocations)
        }
        return cls(allocations, columns, num_bins)

    @staticmethod
    def _finalize_column(samples, allocation: int, num_bins: int) -> _AllocationColumn:
        """Bin one allocation's ``(progress, remaining)`` samples in one
        pass: a sort by (bin, remaining), sliced at the bins' counts."""
        progress, remaining = np.asarray(samples, dtype=float).reshape(-1, 2).T
        if not progress.size:
            raise CpaError("no samples at any progress value")
        if not 0 <= progress.min() <= progress.max() <= 1:
            raise CpaError(f"allocation {allocation}: progress out of [0, 1]")
        idx = (progress * num_bins).astype(np.int64)
        counts = np.bincount(idx, minlength=num_bins + 1)
        ranked = remaining[np.lexsort((remaining, idx))]
        ends = np.cumsum(counts)
        # An empty bin (a progress value the job jumps over) inherits the
        # nearest lower filled bin; leading empty bins (possible only if
        # progress never hit 0, which cannot happen: sampling starts at
        # t = 0) inherit the first filled.
        source = np.maximum.accumulate(
            np.where(counts > 0, np.arange(num_bins + 1), -1)
        )
        source[source < 0] = np.flatnonzero(counts)[0]
        bins = [ranked[lo:hi] for lo, hi in zip((ends - counts).tolist(), ends.tolist())]
        return _AllocationColumn(bins=[bins[j] for j in source.tolist()])

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _bin_index(self, progress: float) -> int:
        if not -1e-9 <= progress <= 1 + 1e-9:
            raise CpaError(f"progress {progress!r} out of [0, 1]")
        return min(max(int(progress * self.num_bins), 0), self.num_bins)

    def _bracket(self, allocation: float) -> Tuple[int, int, float]:
        """Grid positions ``lo``, ``hi`` and weight ``w`` of ``allocation``:
        a query reads ``v[lo] + (v[hi] - v[lo]) * w`` off a per-allocation
        row ``v``.  An exact grid hit and both clamped ends read one column
        with ``w = 0``."""
        if not 0 < allocation < math.inf:
            raise CpaError(f"allocation must be finite and > 0, got {allocation!r}")
        allocation = float(allocation)
        grid = self.allocations
        hi = bisect.bisect_left(grid, allocation)
        if hi == len(grid):
            return hi - 1, hi - 1, 0.0
        if hi == 0 or grid[hi] == allocation:
            return hi, hi, 0.0
        lo_a, hi_a = grid[hi - 1], grid[hi]
        return hi - 1, hi, (allocation - lo_a) / (hi_a - lo_a)

    def _rows(self, q: float) -> np.ndarray:
        """Percentile ``q``'s ``(num_bins + 1) x |allocations|`` quantile
        rows, built on first use: ``[i, j]`` is quantile ``q`` of progress
        bin ``i`` at grid allocation ``j``."""
        rows = self._quantile_rows.get(q)
        if rows is None:
            if not 0 <= q <= 1:
                raise CpaError(f"percentile {q!r} out of [0, 1]")
            rows = np.stack(
                [self._columns[a].percentiles(q) for a in self.allocations], axis=1
            )
            self._quantile_rows[q] = rows
        return rows

    def remaining(self, progress: float, allocation: float, *, q: float = 0.9) -> float:
        """Remaining seconds at the given progress and allocation, at
        percentile ``q`` of the simulated distribution."""
        lo, hi, w = self._bracket(allocation)
        row = self._rows(q)[self._bin_index(progress)]
        return float(row[lo] + (row[hi] - row[lo]) * w)

    def remaining_curve(
        self,
        progress: float,
        allocations: Sequence[float],
        *,
        q: float = 0.9,
    ) -> np.ndarray:
        """Vectorized :meth:`remaining` over many candidate allocations.

        One call answers the control loop's whole allocation scan; each
        element equals the corresponding scalar ``remaining`` query
        exactly.  The first call for a ``(q, allocations)`` pair
        interpolates every progress bin at once; later calls copy one row.
        """
        idx = self._bin_index(progress)
        try:
            key = (q, tuple(allocations))
            curves = self._curves.get(key)
        except TypeError:  # not iterable, or unhashable items: checked below
            key = curves = None
        if curves is None:
            asked = np.asarray(allocations, dtype=float)
            if asked.ndim != 1:
                raise CpaError("allocations must be one-dimensional")
            rows = self._rows(q)
            brackets = [self._bracket(a) for a in asked.tolist()]
            lo, hi, w = np.array(brackets, dtype=float).reshape(-1, 3).T
            lo, hi = lo.astype(np.intp), hi.astype(np.intp)
            curves = rows[:, lo] + (rows[:, hi] - rows[:, lo]) * w
            if key is not None:
                self._curves[key] = curves
        return curves[idx].copy()

    def remaining_quantiles(
        self,
        progress: float,
        allocation: float,
        qs: Sequence[float],
    ) -> Dict[float, float]:
        """Several quantiles of the same C(p, a) distribution in one call:
        ``{q: remaining seconds}``.  The allocation is bracketed once and
        each quantile is a read of its quantile row, so reading a whole
        prediction band costs barely more than one :meth:`remaining`
        query.  Every value equals the corresponding scalar
        ``remaining(progress, allocation, q=q)`` exactly."""
        lo, hi, w = self._bracket(allocation)
        idx = self._bin_index(progress)
        band = {}
        for q in qs:
            row = self._rows(q)[idx]
            band[q] = float(row[lo] + (row[hi] - row[lo]) * w)
        return band

    def predicted_duration(self, allocation: float, *, q: float = 0.9) -> float:
        """Predicted full-job latency at a steady allocation: C(0, a)."""
        return self.remaining(0.0, allocation, q=q)

    def exceedance(
        self, progress: float, allocation: float, threshold: float
    ) -> float:
        """``P(C(p, a) > threshold)``: the fraction of simulated
        remaining-time samples above ``threshold``, interpolated linearly
        between grid allocations (clamped outside the grid, like
        :meth:`remaining`).  With ``threshold`` set to the time left until
        the deadline, this is the per-tick probability of missing it — the
        deadline-risk signal the SLO analytics report."""
        lo, hi, w = self._bracket(allocation)
        idx = self._bin_index(progress)
        grid, columns = self.allocations, self._columns
        lo_v = columns[grid[lo]].frac_above(idx, threshold)
        hi_v = lo_v if hi == lo else columns[grid[hi]].frac_above(idx, threshold)
        return lo_v + (hi_v - lo_v) * w

    def min_allocation_for(
        self, budget_seconds: float, *, progress: float = 0.0, q: float = 0.9
    ) -> Optional[int]:
        """Smallest grid allocation whose predicted remaining time at
        ``progress`` fits the budget, or None if even the largest cannot —
        the least the job can be guaranteed.  A running job passes its
        progress and ``deadline - elapsed``; a caller that wants slack
        divides the budget by it."""
        if math.isnan(budget_seconds):
            raise CpaError(f"budget_seconds must be a number, got {budget_seconds!r}")
        row = self._rows(q)[self._bin_index(progress)]
        return next(
            (a for a, v in zip(self.allocations, row) if v <= budget_seconds), None
        )

    def sample_counts(self) -> Dict[int, int]:
        """Total samples per allocation (diagnostics)."""
        return {
            a: int(sum(b.size for b in self._columns[a].bins))
            for a in self.allocations
        }


__all__ = ["CpaError", "CpaTable", "DEFAULT_ALLOCATIONS"]
