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
* **Queries** never call ``np.quantile``: each progress bin's samples are
  stored sorted and concatenated per column, and a percentile is O(1)
  index arithmetic into that array.  :meth:`remaining_curve` answers a
  whole candidate-allocation scan in one vectorized call.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.simulator import simulate_job
from repro.jobs.profiles import JobProfile
from repro.parallel import parallel_map
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

    def percentile(self, bin_index: int, q: float) -> float:
        """Linear-interpolated quantile (``np.quantile``'s default method)
        computed by direct index arithmetic on the stored sorted samples."""
        n = int(self._sizes[bin_index])
        if n == 0:
            raise CpaError(f"empty progress bin {bin_index}")
        off = int(self._offsets[bin_index])
        data = self._data
        if n == 1:
            return float(data[off])
        pos = q * (n - 1)
        lo = int(pos)
        if lo >= n - 1:
            return float(data[off + n - 1])
        lo_v = data[off + lo]
        return float(lo_v + (data[off + lo + 1] - lo_v) * (pos - lo))

    def frac_above(self, bin_index: int, threshold: float) -> float:
        """Fraction of the bin's samples strictly above ``threshold``."""
        n = int(self._sizes[bin_index])
        if n == 0:
            raise CpaError(f"empty progress bin {bin_index}")
        off = int(self._offsets[bin_index])
        pos = int(
            np.searchsorted(self._data[off:off + n], threshold, side="right")
        )
        return (n - pos) / n


def _build_unit(spec) -> List[Tuple[float, float]]:
    """One independent ``(allocation, rep)`` simulation: the parallel unit.

    Module-level so it pickles into worker processes.  ``spec`` is
    ``(profile, indicator, allocation, unit_seed, sample_dt)``.
    """
    profile, indicator, allocation, unit_seed, sample_dt = spec
    run = simulate_job(
        profile,
        allocation,
        np.random.default_rng(unit_seed),
        indicator=indicator,
        sample_dt=sample_dt,
    )
    return run.remaining_samples()


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
        self.allocations = sorted(set(int(a) for a in allocations))
        self._columns = columns
        self._grid_array = np.asarray(self.allocations, dtype=float)
        self.num_bins = num_bins

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
        if reps < 1:
            raise CpaError("need at least one repetition")
        if num_bins < 2:
            raise CpaError("need at least two progress bins")
        if not (sample_dt > 0 and math.isfinite(sample_dt)):
            raise CpaError(f"sample_dt must be finite and > 0, got {sample_dt!r}")
        if seed is not None:
            base_seed = int(seed)
        elif rng is not None:
            base_seed = int(rng.integers(0, 2**63))
        else:
            raise CpaError("build needs an rng or an explicit seed")
        units = [(int(a), rep) for a in allocations for rep in range(reps)]
        specs = [
            (
                profile,
                indicator,
                a,
                derive_seed(base_seed, f"cpa-unit:{a}:{rep}"),
                sample_dt,
            )
            for a, rep in units
        ]
        results = parallel_map(_build_unit, specs, jobs=jobs)
        raw_bins: Dict[int, List[List[float]]] = {
            int(a): [[] for _ in range(num_bins + 1)] for a in allocations
        }
        for (a, _rep), samples in zip(units, results):
            target = raw_bins[a]
            for p, remaining in samples:
                idx = min(int(p * num_bins), num_bins)
                target[idx].append(remaining)
        columns = {
            a: cls._finalize_column(raw) for a, raw in raw_bins.items()
        }
        return cls(allocations, columns, num_bins)

    @staticmethod
    def _finalize_column(raw_bins: List[List[float]]) -> _AllocationColumn:
        bins: List[np.ndarray] = []
        last_filled: Optional[np.ndarray] = None
        for bucket in raw_bins:
            if bucket:
                arr = np.sort(np.asarray(bucket, dtype=float))
                last_filled = arr
            elif last_filled is not None:
                arr = last_filled
            else:
                arr = np.empty(0, dtype=float)
            bins.append(arr)
        # Leading empty bins (possible only if progress never hit 0, which
        # cannot happen — sampling starts at t=0) inherit the first filled.
        first_filled = next((b for b in bins if b.size), None)
        if first_filled is None:
            raise CpaError("no samples at any progress value")
        bins = [b if b.size else first_filled for b in bins]
        return _AllocationColumn(bins=bins)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _bin_index(self, progress: float) -> int:
        if not -1e-9 <= progress <= 1 + 1e-9:
            raise CpaError(f"progress {progress!r} out of [0, 1]")
        return min(max(int(progress * self.num_bins), 0), self.num_bins)

    def remaining(self, progress: float, allocation: float, *, q: float = 0.9) -> float:
        """Remaining seconds at the given progress and allocation, at
        percentile ``q`` of the simulated distribution."""
        if allocation <= 0:
            raise CpaError(f"allocation must be positive, got {allocation!r}")
        if not 0 <= q <= 1:
            raise CpaError(f"percentile {q!r} out of [0, 1]")
        idx = self._bin_index(progress)
        allocation = float(allocation)
        grid = self.allocations
        # Exact-grid fast path: a query at a simulated allocation reads its
        # column directly (no bisect, no interpolation).
        a_int = int(allocation)
        if a_int == allocation and a_int in self._columns:
            return self._columns[a_int].percentile(idx, q)
        if allocation <= grid[0]:
            return self._columns[grid[0]].percentile(idx, q)
        if allocation >= grid[-1]:
            return self._columns[grid[-1]].percentile(idx, q)
        hi_pos = bisect.bisect_left(grid, allocation)
        lo_a, hi_a = grid[hi_pos - 1], grid[hi_pos]
        lo_v = self._columns[lo_a].percentile(idx, q)
        hi_v = self._columns[hi_a].percentile(idx, q)
        w = (allocation - lo_a) / (hi_a - lo_a)
        return lo_v + (hi_v - lo_v) * w

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
        exactly (same interpolation arithmetic, vectorized).
        """
        if not 0 <= q <= 1:
            raise CpaError(f"percentile {q!r} out of [0, 1]")
        idx = self._bin_index(progress)
        asked = np.asarray(allocations, dtype=float)
        if asked.ndim != 1:
            raise CpaError("allocations must be one-dimensional")
        if asked.size == 0:
            return np.empty(0, dtype=float)
        if np.any(asked <= 0):
            raise CpaError("allocations must be positive")
        grid = self._grid_array
        gvals = np.array(
            [self._columns[a].percentile(idx, q) for a in self.allocations]
        )
        clamped = np.clip(asked, grid[0], grid[-1])
        hi = np.searchsorted(grid, clamped, side="left")
        lo = np.maximum(hi - 1, 0)
        # Exact grid hits (including both clamped ends) take the column
        # value directly: weight 0 against its own column.
        lo = np.where(grid[hi] == clamped, hi, lo)
        lo_a, hi_a = grid[lo], grid[hi]
        denom = np.where(hi_a > lo_a, hi_a - lo_a, 1.0)
        w = (clamped - lo_a) / denom
        return gvals[lo] + (gvals[hi] - gvals[lo]) * w

    def remaining_quantiles(
        self,
        progress: float,
        allocation: float,
        qs: Sequence[float],
    ) -> Dict[float, float]:
        """Several quantiles of the same C(p, a) distribution in one call:
        ``{q: remaining seconds}``.  The column (or interpolating column
        pair) is resolved once; each quantile is then O(1) index
        arithmetic, so reading a whole prediction band costs barely more
        than one :meth:`remaining` query.  Every value equals the
        corresponding scalar ``remaining(progress, allocation, q=q)``
        exactly."""
        if allocation <= 0:
            raise CpaError(f"allocation must be positive, got {allocation!r}")
        for q in qs:
            if not 0 <= q <= 1:
                raise CpaError(f"percentile {q!r} out of [0, 1]")
        idx = self._bin_index(progress)
        allocation = float(allocation)
        grid = self.allocations
        a_int = int(allocation)
        if a_int == allocation and a_int in self._columns:
            col = self._columns[a_int]
            return {q: col.percentile(idx, q) for q in qs}
        if allocation <= grid[0]:
            col = self._columns[grid[0]]
            return {q: col.percentile(idx, q) for q in qs}
        if allocation >= grid[-1]:
            col = self._columns[grid[-1]]
            return {q: col.percentile(idx, q) for q in qs}
        hi_pos = bisect.bisect_left(grid, allocation)
        lo_a, hi_a = grid[hi_pos - 1], grid[hi_pos]
        lo_col, hi_col = self._columns[lo_a], self._columns[hi_a]
        w = (allocation - lo_a) / (hi_a - lo_a)
        return {
            q: (lambda lo_v, hi_v: lo_v + (hi_v - lo_v) * w)(
                lo_col.percentile(idx, q), hi_col.percentile(idx, q)
            )
            for q in qs
        }

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
        if allocation <= 0:
            raise CpaError(f"allocation must be positive, got {allocation!r}")
        idx = self._bin_index(progress)
        allocation = float(allocation)
        grid = self.allocations
        # Exact-grid fast path, mirroring :meth:`remaining`.
        a_int = int(allocation)
        if a_int == allocation and a_int in self._columns:
            return self._columns[a_int].frac_above(idx, threshold)
        if allocation <= grid[0]:
            return self._columns[grid[0]].frac_above(idx, threshold)
        if allocation >= grid[-1]:
            return self._columns[grid[-1]].frac_above(idx, threshold)
        hi_pos = bisect.bisect_left(grid, allocation)
        lo_a, hi_a = grid[hi_pos - 1], grid[hi_pos]
        lo_v = self._columns[lo_a].frac_above(idx, threshold)
        hi_v = self._columns[hi_a].frac_above(idx, threshold)
        w = (allocation - lo_a) / (hi_a - lo_a)
        return lo_v + (hi_v - lo_v) * w

    def min_allocation_for(
        self, budget_seconds: float, *, progress: float = 0.0, q: float = 0.9
    ) -> Optional[int]:
        """Smallest grid allocation whose predicted remaining time at
        ``progress`` fits the budget, or None if even the largest cannot —
        the least the job can be guaranteed.  A running job passes its
        progress and ``deadline - elapsed``; a caller that wants slack
        divides the budget by it."""
        idx = self._bin_index(progress)
        for a in self.allocations:
            if self._columns[a].percentile(idx, q) <= budget_seconds:
                return a
        return None

    def sample_counts(self) -> Dict[int, int]:
        """Total samples per allocation (diagnostics)."""
        return {
            a: int(sum(b.size for b in self._columns[a].bins))
            for a in self.allocations
        }


__all__ = ["CpaError", "CpaTable", "DEFAULT_ALLOCATIONS"]
