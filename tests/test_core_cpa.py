"""Unit tests for the C(p, a) tables."""

import bisect
import copy
import hashlib
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import cpa
from repro.core.cpa import CpaError, CpaTable, _AllocationColumn
from repro.core.progress import totalwork, totalwork_with_q
from repro.jobs.workloads import generate_table2_jobs
from tests.test_core_simulator import deterministic_profile


@pytest.fixture
def table():
    profile = deterministic_profile()  # 6x10s maps -> barrier -> 2x5s reduces
    return CpaTable.build(
        profile,
        totalwork(profile),
        np.random.default_rng(0),
        allocations=(1, 2, 4, 8),
        reps=3,
        num_bins=20,
        sample_dt=2.0,
    )


class TestBuildAndQuery:
    def test_predicted_duration_matches_deterministic_job(self, table):
        # At a=4: waves 4+2 of maps (20s) + 5s reduce = 25s.  The p=0 bin
        # also holds "started but nothing finished yet" samples (the
        # paper's sampling does the same), so the median sits below 25 and
        # the high percentile at 25.
        assert table.predicted_duration(4, q=0.99) == pytest.approx(25.0, abs=1.0)
        assert 15.0 <= table.predicted_duration(4, q=0.5) <= 25.0
        assert table.predicted_duration(1, q=0.99) == pytest.approx(70.0, abs=1.0)

    def test_remaining_decreases_with_progress(self, table):
        values = [table.remaining(p, 4, q=0.5) for p in (0.0, 0.3, 0.6, 0.9)]
        assert values == sorted(values, reverse=True)

    def test_remaining_decreases_with_allocation(self, table):
        at_zero = [table.remaining(0.0, a, q=0.5) for a in (1, 2, 4, 8)]
        assert at_zero == sorted(at_zero, reverse=True)

    def test_interpolation_between_grid_points(self, table):
        lo = table.remaining(0.0, 2, q=0.5)
        hi = table.remaining(0.0, 4, q=0.5)
        mid = table.remaining(0.0, 3, q=0.5)
        assert min(lo, hi) <= mid <= max(lo, hi)

    def test_clamps_outside_grid(self, table):
        assert table.remaining(0.0, 0.5, q=0.5) == table.remaining(0.0, 1, q=0.5)
        assert table.remaining(0.0, 500, q=0.5) == table.remaining(0.0, 8, q=0.5)

    def test_progress_one_near_zero_remaining(self, table):
        assert table.remaining(1.0, 4, q=0.9) < 10.0

    def test_percentiles_ordered(self, table):
        lo = table.remaining(0.0, 4, q=0.1)
        hi = table.remaining(0.0, 4, q=0.9)
        assert lo <= hi

    def test_min_allocation_for_budget(self, table):
        # 70s budget: even 1 token suffices (~70s).
        assert table.min_allocation_for(75.0, q=0.5) == 1
        # 30s budget: needs 4 tokens (25s) -- 2 tokens take ~35s.
        assert table.min_allocation_for(30.0, q=0.5) == 4

    def test_min_allocation_infeasible(self, table):
        assert table.min_allocation_for(1.0, q=0.5) is None

    @pytest.mark.parametrize("progress", [0.0, 0.3, 0.6, 0.9])
    @pytest.mark.parametrize("budget", [5.0, 20.0, 40.0, 80.0])
    def test_min_allocation_for_is_the_scan_over_remaining(
        self, table, progress, budget
    ):
        """One scan: the first grid allocation whose ``remaining`` at the
        job's progress fits — what admission asks of a running job with
        ``deadline - elapsed`` left."""
        by_hand = next(
            (a for a in table.allocations
             if table.remaining(progress, a, q=0.95) <= budget),
            None,
        )
        assert table.min_allocation_for(
            budget, progress=progress, q=0.95
        ) == by_hand

    def test_min_allocation_for_progress_lowers_the_need(self, table):
        assert table.min_allocation_for(30.0, q=0.95) == 4
        assert table.min_allocation_for(30.0, progress=0.6, q=0.95) == 1
        # ... and time already spent raises it again.
        assert table.min_allocation_for(30.0 - 12.0, progress=0.6, q=0.95) == 2

    def test_min_allocation_for_rejects_bad_progress(self, table):
        with pytest.raises(CpaError):
            table.min_allocation_for(30.0, progress=1.5)

    def test_sample_counts_nonzero(self, table):
        counts = table.sample_counts()
        assert set(counts) == {1, 2, 4, 8}
        assert all(c > 0 for c in counts.values())


class TestValidation:
    def test_bad_progress(self, table):
        with pytest.raises(CpaError):
            table.remaining(1.5, 4)
        with pytest.raises(CpaError):
            table.remaining(-0.1, 4)

    def test_bad_allocation(self, table):
        with pytest.raises(CpaError):
            table.remaining(0.5, 0)

    def test_bad_percentile(self, table):
        with pytest.raises(CpaError):
            table.remaining(0.5, 4, q=1.5)

    def test_bad_build_args(self):
        profile = deterministic_profile()
        rng = np.random.default_rng(0)
        with pytest.raises(CpaError):
            CpaTable.build(profile, totalwork(profile), rng, reps=0)
        with pytest.raises(CpaError):
            CpaTable.build(profile, totalwork(profile), rng, num_bins=1)

    @pytest.mark.parametrize("allocation", [float("inf"), float("nan"), -float("inf")])
    def test_non_finite_allocation_is_named_on_every_path(self, table, allocation):
        queries = (
            lambda: table.remaining(0.5, allocation),
            lambda: table.remaining_curve(0.5, [1, allocation]),
            lambda: table.remaining_quantiles(0.5, allocation, (0.1, 0.9)),
            lambda: table.exceedance(0.5, allocation, 10.0),
            lambda: table.predicted_duration(allocation),
        )
        for query in queries:
            with pytest.raises(CpaError, match="allocation must be finite") as err:
                query()
            assert repr(allocation) in str(err.value)
        assert table._curves == {}

    def test_nan_budget_is_named(self, table):
        with pytest.raises(CpaError, match="budget_seconds must be a number, got nan"):
            table.min_allocation_for(float("nan"))

    @pytest.mark.parametrize(
        "allocations", [[[1, 2], [3, 4]], np.ones((2, 2)), [[1], [2]], 4],
        ids=["nested-lists", "2d-array", "unhashable-rows", "scalar"],
    )
    def test_curve_grid_must_be_one_dimensional(self, table, allocations):
        with pytest.raises(CpaError, match="one-dimensional"):
            table.remaining_curve(0.5, allocations)
        assert table._curves == {}

    def test_construction_checks_what_queries_assume(self, table):
        """The shape every query reads blind (see also the malformed
        tables in tests/test_persist.py)."""
        columns = table._columns
        with pytest.raises(CpaError, match="allocation 0 is not positive"):
            CpaTable([0, 1], columns, table.num_bins)
        with pytest.raises(CpaError, match="allocation 3 has no column"):
            CpaTable([1, 3], columns, table.num_bins)
        with pytest.raises(CpaError, match="at least one progress bin"):
            CpaTable([1], columns, 0)
        bins = list(columns[1].bins)
        bins[5] = np.array([1.0, np.nan])
        with pytest.raises(
            CpaError, match="allocation 1: progress bin 5 holds a non-finite sample"
        ):
            CpaTable([1], {1: _AllocationColumn(bins=bins)}, table.num_bins)

    def test_repeated_allocation_is_refused_before_any_simulation(
        self, monkeypatch
    ):
        """Both copies ran on the same unit seeds and merged into one column
        holding every sample twice."""
        profile = deterministic_profile()

        def unreachable(*args, **kwargs):
            raise AssertionError("simulated a unit")

        monkeypatch.setattr(cpa, "simulate_job", unreachable)
        with pytest.raises(CpaError, match="allocation 4 is repeated"):
            CpaTable.build(profile, totalwork(profile), seed=1,
                           allocations=(2, 4, 4), reps=2, jobs=1)

    @pytest.mark.parametrize("allocation", [10.7, 4.0, float("nan"), 0, -2, "8"])
    def test_non_integer_allocation_is_refused_before_any_simulation(
        self, monkeypatch, allocation
    ):
        """``int(a)`` built 10.7 as a 10 column without a word, and NaN
        escaped as a bare ValueError from ``int``."""
        profile = deterministic_profile()

        def unreachable(*args, **kwargs):
            raise AssertionError("simulated a unit")

        monkeypatch.setattr(cpa, "simulate_job", unreachable)
        with pytest.raises(CpaError, match="allocation must be an integer") as err:
            CpaTable.build(profile, totalwork(profile), seed=1,
                           allocations=(2, allocation, 20), reps=2, jobs=1)
        assert repr(allocation) in str(err.value)

    @pytest.mark.parametrize(
        "argument, value",
        [("reps", float("nan")), ("reps", 2.5), ("reps", 2.0), ("reps", -1),
         ("num_bins", float("nan")), ("num_bins", 20.5), ("num_bins", 20.0),
         ("num_bins", 1)],
    )
    def test_bad_reps_or_bins_is_named_before_any_simulation(
        self, monkeypatch, argument, value
    ):
        """A NaN, 2.5 or 20.5 escaped as a bare TypeError from ``range``
        or, for ``num_bins``, from ``np.bincount`` after every unit ran."""
        profile = deterministic_profile()

        def unreachable(*args, **kwargs):
            raise AssertionError("simulated a unit")

        monkeypatch.setattr(cpa, "simulate_job", unreachable)
        with pytest.raises(CpaError, match=f"{argument} must be an integer") as err:
            CpaTable.build(profile, totalwork(profile), seed=1, allocations=(2, 4),
                           jobs=1, **{argument: value})
        assert repr(value) in str(err.value)

    @pytest.mark.parametrize("progress", [1.5, -0.5, float("nan")])
    def test_progress_outside_the_unit_interval_is_named(self, progress):
        with pytest.raises(CpaError, match="allocation 7: progress out of"):
            CpaTable._finalize_column([(0.0, 9.0), (progress, 1.0)], 7, 10)

    @pytest.mark.parametrize("sample_dt", [0, -15.0, float("nan"), float("inf")])
    def test_bad_sample_dt_names_the_value(self, sample_dt):
        """Rejected before any unit is simulated (a zero step used to hang
        the first one)."""
        profile = deterministic_profile()
        with pytest.raises(CpaError, match="sample_dt") as err:
            CpaTable.build(profile, totalwork(profile), seed=1, sample_dt=sample_dt)
        assert repr(sample_dt) in str(err.value)


class TestVectorizedQueries:
    def test_remaining_curve_matches_scalar_exactly(self, table):
        # Exact-grid points, clamped ends, and interpolated midpoints: the
        # batched scan must reproduce the scalar query bit-for-bit, or the
        # control loop's argmin could flip between code paths.
        allocations = [0.5, 1, 2, 3, 4, 5.5, 8, 100]
        for q in (0.1, 0.5, 0.6, 0.9):
            for progress in (0.0, 0.3, 0.77, 1.0):
                curve = table.remaining_curve(progress, allocations, q=q)
                scalars = [
                    table.remaining(progress, a, q=q) for a in allocations
                ]
                assert curve.tolist() == scalars

    def test_remaining_curve_validates_like_scalar(self, table):
        with pytest.raises(CpaError):
            table.remaining_curve(1.5, [1, 2])
        with pytest.raises(CpaError):
            table.remaining_curve(0.5, [1, 2], q=-0.1)
        with pytest.raises(CpaError):
            table.remaining_curve(0.5, [0, 2])

    def test_exact_grid_allocation_uses_column_directly(self, table):
        # Integral on-grid allocations (incl. float-typed ones) must answer
        # from the column itself, not via interpolation round-trips.
        for a in table.allocations:
            assert table.remaining(0.3, float(a)) == table.remaining(0.3, a)
            assert table.exceedance(0.3, float(a), 10.0) == (
                table.exceedance(0.3, a, 10.0)
            )

    def test_percentile_matches_numpy_quantile(self, table):
        # The presorted index arithmetic must agree with np.quantile's
        # 'linear' interpolation, which the original implementation called
        # per query — in every bin of every column.
        for allocation in table.allocations:
            column = table._columns[allocation]
            for q in (0.0, 0.25, 0.5, 0.9, 1.0):
                rows = column.percentiles(q)
                assert rows.shape == (table.num_bins + 1,)
                for bin_index, samples in enumerate(column.bins):
                    assert rows[bin_index] == pytest.approx(
                        float(np.quantile(samples, q)), abs=1e-9
                    )


class _ReferenceColumn:
    """The column reads every query made before the quantile rows, kept
    verbatim (``percentile`` was the one quantile path)."""

    def __init__(self, column):
        self._data = column._data
        self._offsets = column._offsets
        self._sizes = column._sizes

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


class ReferenceTable:
    """The query methods before the quantile rows, verbatim over
    :class:`_ReferenceColumn`: three spellings of the bracket
    (``remaining``, ``remaining_quantiles``, ``exceedance``), the
    vectorized one in ``remaining_curve`` and the scan in
    ``min_allocation_for``."""

    def __init__(self, table):
        self.allocations = table.allocations
        self._columns = {
            a: _ReferenceColumn(table._columns[a]) for a in table.allocations
        }
        self._grid_array = np.asarray(self.allocations, dtype=float)
        self.num_bins = table.num_bins

    def _bin_index(self, progress: float) -> int:
        if not -1e-9 <= progress <= 1 + 1e-9:
            raise CpaError(f"progress {progress!r} out of [0, 1]")
        return min(max(int(progress * self.num_bins), 0), self.num_bins)

    def remaining(self, progress: float, allocation: float, *, q: float = 0.9) -> float:
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

    def remaining_curve(self, progress, allocations, *, q: float = 0.9):
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

    def remaining_quantiles(self, progress, allocation, qs):
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
        return self.remaining(0.0, allocation, q=q)

    def exceedance(self, progress, allocation, threshold) -> float:
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

    def min_allocation_for(self, budget_seconds, *, progress=0.0, q=0.9):
        idx = self._bin_index(progress)
        for a in self.allocations:
            if self._columns[a].percentile(idx, q) <= budget_seconds:
                return a
        return None


@st.composite
def random_tables(draw):
    """A hand-made table: 1-6 samples a bin, some bins inherited from the
    bin below (the same array, as ``_finalize_column`` shares it)."""
    num_bins = draw(st.integers(1, 6))
    grid = draw(st.lists(st.integers(1, 120), min_size=1, max_size=5, unique=True))
    sample = st.floats(0.0, 1e4, allow_nan=False, allow_infinity=False)
    columns = {}
    for a in grid:
        bins = []
        for _ in range(num_bins + 1):
            if bins and draw(st.booleans()):
                bins.append(bins[-1])
            else:
                drawn = draw(st.lists(sample, min_size=1, max_size=6))
                bins.append(np.sort(np.asarray(drawn, dtype=float)))
        columns[a] = _AllocationColumn(bins=bins)
    return CpaTable(grid, columns, num_bins)


def every_answer(table, case):
    """Each query path's answers over one drawn case, keyed by path."""
    points, qs, asked, threshold, budget = case
    return {
        "remaining": [
            table.remaining(p, a, q=q) for p in points for q in qs for a in asked
        ],
        "remaining_curve": [
            table.remaining_curve(p, asked, q=q).tolist() for p in points for q in qs
        ],
        "remaining_quantiles": [
            table.remaining_quantiles(p, a, qs) for p in points for a in asked
        ],
        "predicted_duration": [
            table.predicted_duration(a, q=q) for q in qs for a in asked
        ],
        "exceedance": [
            table.exceedance(p, a, threshold) for p in points for a in asked
        ],
        "min_allocation_for": [
            table.min_allocation_for(budget, progress=p, q=q)
            for p in points for q in qs
        ],
    }


class TestQuantileRowsAreTheScalarQueries:
    """Every query path reads quantile rows and a curve memo now; each
    answer must be ``==`` the per-query code they replaced."""

    @given(data=st.data())
    def test_every_path_equals_the_reference(self, data):
        table = data.draw(random_tables())
        grid = table.allocations
        edges = [
            i / table.num_bins + delta
            for i in range(table.num_bins + 1) for delta in (-1e-9, 0.0, 1e-9)
        ]
        progress = st.one_of(st.sampled_from(edges), st.floats(0.0, 1.0))
        quantile = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
        allocation = st.one_of(
            st.sampled_from(grid),                                  # on the grid
            st.sampled_from(grid).map(float),                       # int-valued floats
            st.integers(1, grid[-1] + 20).map(float),               # off-grid, too
            st.floats(1e-3, grid[-1] + 20.0, allow_nan=False),      # between, clamped
        )
        case = (
            data.draw(st.lists(progress, min_size=1, max_size=3)),
            data.draw(st.lists(quantile, min_size=1, max_size=3)),
            data.draw(st.lists(allocation, min_size=1, max_size=5)),
            data.draw(st.floats(-1.0, 2e4)),
            data.draw(st.floats(-1.0, 2e4)),
        )
        expected = every_answer(ReferenceTable(table), case)
        fresh = copy.deepcopy(table)  # no memo: the first call builds it
        assert every_answer(fresh, case) == expected
        assert every_answer(fresh, case) == expected


class TestQueryMemo:
    def test_pickle_drops_the_memos(self, table):
        before = pickle.dumps(table)
        table.remaining_curve(0.3, [1, 2, 3, 5])
        table.remaining_quantiles(0.3, 3, (0.1, 0.9))
        table.min_allocation_for(30.0, q=0.5)
        assert table._curves and table._quantile_rows
        assert pickle.dumps(table) == before

    def test_a_returned_curve_is_the_callers(self, table):
        curve = table.remaining_curve(0.3, [1, 3, 8], q=0.6)
        expected = curve.tolist()
        curve[:] = -1.0
        assert table.remaining_curve(0.3, [1, 3, 8], q=0.6).tolist() == expected

    def test_one_controller_run_leaves_one_curve_per_grid(self, table):
        from repro.core.control import ControlConfig, CpaPredictor, JockeyController
        from repro.core.utility import deadline_utility
        from repro.telemetry import predict

        profile = deterministic_profile()
        ctl = JockeyController(
            CpaPredictor(table, totalwork(profile)),
            deadline_utility(60.0),
            ControlConfig(min_tokens=1, max_tokens=8, allocation_step=1),
            stage_names=profile.stage_names,
        )
        for tick, done in enumerate((0.0, 0.3, 0.6, 1.0)):
            ctl.decide({"map": done, "reduce": 0.0}, 10.0 * tick)
        assert list(table._curves) == [(0.6, tuple(range(1, 9)))]
        assert set(table._quantile_rows) == {
            0.6, *predict.quantiles_for(predict.NOMINAL_LEVELS)
        }
        assert len(ctl.audit) == 4

    def test_racing_threads_fill_identical_memos(self, table):
        """Two service threads may fill one memo entry at once; both
        compute the same array, so the later write changes nothing."""
        grid = [1, 2, 3, 5, 8]
        work = [(p, q) for p in (0.0, 0.3, 0.77, 1.0) for q in (0.1, 0.5, 0.6, 0.9)]

        def answers(t):
            return [
                (t.remaining_curve(p, grid, q=q).tolist(),
                 t.remaining_quantiles(p, 3, (q, 0.95)))
                for p, q in work
            ]

        expected = answers(copy.deepcopy(table))
        shared = copy.deepcopy(table)
        results = [None] * 6
        threads = [
            threading.Thread(target=lambda n=n: results.__setitem__(n, answers(shared)))
            for n in range(len(results))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [expected] * len(results)
        assert answers(shared) == expected


def reference_bins(samples, num_bins):
    """The build's binning as it was, verbatim but for names: one list per
    bin appended per sample, one sort per filled bin, an empty bin
    inheriting the bin below and leading empty bins the first filled."""
    raw_bins = [[] for _ in range(num_bins + 1)]
    for p, remaining in samples:
        raw_bins[min(int(p * num_bins), num_bins)].append(remaining)
    bins = []
    last_filled = None
    for bucket in raw_bins:
        if bucket:
            arr = np.sort(np.asarray(bucket, dtype=float))
            last_filled = arr
        elif last_filled is not None:
            arr = last_filled
        else:
            arr = np.empty(0, dtype=float)
        bins.append(arr)
    first_filled = next(b for b in bins if b.size)
    return [b if b.size else first_filled for b in bins]


class TestOnePassBinning:
    @given(
        num_bins=st.integers(2, 12),
        samples=st.lists(
            st.tuples(st.floats(0, 1), st.floats(0, 1e4)), min_size=1, max_size=60
        ),
    )
    def test_bins_are_the_per_sample_appends(self, num_bins, samples):
        """One sort by (bin, remaining) and a split at the counts give each
        bin's sorted samples and the same inheritance, byte for byte."""
        got = CpaTable._finalize_column(samples, 7, num_bins).bins
        expected = reference_bins(samples, num_bins)
        assert [b.tobytes() for b in got] == [b.tobytes() for b in expected]


class TestGoldenTable:
    """One stochastic table pinned bit for bit on the commit before the
    readiness-plan refactor, at both worker counts (the graph reaches the
    workers without its compiled plan and must rebuild the same one)."""

    DIGEST = "ef7a83c372c6c7c7d45345841424cb0c249076657bb38d4945c3ec5b508d84ec"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_build_digest(self, jobs):
        profile = generate_table2_jobs(seed=0, vertex_scale=0.3)["A"].profile
        table = CpaTable.build(
            profile, totalwork_with_q(profile), seed=13,
            allocations=(10, 40, 100), reps=2, jobs=jobs,
        )
        digest = hashlib.sha256(repr(table.allocations).encode())
        for allocation in table.allocations:
            for samples in table._columns[allocation].bins:
                digest.update(samples.tobytes())
        assert digest.hexdigest() == self.DIGEST
