"""Unit tests for the C(p, a) tables."""

import hashlib

import numpy as np
import pytest

from repro.core.cpa import CpaError, CpaTable
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
        # The O(1) presorted lookup must agree with np.quantile's 'linear'
        # interpolation, which the original implementation called per query.
        column = table._columns[4]
        for bin_index in (0, 5, 10):
            samples = column.bins[bin_index]
            if samples.size == 0:
                continue
            for q in (0.0, 0.25, 0.5, 0.9, 1.0):
                assert column.percentile(bin_index, q) == pytest.approx(
                    float(np.quantile(samples, q)), abs=1e-9
                )


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
