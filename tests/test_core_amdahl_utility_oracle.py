"""Unit tests for the Amdahl model, utility functions, and the oracle."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.amdahl import AmdahlModel
from repro.core.oracle import oracle_allocation
from repro.core.utility import (
    PiecewiseLinearUtility,
    UtilityError,
    deadline_utility,
)
from tests.test_core_progress import profile


class TestAmdahlModel:
    def test_initial_prediction_formula(self):
        model = AmdahlModel(profile())
        # S_0 = max(10+30, 30+0) = 40; P_0 = 40 + 60 = 100.
        assert model.predicted_duration(10) == pytest.approx(40 + 100 / 10)
        assert model.predicted_duration(100) == pytest.approx(40 + 100 / 100)

    def test_remaining_with_partial_progress(self):
        model = AmdahlModel(profile())
        fractions = {"map": 0.5, "reduce": 0.0}
        # S = max(0.5*10+30, 30) = 35; P = 0.5*40 + 60 = 80.
        assert model.remaining_seconds(fractions, 10) == pytest.approx(35 + 8.0)

    def test_finished_stages_drop_out(self):
        model = AmdahlModel(profile())
        fractions = {"map": 1.0, "reduce": 0.5}
        # S = 0.5*30 + 0 = 15; P = 0.5*60 = 30.
        assert model.remaining_seconds(fractions, 10) == pytest.approx(15 + 3.0)

    def test_all_done_is_zero(self):
        model = AmdahlModel(profile())
        assert model.remaining_seconds({"map": 1.0, "reduce": 1.0}, 10) == 0.0

    def test_more_tokens_never_slower(self):
        model = AmdahlModel(profile())
        f = {"map": 0.2, "reduce": 0.0}
        values = [model.remaining_seconds(f, a) for a in (1, 5, 20, 100)]
        assert values == sorted(values, reverse=True)

    def test_invalid_allocation(self):
        with pytest.raises(ValueError):
            AmdahlModel(profile()).remaining_seconds({"map": 0, "reduce": 0}, 0)

    @given(
        fractions=st.fixed_dictionaries(
            {
                "map": st.floats(min_value=-0.5, max_value=1.5),
                "reduce": st.floats(min_value=-0.5, max_value=1.5),
            }
        ),
        grid=st.lists(
            st.one_of(
                st.integers(min_value=1, max_value=500),
                st.floats(min_value=0.01, max_value=500.0),
            ),
            min_size=1,
            max_size=12,
        ),
    )
    def test_batch_is_the_per_allocation_answers(self, fractions, grid):
        """One S_t, P_t pass answers the whole grid with the floats the
        per-allocation formula (paper §4.1, written out here) gives."""
        prof = profile()
        longest = prof.longest_task_seconds()
        path_after = prof.longest_path_after()
        total = prof.total_exec_seconds()

        def reference(a):
            serial = parallel = 0.0
            for s in prof.stage_names:
                f = min(max(fractions[s], 0.0), 1.0)
                if f < 1.0:
                    serial = max(serial, (1.0 - f) * longest[s] + path_after[s])
                    parallel += (1.0 - f) * total[s]
            return serial + parallel / a

        model = AmdahlModel(prof)
        batch = model.remaining_seconds_batch(fractions, grid)
        assert batch == [model.remaining_seconds(fractions, a) for a in grid]
        assert batch == [reference(a) for a in grid]

    def test_batch_rejects_a_non_positive_allocation(self):
        with pytest.raises(ValueError, match="allocation must be positive, got 0"):
            AmdahlModel(profile()).remaining_seconds_batch(
                {"map": 0, "reduce": 0}, [10, 0, 20]
            )


def reference_value(points, t):
    """``PiecewiseLinearUtility.value`` before it bisected, kept verbatim:
    a scan for the first segment with ``t0 <= t <= t1``."""
    pts = points
    if t <= pts[0][0]:
        return pts[0][1]
    if t >= pts[-1][0]:
        (t0, u0), (t1, u1) = pts[-2], pts[-1]
        slope = (u1 - u0) / (t1 - t0)
        return u1 + slope * (t - t1)
    for (t0, u0), (t1, u1) in zip(pts, pts[1:]):
        if t0 <= t <= t1:
            w = (t - t0) / (t1 - t0)
            return u0 * (1 - w) + u1 * w
    raise AssertionError("unreachable")


_finite = st.floats(-1e6, 1e6, allow_nan=False)


class TestPiecewiseLinearUtility:
    @given(
        st.lists(_finite, min_size=2, max_size=6, unique=True),
        st.lists(_finite, min_size=6, max_size=6),
        st.lists(_finite, max_size=8),
    )
    def test_equal_to_the_segment_scan(self, times, utilities, probes):
        points = tuple(zip(sorted(times), utilities))
        u = PiecewiseLinearUtility(points=points)
        # Every breakpoint, exactly, and points between and beyond them.
        # repr tells -0.0 from 0.0 and matches nan with nan: the same bits.
        for t in [t for t, _u in points] + probes:
            assert repr(u.value(t)) == repr(reference_value(points, t))

    def test_interpolation(self):
        u = PiecewiseLinearUtility(points=((0.0, 1.0), (10.0, 0.0)))
        assert u.value(5.0) == pytest.approx(0.5)

    def test_flat_before_first_point(self):
        u = PiecewiseLinearUtility(points=((5.0, 1.0), (10.0, -1.0)))
        assert u.value(0.0) == 1.0

    def test_slope_continues_after_last_point(self):
        # Final slope -0.4/s keeps going: later is always worse (§4.4).
        u = PiecewiseLinearUtility(points=((5.0, 1.0), (10.0, -1.0)))
        assert u.value(15.0) == pytest.approx(-3.0)
        assert u.value(20.0) < u.value(15.0)

    def test_callable(self):
        u = PiecewiseLinearUtility(points=((0.0, 1.0), (10.0, 0.0)))
        assert u(2.5) == u.value(2.5)

    def test_shifted_left(self):
        u = PiecewiseLinearUtility(points=((10.0, 1.0), (20.0, 0.0)))
        shifted = u.shifted_left(5.0)
        assert shifted.value(10.0) == pytest.approx(0.5)

    def test_negative_shift_rejected(self):
        u = PiecewiseLinearUtility(points=((0.0, 1.0), (1.0, 0.0)))
        with pytest.raises(UtilityError):
            u.shifted_left(-1.0)

    def test_needs_two_points(self):
        with pytest.raises(UtilityError):
            PiecewiseLinearUtility(points=((0.0, 1.0),))

    def test_times_strictly_increasing(self):
        with pytest.raises(UtilityError):
            PiecewiseLinearUtility(points=((0.0, 1.0), (0.0, 0.0)))

    def test_max_value(self):
        u = PiecewiseLinearUtility(points=((0.0, 1.0), (10.0, -3.0)))
        assert u.max_value == 1.0


class TestDeadlineUtility:
    def test_paper_shape(self):
        d = 3600.0
        u = deadline_utility(d)
        assert u.value(0.0) == 1.0
        assert u.value(d) == 1.0
        assert u.value(d + 600.0) == pytest.approx(-1.0)
        assert u.value(d + 60_000.0) == pytest.approx(-1000.0)

    def test_steep_drop_after_deadline(self):
        u = deadline_utility(3600.0)
        assert u.value(3600.0 + 300.0) == pytest.approx(0.0)

    def test_invalid_deadline(self):
        with pytest.raises(UtilityError):
            deadline_utility(0.0)

    @pytest.mark.parametrize("deadline", [float("nan"), float("inf")])
    def test_non_finite_deadline_is_named(self, deadline):
        with pytest.raises(UtilityError, match=f"got {deadline!r}"):
            deadline_utility(deadline)


class TestOracle:
    def test_ceiling_division(self):
        assert oracle_allocation(3600.0, 3600.0) == 1
        assert oracle_allocation(3601.0, 3600.0) == 2
        assert oracle_allocation(10 * 3600.0, 3600.0) == 10

    def test_minimum_one_token(self):
        assert oracle_allocation(0.0, 3600.0) == 1

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            oracle_allocation(-1.0, 10.0)
        with pytest.raises(ValueError):
            oracle_allocation(1.0, 0.0)
