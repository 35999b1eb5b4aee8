"""Unit tests for the control loop (raw argmax, slack, hysteresis, dead
zone) using an exactly-solvable stub predictor."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.control import (
    DEGRADED_DEAD_ZONE_FACTOR,
    ControlConfig,
    ControlError,
    CpaPredictor,
    JockeyController,
    PredictorUnavailable,
)
from repro.core.utility import deadline_utility
from repro.telemetry.audit import CandidateEval


class LinearPredictor:
    """remaining = work / allocation: a pure Amdahl-parallel job."""

    name = "stub"

    def __init__(self, work_token_seconds=60_000.0):
        self.work = work_token_seconds

    def remaining_seconds(self, fractions, allocation):
        done = fractions.get("s", 0.0)
        return (1.0 - done) * self.work / allocation

    def remaining_seconds_batch(self, fractions, allocations):
        return [self.remaining_seconds(fractions, a) for a in allocations]


def controller(work=60_000.0, deadline=3600.0, **config_kwargs):
    defaults = dict(slack=1.0, hysteresis=1.0, dead_zone_seconds=0.0,
                    min_tokens=5, max_tokens=100, allocation_step=5)
    defaults.update(config_kwargs)
    return JockeyController(
        LinearPredictor(work),
        deadline_utility(deadline),
        ControlConfig(**defaults),
        stage_names=("s",),
    )


class TestRawAllocation:
    def test_picks_minimum_allocation_meeting_deadline(self):
        # work 60000 token-seconds, deadline 3600s -> need ceil(16.7) = 20
        # on the 5-step grid.
        ctl = controller()
        assert ctl.initial_allocation() == 20

    def test_slack_raises_requirement(self):
        # With slack 1.25: need 60000*1.25/3600 = 20.8 -> 25 on the grid.
        ctl = controller(slack=1.25)
        assert ctl.initial_allocation() == 25

    def test_dead_zone_shifts_deadline(self):
        # Effective deadline 3000s: need 20 tokens exactly; 60000/20=3000.
        ctl = controller(dead_zone_seconds=600.0)
        assert ctl.initial_allocation() == 20
        # A slightly longer job no longer fits at 20.
        ctl2 = controller(work=61_000.0, dead_zone_seconds=600.0)
        assert ctl2.initial_allocation() == 25

    def test_impossible_deadline_pegs_to_max(self):
        ctl = controller(work=10_000_000.0)
        assert ctl.initial_allocation() == 100

    def test_trivial_job_takes_minimum(self):
        ctl = controller(work=100.0)
        assert ctl.initial_allocation() == 5

    def test_progress_lowers_allocation(self):
        ctl = controller()
        ctl.initial_allocation()
        decision = ctl.decide({"s": 0.9}, elapsed=600.0)
        # Remaining 6000 token-seconds, 3000s left -> 5 tokens suffice.
        assert decision.raw == 5

    def test_falling_behind_raises_allocation(self):
        ctl = controller()
        ctl.initial_allocation()
        decision = ctl.decide({"s": 0.1}, elapsed=2800.0)
        # 54000 token-seconds left in 800s -> needs 67.5 -> 70.
        assert decision.raw == 70


class TestHysteresis:
    def test_alpha_one_jumps_immediately(self):
        ctl = controller(hysteresis=1.0)
        ctl.initial_allocation()
        decision = ctl.decide({"s": 0.0}, elapsed=2000.0)
        assert decision.allocation == decision.raw

    def test_smoothing_moves_partially(self):
        ctl = controller(hysteresis=0.5)
        assert ctl.initial_allocation() == 20
        decision = ctl.decide({"s": 0.1}, elapsed=2800.0)  # raw 70
        assert decision.smoothed == pytest.approx(20 + 0.5 * (70 - 20))
        assert decision.allocation == 45

    def test_smoothing_converges_geometrically(self):
        ctl = controller(hysteresis=0.5)
        ctl.initial_allocation()  # 20
        gaps = []
        for _ in range(5):
            decision = ctl.decide({"s": 0.1}, elapsed=2800.0)
            gaps.append(70 - decision.smoothed)
        for a, b in zip(gaps, gaps[1:]):
            assert b == pytest.approx(a / 2)

    def test_allocation_rounds_up(self):
        ctl = controller(hysteresis=0.1)
        ctl.initial_allocation()  # 20
        decision = ctl.decide({"s": 0.1}, elapsed=2800.0)  # raw 70
        assert decision.smoothed == pytest.approx(25.0)
        assert decision.allocation == 25

    def test_decisions_recorded(self):
        ctl = controller()
        ctl.initial_allocation()
        first = ctl.decide({"s": 0.0}, elapsed=60.0)
        second = ctl.decide({"s": 0.1}, elapsed=120.0)
        # decide returns the one record it appends.
        assert ctl.audit[1:] == [first, second]
        assert [r.phase for r in ctl.audit] == ["initial", "tick", "tick"]


class TestUtilityChanges:
    def test_halved_deadline_raises_allocation(self):
        ctl = controller()
        ctl.initial_allocation()
        before = ctl.decide({"s": 0.0}, elapsed=0.0).raw
        ctl.set_utility(deadline_utility(1800.0))
        after = ctl.decide({"s": 0.0}, elapsed=0.0).raw
        assert before == 20
        assert after == 35  # 60000/1800 = 33.3 -> 35

    def test_extended_deadline_releases(self):
        ctl = controller()
        ctl.initial_allocation()
        ctl.set_utility(deadline_utility(7200.0))
        assert ctl.decide({"s": 0.0}, elapsed=0.0).raw == 10


class TestGridFloor:
    def test_floor_removes_low_allocations(self):
        ctl = JockeyController(
            LinearPredictor(100.0),
            deadline_utility(3600.0),
            ControlConfig(slack=1.0, hysteresis=1.0, dead_zone_seconds=0.0,
                          min_tokens=1, max_tokens=100, allocation_step=5),
            stage_names=("s",),
            grid_floor=10,
        )
        assert ctl.initial_allocation() >= 10

    @given(
        low=st.integers(1, 30),
        span=st.integers(0, 60),
        step=st.integers(1, 12),
        floor=st.integers(1, 120),
        work=st.floats(1.0, 1e6),
    )
    def test_grid_stays_within_the_slice(self, low, span, step, floor, work):
        """No candidate and no applied allocation is above ``max_tokens``;
        a floor at or below it floors the grid as before the top bounded
        it (with the table's floor above the slice, the top is the one
        candidate)."""
        config = ControlConfig(min_tokens=low, max_tokens=low + span,
                               allocation_step=step, hysteresis=1.0)
        ctl = JockeyController(LinearPredictor(work), deadline_utility(600.0),
                               config, stage_names=("s",), grid_floor=floor)
        grid = [c.allocation for c in ctl.candidates({"s": 0.0}, 0.0)]
        assert grid and max(grid) <= config.max_tokens
        if floor <= config.max_tokens:
            # The floored grid before the top bounded it, verbatim.
            full = config.allocation_grid()
            assert grid == ([a for a in full if a >= floor] or [floor])
        else:
            assert grid == [config.max_tokens]
        assert ctl.initial_allocation() <= config.max_tokens
        assert ctl.decide({"s": 0.5}, 500.0).allocation <= config.max_tokens


class TestAudit:
    """The telemetry acceptance criterion: every applied allocation must be
    reconstructible from the audit trail alone (raw -> hysteresis ->
    applied), and dead-zone interventions must be visible."""

    def test_audit_records_every_decision(self):
        ctl = controller()
        ctl.initial_allocation()
        ctl.decide({"s": 0.0}, elapsed=60.0)
        ctl.decide({"s": 0.1}, elapsed=120.0)
        records = ctl.audit
        assert len(records) == 3  # initial + two ticks
        assert records[0].phase == "initial"
        assert all(r.phase == "tick" for r in records[1:])
        assert [r.tick for r in records] == [0, 1, 2]

    def test_reconstruction_reproduces_applied_allocations(self):
        from repro.telemetry.audit import reconstruct_allocations

        ctl = controller(hysteresis=0.5)
        ctl.initial_allocation()
        applied = []
        for fraction, elapsed in [(0.0, 60.0), (0.05, 600.0), (0.1, 2800.0),
                                  (0.5, 3000.0), (0.9, 3300.0)]:
            applied.append(ctl.decide({"s": fraction}, elapsed=elapsed).allocation)
        records = ctl.audit
        replayed = reconstruct_allocations(
            records, hysteresis=0.5, min_tokens=5, max_tokens=100
        )
        assert replayed == [records[0].allocation] + applied
        # The replay used only raw values + config; cross-check against the
        # recorded hysteresis chain too.
        for rec in records[1:]:
            assert rec.smoothed == pytest.approx(
                rec.prev_smoothed + 0.5 * (rec.raw - rec.prev_smoothed)
            )

    def test_candidates_cover_grid_and_contain_choice(self):
        ctl = controller()
        ctl.initial_allocation()
        record = ctl.audit[0]
        grid = ctl.config.allocation_grid()
        assert [c.allocation for c in record.candidates] == list(grid)
        chosen = {c.allocation: c for c in record.candidates}[record.raw]
        assert chosen.predicted_remaining == pytest.approx(
            record.predicted_remaining
        )
        assert chosen.utility == pytest.approx(record.utility)

    def test_dead_zone_trigger_recorded(self):
        # work=61000, dead_zone=600: shifted deadline forces 25 where the
        # unshifted utility would pick 20 -> the dead zone changed the
        # choice and the audit must say so.
        ctl = controller(work=61_000.0, dead_zone_seconds=600.0)
        ctl.initial_allocation()
        ctl.decide({"s": 0.0}, elapsed=60.0)
        assert len([r for r in ctl.audit if r.dead_zone_triggered]) == 2

    def test_no_dead_zone_no_trigger(self):
        ctl = controller()
        ctl.initial_allocation()
        ctl.decide({"s": 0.0}, elapsed=60.0)
        assert not any(r.dead_zone_triggered for r in ctl.audit)

    def test_progress_observed_via_predictor_indicator(self):
        class Indicator:
            def progress(self, fractions):
                return fractions["s"] * 0.5

        ctl = controller()
        ctl.predictor.indicator = Indicator()
        ctl.initial_allocation()
        ctl.decide({"s": 0.4}, elapsed=60.0)
        records = ctl.audit
        assert records[0].progress == pytest.approx(0.0)
        assert records[1].progress == pytest.approx(0.2)

    def test_progress_none_without_indicator(self):
        ctl = controller()
        ctl.initial_allocation()
        ctl.decide({"s": 0.25}, elapsed=60.0)
        assert ctl.audit[-1].progress is None


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(period_seconds=0.0),
            dict(slack=0.9),
            dict(hysteresis=0.0),
            dict(hysteresis=1.5),
            dict(dead_zone_seconds=-1.0),
            dict(min_tokens=0),
            dict(min_tokens=50, max_tokens=10),
            dict(allocation_step=0),
            dict(period_seconds=math.nan),
            dict(period_seconds=math.inf),
            dict(period_seconds=-math.inf),
            dict(dead_zone_seconds=math.nan),
            dict(fallback_staleness_seconds=math.nan),
            dict(min_tokens=1.5),
            dict(max_tokens=40.5),
            dict(allocation_step=2.5),
            dict(max_tokens=math.nan),
        ],
    )
    def test_rejected(self, kwargs):
        with pytest.raises(ControlError) as excinfo:
            ControlConfig(**kwargs)
        if len(kwargs) == 1:  # a kind or a rule of one field names it
            (field,) = kwargs
            assert str(excinfo.value).startswith(f"ControlConfig.{field} must be ")
        else:
            assert str(excinfo.value) == "min_tokens 50 exceeds max_tokens 10"

    def test_grid_includes_max(self):
        config = ControlConfig(min_tokens=1, max_tokens=17, allocation_step=5)
        assert config.allocation_grid()[-1] == 17

    def test_missing_stage_names_rejected_for_initial(self):
        ctl = JockeyController(
            LinearPredictor(), deadline_utility(3600.0), ControlConfig()
        )
        with pytest.raises(ControlError):
            ctl.initial_allocation()

    def test_cpa_predictor_progress_follows_fractions_and_indicator(self):
        class Indicator:
            def __init__(self, scale):
                self.scale = scale
                self.calls = 0

            def progress(self, fractions):
                self.calls += 1
                return fractions["s"] * self.scale

        first, second = Indicator(0.5), Indicator(0.25)
        predictor = CpaPredictor(object(), first)
        fractions = {"s": 0.4}
        assert predictor.progress(fractions) == 0.2
        assert predictor.progress(dict(fractions)) == 0.2
        assert first.calls == 1  # equal fractions: the kept answer
        fractions["s"] = 0.8  # changed in place
        assert predictor.progress(fractions) == 0.4
        predictor.refresh(indicator=second)
        assert predictor.progress(fractions) == 0.2
        predictor.indicator = first
        assert predictor.progress(fractions) == 0.4
        assert (first.calls, second.calls) == (3, 1)

    def test_cpa_predictor_percentile_validated(self):
        from tests.test_core_cpa import deterministic_profile  # noqa: F401
        with pytest.raises(ControlError):
            CpaPredictor(object(), object(), percentile=2.0)


class TestAuditReconstructionMidRunDeadlineChange:
    """Satellite of the observatory PR: the exp_fig7 scenario (a scripted
    mid-run deadline change) must leave an audit trail that replays
    tick-for-tick — the utility swap changes `raw`, and everything after
    `raw` is pure arithmetic the replay reproduces."""

    def test_full_run_replays_tick_for_tick(self):
        from repro.experiments.runner import (
            RunConfig, make_policy, run_experiment,
        )
        from repro.experiments.scenarios import SMOKE, trained_job
        from repro.telemetry.audit import reconstruct_allocations

        tj = trained_job("A", seed=0, scale=SMOKE)
        policy = make_policy("jockey", tj, tj.long_deadline)
        # Halve the deadline one control period in: the controller must
        # re-solve against the new utility, spiking `raw` upward.
        config = RunConfig(
            deadline_seconds=tj.long_deadline,
            seed=13,
            deadline_changes=((60.0, tj.long_deadline / 2),),
            sample_cluster_day=False,
        )
        result = run_experiment(tj, policy, config)
        records = result.audit_records
        assert len(records) >= 2
        cfg = policy.controller.config
        replayed = reconstruct_allocations(
            records,
            hysteresis=cfg.hysteresis,
            min_tokens=cfg.min_tokens,
            max_tokens=cfg.max_tokens,
        )
        assert replayed == [r.allocation for r in records]


# ----------------------------------------------------------------------
# One argmin against the two loops it replaced
# ----------------------------------------------------------------------


def reference_raw_allocation(grid, predictions, slack, elapsed, effective, utility):
    """``JockeyController._raw_allocation``'s scan before the live and
    degraded paths shared one, verbatim but for ``self``."""
    best_u = -math.inf
    best_u0 = -math.inf
    utilities = []
    candidates = []
    for a, predicted in zip(grid, predictions):
        remaining = slack * float(predicted)
        u = effective.value(elapsed + remaining)
        u0 = utility.value(elapsed + remaining)
        utilities.append((a, remaining, u, u0))
        candidates.append(CandidateEval(a, remaining, u))
        best_u = max(best_u, u)
        best_u0 = max(best_u0, u0)
    chosen = None
    unshifted = None
    for a, remaining, u, u0 in utilities:
        if chosen is None and u >= best_u - 1e-9:
            chosen = (a, remaining, u)
        if unshifted is None and u0 >= best_u0 - 1e-9:
            unshifted = a
        if chosen is not None and unshifted is not None:
            break
    assert chosen is not None and unshifted is not None
    a, remaining, u = chosen
    return a, remaining, u, tuple(candidates), a != unshifted


def reference_degraded_raw(grid, predictions, slack, elapsed, degraded, floor):
    """``JockeyController._degraded_raw``'s fallback argmin, verbatim but
    for ``self``."""
    best_u = -math.inf
    candidates = []
    for a, predicted in zip(grid, predictions):
        remaining = slack * predicted
        u = degraded.value(elapsed + remaining)
        candidates.append(CandidateEval(a, remaining, u))
        best_u = max(best_u, u)
    for cand in candidates:
        if cand.utility >= best_u - 1e-9:
            raw = max(cand.allocation, floor)
            return raw, tuple(candidates)


class CurvePredictor:
    """Answers a per-allocation curve (an allocation off the grid reads its
    nearest grid point); ``down`` blacks it out."""

    name = "curve"

    def __init__(self, curve):
        self.curve = curve
        self.down = False

    def remaining_seconds(self, fractions, allocation):
        if self.down:
            raise PredictorUnavailable("down")
        return self.curve[min(self.curve, key=lambda a: abs(a - allocation))]

    def remaining_seconds_batch(self, fractions, allocations):
        return [self.remaining_seconds(fractions, a) for a in allocations]


@st.composite
def scan_cases(draw):
    size = draw(st.integers(1, 25))
    step = draw(st.integers(1, 5))
    low = draw(st.integers(1, 10))
    # Predictions from a few levels, each nudged by less than the argmin's
    # 1e-9 tolerance or not at all, so utilities tie exactly and nearly.
    levels = draw(st.lists(st.floats(0.0, 20_000.0), min_size=1, max_size=4))

    def curve():
        return [
            max(0.0, draw(st.sampled_from(levels))
                + draw(st.sampled_from((0.0, 3e-10, -3e-10))))
            for _ in range(size)
        ]

    return dict(
        config=ControlConfig(
            slack=draw(st.floats(1.0, 2.0)),
            hysteresis=draw(st.sampled_from((1.0,)) | st.floats(0.05, 1.0)),
            dead_zone_seconds=draw(st.sampled_from((0.0, 180.0)) | st.floats(0.0, 900.0)),
            min_tokens=low,
            max_tokens=low + step * (size - 1),
            allocation_step=step,
        ),
        # A first decision on another curve leaves hysteresis state behind,
        # so the degraded floor can bind.
        first=curve(),
        predictions=curve(),
        deadline=draw(st.floats(60.0, 20_000.0)),
        elapsed=draw(st.floats(0.0, 20_000.0)),
        outage=draw(st.floats(0.0, 600.0)),
    )


class TestOneArgmin:
    @given(case=scan_cases())
    def test_scan_is_the_two_loops_it_replaced(self, case):
        config, predictions = case["config"], case["predictions"]
        grid = config.allocation_grid()
        assert len(grid) == len(predictions)
        utility = deadline_utility(case["deadline"])
        predictor = CurvePredictor(dict(zip(grid, case["first"])))
        ctl = JockeyController(predictor, utility, config)
        elapsed = case["elapsed"]

        ctl.decide({}, elapsed)
        predictor.curve = dict(zip(grid, predictions))
        live = ctl.decide({}, elapsed)
        raw, remaining, u, candidates, dead_zone = reference_raw_allocation(
            grid, predictions, config.slack, elapsed,
            utility.shifted_left(config.dead_zone_seconds), utility,
        )
        assert (live.raw, live.candidates, live.dead_zone_triggered) == (
            raw, candidates, dead_zone
        )
        chosen = {c.allocation: c for c in live.candidates}[live.raw]
        assert (chosen.predicted_remaining, chosen.utility) == (remaining, u)

        # The predictor goes away: the fallback re-solves over the cached
        # curve under the widened dead zone, floored at the smoothed value.
        predictor.down = True
        later = elapsed + case["outage"]
        degraded = ctl.decide({}, later)
        want_raw, want_candidates = reference_degraded_raw(
            grid, predictions, config.slack, later,
            utility.shifted_left(
                config.dead_zone_seconds * DEGRADED_DEAD_ZONE_FACTOR
            ),
            floor=int(round(live.smoothed)),
        )
        assert (degraded.raw, degraded.candidates) == (want_raw, want_candidates)
