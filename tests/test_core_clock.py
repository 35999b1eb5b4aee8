"""Clock tests: the service owns the one clock, the controller is told
the time, and simulator time reaches the chaos blackouts as a callable."""

import time

import pytest

from repro.chaos.injectors import BlackoutPredictor
from repro.core import clock as clock_mod
from repro.core.clock import ClockError, ManualClock, WallClock
from repro.core.control import ControlConfig, JockeyController, PredictorUnavailable
from repro.service import ClusterService, ServiceConfig
from repro.simkit.events import Simulator
from tests.test_service import tiny_store


class _Constant:
    """A predictor answering one second at every allocation."""

    name = "constant"

    def remaining_seconds(self, fractions, allocation):
        return 1.0

    def remaining_seconds_batch(self, fractions, allocations):
        return [1.0] * len(allocations)


class TestSimClock:
    """Simulator time as a clock: the batch path hands the blackout
    injector ``lambda: sim.now``."""

    def test_reads_simulator_now(self):
        sim = Simulator()
        blackout = BlackoutPredictor(_Constant(), lambda: sim.now, [(10.0, 20.0)])
        assert blackout.remaining_seconds({}, 1) == 1.0
        sim.schedule(12.5, lambda: None)
        sim.run()
        with pytest.raises(PredictorUnavailable):
            blackout.remaining_seconds({}, 1)

    def test_satisfies_protocol(self):
        # Any zero-argument reading of virtual seconds will do: the
        # service's ``now`` (what the live path passes) or a bare clock's.
        svc = ClusterService(ServiceConfig(), store=tiny_store())
        svc.clock = ManualClock(start=15.0)
        for now in (svc.now, ManualClock(start=15.0).now):
            blackout = BlackoutPredictor(_Constant(), now, [(10.0, 20.0)])
            with pytest.raises(PredictorUnavailable):
                blackout.remaining_seconds({}, 1)


class TestWallClock:
    def test_starts_near_zero_and_moves_forward(self):
        clock = WallClock(time_scale=1.0)
        first = clock.now()
        assert first >= 0.0
        time.sleep(0.01)
        assert clock.now() > first

    def test_time_scale_compresses(self):
        # 0.01 wall seconds per virtual second: 20 ms of wall time must
        # read as roughly 2 virtual seconds.
        clock = WallClock(time_scale=0.01)
        time.sleep(0.02)
        assert clock.now() == pytest.approx(2.0, abs=1.5)

    def test_conversions_round_trip(self, monkeypatch):
        wall = [100.0]
        monkeypatch.setattr(clock_mod.time, "monotonic", lambda: wall[0])
        clock = WallClock(time_scale=0.05)
        wall[0] += 5.0
        # 5 wall seconds read as 100 virtual ones, and scale back.
        assert clock.now() == pytest.approx(100.0)
        assert clock.now() * clock.time_scale == pytest.approx(5.0)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ClockError):
            WallClock(time_scale=0.0)
        with pytest.raises(ClockError):
            WallClock(time_scale=-1.0)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf")])
    def test_rejects_non_finite_scale(self, scale):
        with pytest.raises(ClockError, match="positive and finite"):
            WallClock(time_scale=scale)


class TestManualClock:
    def test_advance_and_set(self):
        clock = ManualClock()
        assert clock.now() == 0.0
        clock.advance(5.0)
        assert clock.now() == 5.0
        clock.set(9.0)
        assert clock.now() == 9.0

    def test_only_moves_forward(self):
        clock = ManualClock(start=10.0)
        with pytest.raises(ClockError):
            clock.advance(-1.0)
        with pytest.raises(ClockError):
            clock.set(5.0)


class TestEnsureClock:
    """The service tells time on whichever clock it holds."""

    def test_passthrough(self):
        svc = ClusterService(ServiceConfig(), store=tiny_store())
        assert svc.now() == 0.0          # no clock before start
        svc.clock = ManualClock(start=42.0)
        assert svc.now() == 42.0

    def test_default_is_wall(self):
        with ClusterService(
            ServiceConfig(time_scale=0.5), store=tiny_store()
        ) as svc:
            assert isinstance(svc.clock, WallClock)
            assert svc.clock.time_scale == 0.5


class TestControllerClock:
    """The controller reads no clock: its caller tells it the elapsed
    time, and the live service's reading is ``now - started_v``."""

    SUBMIT = {"template": "tiny", "policy": "jockey-no-sim",
              "deadline_minutes": 30.0}

    def _controller(self):
        from repro.core.amdahl import AmdahlModel
        from repro.core.utility import deadline_utility
        from repro.jobs.dag import JobGraph, Stage
        from repro.jobs.profiles import JobProfile, StageProfile
        from repro.simkit.distributions import Constant

        graph = JobGraph("clocked", [Stage("all", 10)], [])
        profile = JobProfile(
            graph, {"all": StageProfile("all", runtime=Constant(10.0))}
        )
        return JockeyController(
            AmdahlModel(profile),
            deadline_utility(120.0),
            ControlConfig(),
            stage_names=profile.stage_names,
        )

    @staticmethod
    def _service():
        svc = ClusterService(ServiceConfig(), store=tiny_store())
        svc.clock = ManualClock()
        return svc

    def test_elapsed_requires_clock(self):
        controller = self._controller()
        assert not hasattr(controller, "clock")
        with pytest.raises(TypeError):
            controller.decide({"all": 0.5})    # elapsed is the caller's

    def test_elapsed_tracks_attached_clock(self):
        svc = self._service()
        svc.clock.advance(50.0)
        job = svc._jobs[svc.submit(dict(self.SUBMIT))["job_id"]]
        assert job.started_v == 50.0
        assert job.snapshot(svc.now()).elapsed == 0.0
        svc.clock.advance(30.0)
        assert job.snapshot(svc.now()).elapsed == 30.0

    def test_decide_now_uses_clock_elapsed(self):
        from repro.core.policies import AmdahlPolicy
        from repro.core.utility import deadline_utility

        svc = self._service()
        job = svc._jobs[svc.submit(dict(self.SUBMIT))["job_id"]]
        svc.clock.advance(60.0)
        svc.tick()
        record = job.policy.controller.audit[-1]
        assert (record.phase, record.elapsed) == ("tick", 60.0)
        explicit = AmdahlPolicy(
            job.trained.profile, deadline_utility(30.0 * 60.0),
            job.policy.controller.config,
        ).controller
        explicit.initial_allocation()
        assert explicit.decide(job.tracker.stage_fractions(), 60.0) == record

    def test_reset_run_state_clears_epoch(self):
        controller = self._controller()
        controller.initial_allocation()
        controller.decide({"all": 0.5}, 100.0)
        controller.reset_run_state()
        record = controller.decide({"all": 0.0}, 0.0)
        # A new run: ticks count from 0 and hysteresis starts afresh.
        assert (record.tick, record.prev_smoothed) == (0, None)
        assert controller.audit == [record]
