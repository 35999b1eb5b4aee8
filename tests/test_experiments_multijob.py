"""Tests for multi-SLO-job co-execution (the paper's future-work arbiter)."""

import json
import re
from pathlib import Path

import pytest

from repro.core.control import JockeyController
from repro.core.utility import deadline_utility
from repro.experiments.multijob import run_multi_job, split_slice
from repro.experiments.runner import make_policy
from repro.experiments.scenarios import SMOKE, trained_jobs
from repro.simkit.events import Simulator
from tests.test_core_admission_arbiter import LinearJob


@pytest.fixture(scope="module")
def jobs():
    return list(trained_jobs(seed=0, scale=SMOKE).values())


class TestRunMultiJob:
    def test_all_jobs_finish_independent(self, jobs):
        result = run_multi_job(jobs, mode="independent", seed=1)
        assert set(result.per_job) == {t.name for t in jobs}
        assert all(m.duration_seconds > 0 for m in result.per_job.values())

    def test_all_jobs_finish_arbiter(self, jobs):
        result = run_multi_job(jobs, mode="arbiter", seed=1)
        assert set(result.per_job) == {t.name for t in jobs}

    def test_allocation_series_recorded(self, jobs):
        result = run_multi_job(jobs, mode="arbiter", seed=2)
        assert result.allocation_series
        minute, allocations = result.allocation_series[0]
        assert minute >= 1.0
        assert set(allocations) <= {t.name for t in jobs}

    def test_slice_never_exceeded_by_arbiter(self, jobs):
        result = run_multi_job(jobs, mode="arbiter", seed=3, slice_tokens=60)
        for _minute, allocations in result.allocation_series:
            assert sum(allocations.values()) <= 60

    @pytest.mark.parametrize("mode, slice_tokens", [
        ("independent", 8),   # below the tables' floor of 10
        ("independent", 24),
        ("arbiter", 24),      # the arbiter needs every job's grid floor (11)
    ])
    def test_no_job_exceeds_a_small_slice(self, jobs, mode, slice_tokens):
        result = run_multi_job(jobs, mode=mode, seed=3, slice_tokens=slice_tokens)
        assert result.allocation_series
        for _minute, allocations in result.allocation_series:
            assert max(allocations.values()) <= slice_tokens

    def test_heavy_job_receives_more_under_arbiter(self, jobs):
        """A job with a 1.5x input should end up with a larger share than
        its equally-deadlined peer at some point in the run."""
        heavy = jobs[0].name
        result = run_multi_job(
            jobs, mode="arbiter", seed=4,
            runtime_scales={heavy: 1.5},
        )
        got_more = any(
            allocations.get(heavy, 0) > max(
                (v for k, v in allocations.items() if k != heavy), default=0
            )
            for _m, allocations in result.allocation_series
        )
        assert got_more

    def test_deterministic(self, jobs):
        a = run_multi_job(jobs, mode="arbiter", seed=5)
        b = run_multi_job(jobs, mode="arbiter", seed=5)
        assert {
            n: m.duration_seconds for n, m in a.per_job.items()
        } == {n: m.duration_seconds for n, m in b.per_job.items()}

    def test_validation(self, jobs):
        with pytest.raises(ValueError):
            run_multi_job(jobs, mode="chaos")
        with pytest.raises(ValueError):
            run_multi_job([])
        with pytest.raises(ValueError):
            run_multi_job([jobs[0], jobs[0]])

    def test_arbiter_refuses_a_slice_below_the_grid_floors(self, jobs, monkeypatch):
        """The arbiter grants every job its grid floor first, so a slice
        below their sum is refused before the simulation starts, naming
        the slice and each floor.  Independent mode runs that slice."""
        assert [t.name for t in jobs] == ["A", "C"]
        started = []
        monkeypatch.setattr(Simulator, "run", lambda *a, **k: started.append(1))
        message = (
            "slice_tokens 20 cannot cover 2 jobs at their grid floors "
            "{'A': 11, 'C': 11}"
        )
        with pytest.raises(ValueError, match=re.escape(message)):
            run_multi_job(jobs, mode="arbiter", seed=3, slice_tokens=20)
        assert not started
        monkeypatch.undo()
        result = run_multi_job(jobs, mode="independent", seed=3, slice_tokens=20)
        assert set(result.per_job) == {"A", "C"}

    def test_result_aggregates(self, jobs):
        result = run_multi_job(jobs, mode="independent", seed=6)
        assert result.jobs_missed >= 0
        assert result.worst_relative_latency > 0


class TestBidsFromTheController:
    def test_candidates_are_what_the_audit_records(self, jobs):
        """The arbiter's read is the scan a decision records."""
        trained = jobs[0]
        controller = make_policy("jockey", trained, trained.short_deadline).controller
        zero = {s: 0.0 for s in trained.learned_profile.stage_names}
        read = controller.candidates(zero, 0.0)
        controller.initial_allocation(zero)
        assert controller.audit[-1].candidates == read
        for fraction, elapsed in ((0.2, 120.0), (0.6, 600.0), (0.9, 1500.0)):
            fractions = {s: fraction for s in zero}
            read = controller.candidates(fractions, elapsed)
            assert controller.decide(fractions, elapsed).candidates == read

    def test_jobs_start_at_their_own_grid_floors(self):
        """Tables with minima 10 and 23 floor the grids at 11 and 26;
        jobs that gain nothing keep their own floor."""
        curves = {
            name: JockeyController(
                LinearJob(100.0), deadline_utility(36_000.0), grid_floor=floor
            ).candidates({}, 0.0)
            for name, floor in (("a", 10), ("b", 23))
        }
        assert split_slice(curves, 100) == {"a": 11, "b": 26}
        with pytest.raises(ValueError, match="36 tokens cannot cover 2 jobs"):
            split_slice(curves, 36)


class TestGoldenPins:
    """``run_multi_job(mode="arbiter")`` pinned tick by tick.

    ``golden/multijob_pins.json`` was captured when the arbiter started
    bidding per token from each controller's candidates: every job's floor
    is its own first grid point (11 on the smoke tables), and the split is
    smoothed and rounded up as the per-job loop does.  The first three
    cases run at the smoke jobs' own deadlines (the arbiter idles at the
    grid floor); the ``deadline_factor=0.35`` ones contend for the slice.
    """

    PINS = json.loads(
        (Path(__file__).parent / "golden" / "multijob_pins.json").read_text()
    )

    @pytest.mark.parametrize(
        "case",
        PINS["cases"],
        ids=lambda c: "seed{}{}".format(
            c["kwargs"]["seed"],
            "-contended" if "deadline_factor" in c["kwargs"] else "",
        ),
    )
    def test_arbiter_run_matches_pin(self, jobs, case):
        assert [t.name for t in jobs] == self.PINS["jobs"]
        result = run_multi_job(jobs, mode="arbiter", **case["kwargs"])
        series = [[minute, alloc] for minute, alloc in result.allocation_series]
        assert series == case["allocation_series"]
        durations = {n: m.duration_seconds for n, m in result.per_job.items()}
        assert durations == case["durations"]


class TestExperimentDriver:
    def test_report_shape(self):
        from repro.experiments import exp_multijob

        report = exp_multijob.run(SMOKE, seed=0)
        assert len(report.rows) == 2
        modes = [row[0] for row in report.rows]
        assert modes == ["independent", "arbiter"]
        # Both claims judged on the two reps' days; the table ends the report.
        assert [claim for claim, _counts in report.tallies] == list(exp_multijob.CLAIMS)
        assert all(wins + losses <= 2 for _claim, (wins, losses) in report.tallies)
        last = report.render().splitlines()[-1]
        assert last.lstrip().startswith(exp_multijob.CLAIMS[-1].name)
