"""Unit tests for experiment scaffolding: scales, deadlines, training."""

import numpy as np
import pytest

from repro.cache import profile_fingerprint
from repro.core.cpa import CpaTable
from repro.core.progress import totalwork
from repro.experiments.scenarios import (
    DEADLINE_GRID,
    DEFAULT,
    PAPER,
    SCALES,
    SMOKE,
    Scale,
    clear_trained_cache,
    pick_deadline,
    trained_job,
    trained_jobs,
)
from repro.jobs.workloads import generate_table2_jobs
from tests.test_core_simulator import deterministic_profile


class TestScale:
    def test_presets_registered(self):
        assert set(SCALES) == {"smoke", "default", "paper"}

    def test_default_covers_all_seven_jobs(self):
        assert DEFAULT.jobs == tuple("ABCDEFG")
        assert PAPER.reps > DEFAULT.reps

    def test_validation(self):
        with pytest.raises(ValueError):
            Scale("bad", jobs=("A",), reps=0, cpa_reps=1, allocations=(10,))
        with pytest.raises(ValueError):
            Scale("bad", jobs=(), reps=1, cpa_reps=1, allocations=(10,))


class TestPickDeadline:
    def make_table(self):
        profile = deterministic_profile(num_maps=60, map_time=60.0)
        return CpaTable.build(
            profile, totalwork(profile), np.random.default_rng(0),
            allocations=(10, 50, 100), reps=3,
        )

    def test_rounded_to_five_minutes(self):
        deadline = pick_deadline(self.make_table())
        assert deadline % 300 == 0

    def test_headroom_respected(self):
        table = self.make_table()
        deadline = pick_deadline(table, headroom=2.0)
        fastest = table.predicted_duration(100, q=0.9)
        assert deadline >= 2.0 * fastest

    def test_minimum_deadline(self):
        # A trivially small job still gets the grid minimum.
        profile = deterministic_profile(num_maps=2, map_time=1.0,
                                        reduce_time=1.0)
        table = CpaTable.build(
            profile, totalwork(profile), np.random.default_rng(0),
            allocations=(10,), reps=2,
        )
        assert pick_deadline(table) == DEADLINE_GRID[0]


class TestTrainedJobCaching:
    def test_cache_cleared(self):
        a = trained_job("A", seed=0, scale=SMOKE)
        clear_trained_cache()
        b = trained_job("A", seed=0, scale=SMOKE)
        assert a is not b

    def test_no_cache_option(self):
        a = trained_job("A", seed=0, scale=SMOKE)
        b = trained_job("A", seed=0, scale=SMOKE, use_cache=False)
        assert a is not b

    def test_trained_jobs_roster(self):
        jobs = trained_jobs(seed=0, scale=SMOKE)
        assert set(jobs) == set(SMOKE.jobs)

    def test_generates_only_the_job_it_keeps(self):
        """The one job is the dict form's entry (it used to build all seven
        for it), and an unknown name is still the lookup's ``KeyError``."""
        trained = trained_job("C", seed=3, scale=SMOKE)
        expected = generate_table2_jobs(seed=3, vertex_scale=SMOKE.vertex_scale)["C"]
        # Graph and per-stage statistics both go into the fingerprint.
        assert profile_fingerprint(trained.generated.profile) == profile_fingerprint(
            expected.profile
        )
        with pytest.raises(KeyError, match="'Z'"):
            trained_job("Z", seed=3, scale=SMOKE)

    def test_deterministic_training(self):
        clear_trained_cache()
        a = trained_job("C", seed=3, scale=SMOKE, use_cache=False)
        b = trained_job("C", seed=3, scale=SMOKE, use_cache=False)
        assert a.training_trace.duration == b.training_trace.duration
        assert a.short_deadline == b.short_deadline
