"""Tests for the process-pool executor and parallel model building.

The load-bearing property is *worker-count invariance*: a C(p, a) table
or experiment sweep must come out bit-identical whether it ran serially
or across any number of worker processes, because every unit carries its
own derived RNG substream.
"""

import numpy as np
import pytest

from repro.core.cpa import CpaTable
from repro.core.progress import totalwork
from repro.jobs.dag import Edge, EdgeType, JobGraph, Stage
from repro.jobs.profiles import JobProfile, StageProfile
from repro.parallel import JOBS_ENV, ParallelError, parallel_map, resolve_jobs
from repro.simkit.distributions import LogNormal, Uniform


def stochastic_profile():
    """A small profile with real randomness, so RNG-stream bugs between
    serial and parallel builds cannot hide behind constant runtimes."""
    graph = JobGraph(
        "stoch",
        [Stage("map", 8), Stage("reduce", 3)],
        [Edge("map", "reduce", EdgeType.ALL_TO_ALL)],
    )
    return JobProfile(
        graph,
        {
            "map": StageProfile(
                "map",
                runtime=LogNormal(2.0, 0.4),
                init=Uniform(0.5, 1.5),
                failure_prob=0.05,
            ),
            "reduce": StageProfile("reduce", runtime=Uniform(4.0, 8.0)),
        },
    )


def _square(x):
    return x * x


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert resolve_jobs() == 1

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "7")
        assert resolve_jobs(3) == 3

    def test_env_applies_when_unspecified(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "4")
        assert resolve_jobs() == 4

    def test_zero_and_auto_mean_all_cores(self, monkeypatch):
        import os

        monkeypatch.setenv(JOBS_ENV, "auto")
        assert resolve_jobs() == (os.cpu_count() or 1)
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_negative_rejected(self):
        with pytest.raises(ParallelError):
            resolve_jobs(-2)

    def test_garbage_env_rejected(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "many")
        with pytest.raises(ParallelError):
            resolve_jobs()


class TestParallelMap:
    def test_serial_preserves_order(self):
        assert parallel_map(_square, [3, 1, 2], jobs=1) == [9, 1, 4]

    def test_pool_matches_serial(self):
        items = list(range(20))
        assert parallel_map(_square, items, jobs=2) == [
            _square(i) for i in items
        ]

    def test_empty_input(self):
        assert parallel_map(_square, [], jobs=4) == []

    def test_single_item_stays_serial(self):
        # Non-picklable fn would explode in a pool; one item never forks.
        assert parallel_map(lambda x: x + 1, [41], jobs=8) == [42]


class TestWorkerCountInvariance:
    def test_table_bit_identical_at_any_worker_count(self):
        profile = stochastic_profile()
        tables = [
            CpaTable.build(
                profile,
                totalwork(profile),
                allocations=(2, 4, 8),
                reps=4,
                num_bins=25,
                sample_dt=2.0,
                seed=123,
                jobs=jobs,
            )
            for jobs in (1, 2, 4)
        ]
        reference = tables[0]
        for other in tables[1:]:
            assert other.allocations == reference.allocations
            for a in reference.allocations:
                ref_bins = reference._columns[a].bins
                other_bins = other._columns[a].bins
                assert len(ref_bins) == len(other_bins)
                for rb, ob in zip(ref_bins, other_bins):
                    assert np.array_equal(rb, ob)

    def test_different_seed_changes_table(self):
        profile = stochastic_profile()
        kwargs = dict(
            allocations=(2, 4), reps=3, num_bins=10, sample_dt=2.0, jobs=1
        )
        t1 = CpaTable.build(profile, totalwork(profile), seed=1, **kwargs)
        t2 = CpaTable.build(profile, totalwork(profile), seed=2, **kwargs)
        assert any(
            not np.array_equal(b1, b2)
            for b1, b2 in zip(t1._columns[2].bins, t2._columns[2].bins)
        )

    def test_build_requires_some_seed_source(self):
        profile = stochastic_profile()
        with pytest.raises(Exception):
            CpaTable.build(
                profile, totalwork(profile), allocations=(2,), reps=1
            )


class TestSweepFanOut:
    def test_sweep_parallel_matches_serial(self, tmp_path, monkeypatch):
        """Units cross the process pool and come back bit-identical,
        including a transformed job (ablation-speculation's heavier
        stragglers) and its speculation config."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.experiments import exp_ablation_speculation
        from repro.experiments.runner import Sweep, Variant
        from repro.experiments.scenarios import SMOKE, trained_job

        trained = trained_job("A", seed=11, scale=SMOKE, use_cache=False)
        sweep = Sweep(
            (
                Variant("jockey"),
                Variant("max-allocation", kind="max-allocation"),
                exp_ablation_speculation.VARIANTS[1],
            ),
            reps=2,
        )
        serial = sweep.run([trained], seed=3, jobs=1)
        fanned = sweep.run([trained], seed=3, jobs=2)
        assert len(serial) == len(fanned) == 6
        for (ua, a), (ub, b) in zip(serial, fanned):
            assert ua.variant is ub.variant
            assert a.metrics == b.metrics
            assert a.runtime_scale == b.runtime_scale
            assert a.allocation_series == b.allocation_series
        transformed = [u for u, _r in serial if u.variant.transform is not None]
        assert all(u.trained.generated is not trained.generated for u in transformed)
