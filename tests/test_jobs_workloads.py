"""Unit tests for the workload generators."""

import numpy as np
import pytest

from repro import persist
from repro.jobs.workloads import (
    TABLE2_SPECS,
    JobSpec,
    generate_job,
    generate_table2_jobs,
    mapreduce_job,
    named_job,
    random_job,
)


class TestSpecs:
    def test_all_seven_jobs_present(self):
        assert sorted(TABLE2_SPECS) == list("ABCDEFG")

    def test_published_vertex_counts(self):
        assert TABLE2_SPECS["A"].num_vertices == 681
        assert TABLE2_SPECS["G"].num_vertices == 8496

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            JobSpec("x", 2, 2, 10, 1.0, 2.0, 1.0, 3.0, 1.0)  # barriers >= stages
        with pytest.raises(ValueError):
            JobSpec("x", 5, 0, 3, 1.0, 2.0, 1.0, 3.0, 1.0)  # vertices < stages


class TestGenerateJob:
    def test_structure_matches_spec_exactly(self):
        for name, spec in TABLE2_SPECS.items():
            graph = generate_job(spec, seed=3).graph
            assert graph.num_stages == spec.num_stages, name
            assert graph.num_barrier_stages == spec.num_barriers, name
            assert graph.num_vertices == spec.num_vertices, name

    def test_deterministic_per_seed(self):
        a = generate_job(TABLE2_SPECS["A"], seed=9)
        b = generate_job(TABLE2_SPECS["A"], seed=9)
        assert [s.num_tasks for s in a.graph.stages] == [
            s.num_tasks for s in b.graph.stages
        ]

    def test_different_seeds_differ(self):
        a = generate_job(TABLE2_SPECS["A"], seed=1)
        b = generate_job(TABLE2_SPECS["A"], seed=2)
        assert [s.num_tasks for s in a.graph.stages] != [
            s.num_tasks for s in b.graph.stages
        ]

    def test_vertex_scale_shrinks_counts(self):
        full = generate_job(TABLE2_SPECS["C"], seed=0)
        small = generate_job(TABLE2_SPECS["C"], seed=0, vertex_scale=0.25)
        assert small.graph.num_stages == full.graph.num_stages
        assert small.graph.num_vertices < full.graph.num_vertices / 2

    def test_invalid_vertex_scale(self):
        with pytest.raises(ValueError):
            generate_job(TABLE2_SPECS["A"], vertex_scale=0.0)
        with pytest.raises(ValueError):
            generate_job(TABLE2_SPECS["A"], vertex_scale=1.5)

    def test_runtime_median_in_ballpark(self):
        """The vertex-weighted runtime median should approximate the
        published value (within 2x — the fit is statistical)."""
        rng = np.random.default_rng(0)
        for name in ("A", "C", "F"):
            spec = TABLE2_SPECS[name]
            generated = generate_job(spec, seed=1)
            samples = []
            for stage in generated.graph.stages:
                sp = generated.profile.stage(stage.name)
                samples += [sp.runtime.sample(rng) for _ in range(stage.num_tasks // 10 + 1)]
            measured = float(np.median(samples))
            assert spec.runtime_median / 2 <= measured <= spec.runtime_median * 2

    def test_profile_covers_all_stages(self):
        generated = generate_job(TABLE2_SPECS["B"], seed=0)
        for stage in generated.graph.stages:
            assert generated.profile.stage(stage.name) is not None

    def test_failure_prob_applied(self):
        generated = generate_job(TABLE2_SPECS["A"], seed=0, failure_prob=0.05)
        assert all(
            generated.profile.stage(s.name).failure_prob == 0.05
            for s in generated.graph.stages
        )


class TestGenerateTable2Jobs:
    def test_generates_all(self):
        jobs = generate_table2_jobs(seed=0)
        assert sorted(jobs) == list("ABCDEFG")

    @pytest.mark.parametrize("seed, vertex_scale", [(0, 1.0), (3, 0.15)])
    def test_one_job_alone_is_its_entry_in_the_dict(self, seed, vertex_scale):
        """Each job draws from its own ``workload:<name>`` stream, so callers
        that want one (``trained_job``, the fleet, the CLI) generate one."""
        together = generate_table2_jobs(seed=seed, vertex_scale=vertex_scale)
        for name, spec in TABLE2_SPECS.items():
            for alone in (
                generate_job(spec, seed=seed, vertex_scale=vertex_scale),
                named_job(name, seed=seed, vertex_scale=vertex_scale),
            ):
                assert alone.spec is together[name].spec
                assert alone.graph.stages == together[name].graph.stages
                assert alone.graph.edges == together[name].graph.edges
                assert persist.profile_to_dict(
                    alone.profile
                ) == persist.profile_to_dict(together[name].profile)
        assert named_job("H", seed=seed) is None
        by_name = named_job("mapreduce", seed=seed, vertex_scale=vertex_scale)
        assert by_name.graph.stages == mapreduce_job().graph.stages


class TestMapReduce:
    def test_shape(self):
        generated = mapreduce_job(num_maps=10, num_reduces=2)
        graph = generated.graph
        assert graph.num_stages == 2
        assert graph.num_barrier_stages == 1
        assert graph.stage("map").num_tasks == 10

    def test_reduce_waits_for_maps(self):
        from repro.jobs.dag import DependencyTracker

        generated = mapreduce_job(num_maps=3, num_reduces=1)
        tracker = DependencyTracker(generated.graph)
        tracker.initially_ready()
        assert tracker.complete("map", 0) == []
        assert tracker.complete("map", 1) == []
        assert tracker.complete("map", 2) == [("reduce", 0)]


class TestRandomJob:
    def test_deterministic(self):
        a = random_job("r", seed=5)
        b = random_job("r", seed=5)
        assert a.graph.num_vertices == b.graph.num_vertices

    def test_honors_explicit_sizes(self):
        generated = random_job("r", seed=1, num_stages=6, num_vertices=120)
        assert generated.graph.num_stages == 6
        assert generated.graph.num_vertices == 120
