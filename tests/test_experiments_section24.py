"""Tests for the §2.4/§3.2 motivation studies and guaranteed-only mode."""

import pytest

from repro.experiments import exp_section24
from repro.experiments.scenarios import SMOKE


class TestGuaranteedOnlyMode:
    def test_never_uses_spare(self):
        from repro.runtime.jobmanager import JobManager, run_to_completion
        from repro.simkit.events import Simulator
        from tests.test_runtime_jobmanager import quiet_cluster, two_stage_job

        sim = Simulator()
        cluster = quiet_cluster(sim)
        graph, profile = two_stage_job()
        manager = JobManager(
            cluster, graph, profile, initial_allocation=2,
            use_spare_tokens=False,
        )
        trace = run_to_completion(manager)
        assert trace.spare_fraction() == 0.0
        # Serialized into waves of 2: 3 waves x 10s + 5s reduce.
        assert trace.duration == pytest.approx(35.0)

    def test_spare_weight_override(self):
        from repro.cluster import Consumer
        from repro.runtime.jobmanager import JobManager
        from repro.simkit.events import Simulator
        from tests.test_runtime_jobmanager import quiet_cluster, two_stage_job

        sim = Simulator()
        cluster = quiet_cluster(sim)
        graph, profile = two_stage_job()
        manager = JobManager(
            cluster, graph, profile, initial_allocation=2, spare_weight=77.0,
        )
        assert manager.consumer.weight == 77.0


class TestSpareVarianceStudy:
    def test_report_shape(self):
        report = exp_section24.run_spare_variance(SMOKE)
        assert len(report.rows) == len(SMOKE.jobs)
        for _job, cov_spare, cov_guaranteed, ratio in report.rows:
            assert cov_spare >= 0 and cov_guaranteed >= 0
            assert ratio == pytest.approx(
                cov_spare / max(cov_guaranteed, 1e-9), rel=0.01
            )

    def test_spare_increases_variance_on_average(self):
        report = exp_section24.run_spare_variance(SMOKE)
        ratios = [row[3] for row in report.rows]
        assert sum(ratios) / len(ratios) > 1.0


class TestQuotaSizingStudy:
    def test_report_shape(self):
        report = exp_section24.run_quota_sizing(SMOKE)
        assert len(report.rows) == 2
        for row in report.rows:
            assert 0.0 <= row[1] <= 100.0
