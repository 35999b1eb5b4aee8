"""Determinism and acceptance properties of the ``exp_fleet`` sweep.

The digest must be byte-identical at any worker count, and the sweep must
land the ISSUE's acceptance shape: under injected drift the blended
update policy attains at least the stale-profile arm with the fresh
oracle as the upper bound — and the drift-gated arms never rebuild on a
calm (pre-drift) day.
"""

import os

import pytest

from repro.experiments import SMOKE
from repro.experiments import exp_fleet


@pytest.fixture(scope="module")
def fleet_cache(tmp_path_factory):
    """Both sweep runs share one content-addressed cache: the second run
    (different worker count) must not depend on build locality."""
    cache = tmp_path_factory.mktemp("fleet_exp_cache")
    old = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(cache)
    try:
        yield cache
    finally:
        if old is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = old


def _sweep_digest(jobs: str) -> dict:
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_JOBS", jobs)
        return exp_fleet.run(SMOKE, seed=0).digest


@pytest.fixture(scope="module")
def digest(fleet_cache):
    return _sweep_digest(jobs="1")


class TestSweepDigest:
    def test_digest_identical_across_worker_counts(self, digest, fleet_cache):
        assert _sweep_digest(jobs="2") == digest

    def test_update_policies_beat_stale_under_drift(self, digest):
        """The ISSUE's acceptance ordering on post-drift attainment:
        stale <= blended <= oracle."""
        post = {
            agg["arm"]: agg["attainment_post_drift"]
            for agg in digest["aggregates"]
        }
        assert post["blended"] >= post["stale"]
        assert post["oracle"] >= post["blended"]
        assert post["latest"] >= post["stale"]

    def test_drift_aware_arms_cost_less_than_cold_start(self, digest):
        cost = {
            agg["arm"]: agg["profiling_runs"]
            for agg in digest["aggregates"]
        }
        assert cost["blended"] < cost["cold-start"]
        assert cost["latest"] < cost["cold-start"]

    def test_no_rebuilds_before_drift(self, digest):
        """Warm-path acceptance: drift-gated arms rebuild nothing while
        the workload is calm."""
        calm = [
            r for r in digest["runs"]
            if r["arm"] in ("stale", "latest", "blended")
            and r["day"] < digest["drift"]["day"]
        ]
        assert calm
        assert all(not r["rebuilt"] for r in calm)
        assert all(not r["drift_significant"] for r in calm)

    def test_drift_detected_after_injection(self, digest):
        for arm in ("latest", "blended"):
            hits = [
                r["day"] for r in digest["runs"]
                if r["arm"] == arm and r["drift_significant"]
            ]
            assert hits, arm
            assert min(hits) >= digest["drift"]["day"], arm

    def test_digest_records_every_run(self, digest):
        assert digest["experiment"] == "fleet"
        assert digest["arms"] == list(exp_fleet.ARMS)
        expected = len(exp_fleet.ARMS) * len(SMOKE.jobs) * exp_fleet.DAYS
        assert len(digest["runs"]) == expected
        assert len(digest["summaries"]) == len(exp_fleet.ARMS) * len(
            SMOKE.jobs
        )

    def test_staleness_ordering(self, digest):
        """Cold-start is always fresh; stale ages linearly; the drift-gated
        arms sit in between."""
        staleness = {
            agg["arm"]: agg["mean_staleness_days"]
            for agg in digest["aggregates"]
        }
        assert staleness["cold-start"] == 0.0
        assert staleness["stale"] == max(staleness.values())
        assert (
            staleness["cold-start"]
            <= staleness["blended"]
            <= staleness["stale"]
        )
