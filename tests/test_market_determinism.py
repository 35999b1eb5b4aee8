"""Determinism and acceptance properties of the ``exp_market`` sweep.

The digest must be byte-identical at any worker count and across repeat
runs on the same seed, and the sweep must land the ISSUE's acceptance
shape: split token buckets attain strictly less than the pooled market
on paired workloads.
"""

import pytest

from repro.experiments import SMOKE
from repro.experiments import exp_market
from repro.experiments.metrics import verdict


def _sweep_digest(jobs: str) -> dict:
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_JOBS", jobs)
        return exp_market.run(SMOKE, seed=0).digest


@pytest.fixture(scope="module")
def digest():
    return _sweep_digest(jobs="1")


class TestSweepDigest:
    def test_digest_identical_across_worker_counts(self, digest):
        assert _sweep_digest(jobs="2") == digest

    def test_digest_identical_across_repeat_runs(self, digest):
        assert _sweep_digest(jobs="1") == digest

    def test_split_attains_strictly_less_than_pooled(self, digest):
        """The ISSUE's acceptance inequality on paired seeds."""
        assert digest["split_attainment"] < digest["pooled_attainment"]
        # And per paired workload, splitting never helps.
        for pair in digest["pairs"]:
            assert pair["split_attainment"] <= pair["pooled_attainment"]

    def test_the_claim_is_judged_on_the_pairs(self, digest):
        [claim] = digest["claims"]
        wins = sum(pair["delta"] > 0 for pair in digest["pairs"])
        losses = sum(pair["delta"] < 0 for pair in digest["pairs"])
        assert (claim["wins"], claim["losses"]) == (wins, losses)
        assert claim["verdict"] == verdict(wins, losses).reading

    def test_pairs_share_workloads(self, digest):
        """Pooled and split cells submit identical job populations."""
        by_key = {
            (u["mode"], u["quota_scale"], u["rep"]): u
            for u in digest["runs"]
        }
        for qs in digest["quota_scales"]:
            for rep in range(digest["shape"]["reps"]):
                pooled = by_key[("pooled", qs, rep)]
                split = by_key[("split", qs, rep)]
                assert pooled["submitted"] == split["submitted"]
                assert (
                    [t["name"] for t in pooled["tenants"]]
                    == [t["name"] for t in split["tenants"]]
                )
                assert (
                    [t["quota"] for t in pooled["tenants"]]
                    == [t["quota"] for t in split["tenants"]]
                )

    def test_digest_records_every_run(self, digest):
        assert digest["experiment"] == "market"
        shape = digest["shape"]
        expected = 2 * len(digest["quota_scales"]) * shape["reps"]
        assert len(digest["runs"]) == expected
        assert len(digest["aggregates"]) == 2 * len(digest["quota_scales"])
        for unit in digest["runs"]:
            assert (
                unit["submitted"]
                == shape["tenants"] * shape["jobs_per_tenant"]
            )

    def test_tighter_quotas_cost_attainment(self, digest):
        """Quota sizing matters: the fully-tiled quota (1.0) beats the
        tightest sizing swept, in both market structures."""
        for mode in ("pooled", "split"):
            by_qs = {
                a["quota_scale"]: a["attainment"]
                for a in digest["aggregates"] if a["mode"] == mode
            }
            scales = sorted(by_qs)
            assert by_qs[scales[0]] <= by_qs[scales[-1]], mode
