"""Unit tests for guarantee admission and the inter-job arbiter.

``repro.core.admission`` and ``repro.core.arbiter`` were folded into
``repro.market`` (one admission, one clearing).  This file and its first
three classes keep their names because the tier-1 floor pins their test
ids; every case now drives the surviving implementation:
``CpaTable.min_allocation_for``, ``MarketAdmission`` + ``Tenant``, and
``split_slice`` (bids from each controller's candidates through
``MarketArbiter.clear``).
"""

import numpy as np
import pytest

from repro.core.control import ControlConfig, JockeyController
from repro.core.cpa import CpaError, CpaTable
from repro.core.progress import totalwork
from repro.core.utility import deadline_utility
from repro.experiments.multijob import split_slice
from repro.market.admission import MarketAdmission
from repro.market.engine import MarketConfig, TokenMarket
from repro.market.tenant import JobSpec, MarketError, Tenant
from tests.test_core_simulator import deterministic_profile


@pytest.fixture(scope="module")
def table():
    profile = deterministic_profile()  # ~70s serial, ~15s wide
    return CpaTable.build(
        profile, totalwork(profile), np.random.default_rng(0),
        allocations=(1, 2, 4, 8), reps=3, num_bins=20, sample_dt=2.0,
    )


class TestSloRequest:
    """What a job's own table says it must be guaranteed."""

    def test_min_allocation_loose_deadline(self, table):
        assert table.min_allocation_for(200.0) == 1

    def test_min_allocation_tight_deadline(self, table):
        assert table.min_allocation_for(30.0, q=0.95) in (4, 8)

    def test_min_allocation_infeasible(self, table):
        assert table.min_allocation_for(5.0 / 1.2) is None

    def test_elapsed_shrinks_budget(self, table):
        fresh = table.min_allocation_for(80.0, q=0.95)
        started = table.min_allocation_for(80.0 - 50.0, q=0.95)
        assert started > fresh

    def test_validation(self, table):
        assert table.min_allocation_for(-1.0) is None
        with pytest.raises(CpaError):
            table.min_allocation_for(10.0, progress=2.0)


def spec(name, work, deadline, *, width=8, tenant="t"):
    return JobSpec(
        name=name, tenant=tenant, work=work, width=width,
        deadline_seconds=deadline,
    )


class TestAdmissionController:
    """One guaranteed slice is one tenant whose quota is the slice."""

    def test_admits_when_fits(self):
        tenant = Tenant(name="t", quota=10)
        outcome, job, reason = MarketAdmission(slack=1.0).admit_one(
            tenant, spec("a", 200.0, 200.0), 0.0
        )
        assert (outcome, reason) == ("admitted", None)
        assert job.guarantee == 1
        assert tenant.live == {"a": job}
        assert tenant.guaranteed_in_use == 1

    def test_rejects_when_over_capacity(self):
        """The minimums of the admitted jobs plus the newcomer's exceed
        the slice: it is not admitted, and nothing is reserved for it."""
        tenant = Tenant(name="t", quota=5)
        admission = MarketAdmission(slack=1.0)
        assert admission.admit_one(tenant, spec("a", 120.0, 30.0), 0.0)[0] == "admitted"
        outcome, job, _reason = admission.admit_one(
            tenant, spec("b", 120.0, 30.0), 0.0
        )
        assert (outcome, job) == ("queued", None)
        assert tenant.guaranteed_in_use == 4
        assert admission.stats.queue_waits == 1

    def test_rejects_infeasible_job(self):
        """No allocation within the job's width meets the deadline."""
        tenant = Tenant(name="t", quota=100)
        admission = MarketAdmission()
        outcome, _job, reason = admission.admit_one(
            tenant, spec("a", 700.0, 5.0), 0.0
        )
        assert (outcome, reason) == ("rejected", "infeasible_width")
        assert tenant.rejected_reasons == {"infeasible_width": 1}
        assert admission.stats.rejected_reasons == {"infeasible_width": 1}

    def test_evaluate_does_not_admit(self):
        """The guarantee is what the remaining budget needs, read through
        ``admit_one`` on a tenant whose quota cannot bind, and exactly that
        much is reserved."""
        unbound = Tenant(name="t", quota=2**62)
        admission = MarketAdmission(slack=1.0)
        at_0 = admission.admit_one(unbound, spec("a", 200.0, 100.0), 0.0)[1]
        at_60 = admission.admit_one(unbound, spec("b", 200.0, 100.0), 60.0)[1]
        assert (at_0.guarantee, at_60.guarantee) == (2, 5)
        assert unbound.guaranteed_in_use == 2 + 5

    def test_release_frees_capacity(self):
        tenant = Tenant(name="t", quota=5)
        admission = MarketAdmission(slack=1.0)
        admission.admit_one(tenant, spec("a", 120.0, 30.0), 0.0)
        tenant.release("a")  # what the engine does on completion
        assert admission.admit_one(tenant, spec("b", 120.0, 30.0), 0.0)[0] == "admitted"

    def test_release_unknown(self):
        """A job for a tenant nobody registered is refused up front,
        naming both."""
        with pytest.raises(MarketError, match="'a'.*unknown tenant 'ghost'"):
            TokenMarket(
                [Tenant(name="t", quota=5)],
                [spec("a", 10.0, 10.0, tenant="ghost")],
                MarketConfig(capacity=5),
            )

    def test_duplicate_names_rejected(self):
        with pytest.raises(MarketError, match="duplicate job names"):
            TokenMarket(
                [Tenant(name="t", quota=5)],
                [spec("a", 10.0, 10.0), spec("a", 10.0, 10.0)],
                MarketConfig(capacity=5),
            )

    def test_bad_capacity(self):
        with pytest.raises(MarketError):
            Tenant(name="t", quota=0)
        with pytest.raises(MarketError):
            MarketAdmission(slack=0.5)


class LinearJob:
    """Predictor stub: remaining = work / allocation."""

    name = "stub"

    def __init__(self, work):
        self.work = work

    def remaining_seconds(self, fractions, allocation):
        return self.work / allocation

    def remaining_seconds_batch(self, fractions, allocations):
        return [self.work / a for a in allocations]


def linear(work, deadline, *, step=1, floor=1):
    """The candidates of a controller on the grid ``floor, floor + step,
    ...`` that prices the unshifted deadline utility without slack."""
    config = ControlConfig(
        slack=1.0, dead_zone_seconds=0.0, min_tokens=floor, allocation_step=step
    )
    controller = JockeyController(LinearJob(work), deadline_utility(deadline), config)
    return controller.candidates({}, 0.0)


class TestArbiter:
    def test_budget_respected(self):
        jobs = {"a": linear(10_000.0, 3600.0), "b": linear(10_000.0, 3600.0)}
        allocations = split_slice(jobs, 40)
        assert sum(allocations.values()) <= 40

    def test_tight_job_gets_more(self):
        jobs = {
            "tight": linear(50_000.0, 1000.0, step=5),
            "slack": linear(50_000.0, 10_000.0, step=5),
        }
        allocations = split_slice(jobs, 70)
        assert allocations["tight"] > allocations["slack"]

    def test_both_meet_when_possible(self):
        jobs = {
            "a": linear(30_000.0, 2000.0),   # needs 15
            "b": linear(60_000.0, 2000.0),   # needs 30
        }
        allocations = split_slice(jobs, 60)
        assert allocations == {"a": 15, "b": 30}

    def test_no_gain_stops_early(self):
        jobs = {"a": linear(100.0, 36_000.0, step=5)}  # trivially satisfied
        assert split_slice(jobs, 100) == {"a": 1}

    def test_empty(self):
        assert split_slice({}, 10) == {}

    def test_errors(self):
        jobs = {"a": linear(1.0, 10.0)}
        with pytest.raises(ValueError, match="0 tokens cannot cover 1 jobs"):
            split_slice(jobs, 0)
        jobs = {"a": linear(1.0, 10.0, floor=10), "b": linear(1.0, 10.0, floor=10)}
        with pytest.raises(ValueError, match="19 tokens cannot cover 2 jobs"):
            split_slice(jobs, 19)


# ----------------------------------------------------------------------
# Market-layer edge cases (the batched arbiter and quota admission)
# ----------------------------------------------------------------------


class TestMarketArbiterEdges:
    def test_zero_token_budget_prices_best_unserved_bid(self):
        """Supply 0 with live demand grants nothing; the price reports
        what the market would bear."""
        from repro.market.arbiter import Bid, MarketArbiter

        bids = [
            Bid(job="a", tenant="t", marginals=(5.0, 2.0)),
            Bid(job="b", tenant="t", marginals=(9.0,)),
        ]
        clearing = MarketArbiter().clear(bids, 0)
        assert clearing.grants == {}
        assert clearing.price == 9.0
        assert clearing.demand == 3

    def test_zero_budget_zero_demand(self):
        from repro.market.arbiter import Bid, MarketArbiter

        clearing = MarketArbiter().clear(
            [Bid(job="a", tenant="t", marginals=())], 0
        )
        assert clearing.grants == {}
        assert clearing.price == 0.0

    def test_single_job_market(self):
        """One bidder takes its whole schedule; with supply to spare the
        price is 0 (nobody competes)."""
        from repro.market.arbiter import Bid, MarketArbiter

        clearing = MarketArbiter().clear(
            [Bid(job="only", tenant="t", marginals=(4.0, 3.0, 1.0))], 10
        )
        assert clearing.grants == {"only": 3}
        assert clearing.price == 0.0
        assert clearing.demand == 3

    def test_exact_tie_broken_by_job_name(self):
        """Equal marginal values go to the lexicographically smaller job
        name, regardless of bid order."""
        from repro.market.arbiter import Bid, MarketArbiter

        bids = [
            Bid(job="zeta", tenant="t", marginals=(7.0,)),
            Bid(job="alpha", tenant="t", marginals=(7.0,)),
        ]
        clearing = MarketArbiter().clear(bids, 1)
        assert clearing.grants == {"alpha": 1}
        reversed_clearing = MarketArbiter().clear(bids[::-1], 1)
        assert reversed_clearing.grants == {"alpha": 1}

    def test_tie_across_schedules_grants_prefixes(self):
        from repro.market.arbiter import Bid, MarketArbiter

        bids = [
            Bid(job="b", tenant="t", marginals=(7.0, 7.0)),
            Bid(job="a", tenant="t", marginals=(7.0, 7.0)),
        ]
        clearing = MarketArbiter().clear(bids, 3)
        assert clearing.grants == {"a": 2, "b": 1}

    def test_non_increasing_schedule_enforced(self):
        from repro.market.arbiter import Bid
        from repro.market.tenant import MarketError

        with pytest.raises(MarketError, match="non-increasing"):
            Bid(job="a", tenant="t", marginals=(1.0, 2.0))


class TestMarketAdmissionEdges:
    @staticmethod
    def _tenant(name="t", quota=10):
        from repro.market.tenant import Tenant

        return Tenant(name=name, quota=quota)

    @staticmethod
    def _spec(name, work, width, deadline, tenant="t", submit=0.0):
        from repro.market.tenant import JobSpec

        return JobSpec(
            name=name, tenant=tenant, work=work, width=width,
            deadline_seconds=deadline, submit_seconds=submit,
        )

    def test_zero_deadline_budget_rejected(self):
        """A job whose deadline already passed while queued is rejected
        as deadline_passed, not admitted at any guarantee."""
        from repro.market.admission import MarketAdmission

        tenant = self._tenant()
        tenant.queue.append(self._spec("late", 100.0, 4, 60.0))
        admission = MarketAdmission()
        admitted, rejected = admission.tick({"t": tenant}, now=60.0)
        assert admitted == []
        assert [(s.name, r) for s, r in rejected] == [("late", "deadline_passed")]
        assert tenant.rejected_reasons == {"deadline_passed": 1}

    @pytest.mark.parametrize("work, deadline", [(1.7e308, 60.0), (60.0, 1e-310)])
    def test_overflowing_guarantee_is_infeasible_width(self, work, deadline):
        """``slack * work / budget`` overflows to inf: no width can hold
        that, so the spec is rejected, where ``math.ceil`` used to raise
        ``OverflowError``."""
        from repro.market.admission import MarketAdmission

        admission = MarketAdmission()
        outcome, _job, reason = admission.admit_one(
            self._tenant(), self._spec("huge", work, 8, deadline), 0.0
        )
        assert (outcome, reason) == ("rejected", "infeasible_width")
        tenant = self._tenant()
        tenant.queue.append(self._spec("huge", work, 8, deadline))
        admitted, rejected = admission.tick({"t": tenant}, now=0.0)
        assert admitted == [] and list(tenant.queue) == []
        assert [(s.name, r) for s, r in rejected] == [("huge", "infeasible_width")]
        assert admission.stats.rejected_reasons == {"infeasible_width": 2}

    def test_over_subscribed_admission_is_fifo(self):
        """When the quota cannot host every queued job at once, earlier
        submissions win and later ones wait (no reordering)."""
        from repro.market.admission import MarketAdmission

        tenant = self._tenant(quota=10)
        # Each needs 6 tokens: only one fits at a time.
        for i in range(3):
            tenant.queue.append(
                self._spec(f"j{i}", work=4320.0, width=8, deadline=720.0)
            )
        admission = MarketAdmission(slack=1.0)
        admitted, rejected = admission.tick({"t": tenant}, now=0.0)
        assert [j.name for j in admitted] == ["j0"] and rejected == []
        assert [s.name for s in tenant.queue] == ["j1", "j2"]
        assert admission.stats.queue_waits == 2

    def test_admission_order_deterministic_across_tenants(self):
        """Tenants are visited in sorted-name order regardless of dict
        insertion order."""
        from repro.market.admission import MarketAdmission

        beta = self._tenant("beta")
        alpha = self._tenant("alpha")
        beta.queue.append(
            self._spec("jb", 60.0, 4, 600.0, tenant="beta")
        )
        alpha.queue.append(
            self._spec("ja", 60.0, 4, 600.0, tenant="alpha")
        )
        admission = MarketAdmission()
        admitted, _rejected = admission.tick({"beta": beta, "alpha": alpha}, now=0.0)
        assert [j.name for j in admitted] == ["ja", "jb"]

    def test_guarantee_wider_than_quota_rejected_outright(self):
        from repro.market.admission import MarketAdmission

        tenant = self._tenant(quota=2)
        tenant.queue.append(
            self._spec("big", work=3600.0, width=8, deadline=720.0)
        )
        admission = MarketAdmission(slack=1.0)
        admitted, rejected = admission.tick({"t": tenant}, now=0.0)
        assert admitted == []
        assert [(s.name, r) for s, r in rejected] == [("big", "exceeds_quota")]
        assert tenant.rejected_reasons == {"exceeds_quota": 1}

    def test_single_job_market_runs_to_completion(self):
        """The smallest possible market: one tenant, one job, enough
        tokens — the job is admitted, drains, and meets its deadline."""
        from repro.market.engine import MarketConfig, TokenMarket
        from repro.market.tenant import JobSpec, Tenant

        tenants = [Tenant(name="t", quota=8)]
        jobs = [JobSpec(
            name="solo", tenant="t", work=600.0, width=8,
            deadline_seconds=600.0,
        )]
        result = TokenMarket(
            tenants, jobs, MarketConfig(capacity=8, tick_seconds=60.0)
        ).run()
        assert result.submitted == 1
        assert result.met == 1
        assert result.attainment == 1.0
        assert len(result.completions) == 1
        assert result.completions[0]["met"] is True
