"""Property-based (hypothesis) market invariants.

The token market's contract, enforced over generated workloads:

* **conservation** — every tick, guaranteed + spare grants fit inside
  the cluster capacity;
* **quota** — no tenant's live guarantees ever exceed its quota;
* **guarantee protection** — an admitted job's grant never drops below
  ``min(guarantee, demand)``: spare traffic cannot displace it;
* **price monotonicity** — the clearing price is monotone non-decreasing
  in aggregate demand;
* **termination** — every admitted job finishes (and every submitted job
  reaches a terminal state: completed or rejected).
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.market.arbiter import Bid, MarketArbiter
from repro.market.engine import MarketConfig, TokenMarket
from repro.market.tenant import JobSpec, Tenant
from repro.market.workload import generate_market_workload


def build_market(seed: int, mode: str, quota_scale: float) -> TokenMarket:
    tenants, jobs = generate_market_workload(
        tenants=3,
        jobs_per_tenant=6,
        capacity=60,
        quota_scale=quota_scale,
        horizon_ticks=12,
        seed=seed,
    )
    return TokenMarket(
        tenants, jobs, MarketConfig(capacity=60, mode=mode)
    )


market_params = {
    "seed": st.integers(0, 60),
    "mode": st.sampled_from(["pooled", "split"]),
    "quota_scale": st.sampled_from([0.5, 0.8, 1.0]),
}


class TestMarketTickInvariants:
    @given(**market_params)
    @settings(max_examples=25, deadline=None)
    def test_tokens_conserved_every_tick(self, seed, mode, quota_scale):
        market = build_market(seed, mode, quota_scale)
        while not market.done:
            sample = market.step()
            assert sample.guaranteed + sample.spare <= market.config.capacity
            assert sample.granted == sample.guaranteed + sample.spare

    @given(**market_params)
    @settings(max_examples=25, deadline=None)
    def test_no_tenant_exceeds_quota(self, seed, mode, quota_scale):
        market = build_market(seed, mode, quota_scale)
        while not market.done:
            market.step()
            for tenant in market.tenants.values():
                assert tenant.guaranteed_in_use <= tenant.quota
                # The ledger is the sum it replaced.
                assert tenant.guaranteed_in_use == sum(
                    j.guarantee for j in tenant.live.values()
                )

    @given(**market_params)
    @settings(max_examples=25, deadline=None)
    def test_guarantees_never_displaced_by_spare(
        self, seed, mode, quota_scale
    ):
        """Every live job's grant covers min(guarantee, demand): however
        hard other jobs bid for spare tokens, the admission reservation
        holds."""
        market = build_market(seed, mode, quota_scale)
        dt = market.config.tick_seconds
        while not market.done:
            live_before = {
                j.name: (j.guarantee, j.demand(dt))
                for j in market.live_jobs
            }
            market.step()
            for job in market.live_jobs:
                if job.name not in live_before:
                    continue
                guarantee, demand = live_before[job.name]
                assert job.allocation >= min(guarantee, demand)

    @given(**market_params)
    @settings(max_examples=20, deadline=None)
    def test_every_admitted_job_terminates(self, seed, mode, quota_scale):
        market = build_market(seed, mode, quota_scale)
        result = market.run()
        for tenant_stats in result.tenants:
            assert tenant_stats["unfinished"] == 0
            assert (
                tenant_stats["completed"] + tenant_stats["rejected"]
                == tenant_stats["submitted"]
            )
            assert tenant_stats["completed"] >= tenant_stats["admitted"] - 0
        # No live or queued jobs remain anywhere.
        assert all(not t.live for t in market.tenants.values())
        assert all(not t.queue for t in market.tenants.values())

    def test_saturated_pooled_tick_fills_capacity_exactly(self):
        """1 000 jobs that never finish, each guaranteed one token and
        bidding for seven more, on a 2 000-token pool: every tick keeps all
        of them live, grants every guarantee and sells every spare token."""
        names = [f"t{t}" for t in range(10)]
        market = TokenMarket(
            [Tenant(name=name, quota=100) for name in names],
            [
                JobSpec(name=f"{name}-j{i}", tenant=name, work=1e9, width=8,
                        deadline_seconds=2e9)
                for name in names for i in range(100)
            ],
            MarketConfig(capacity=2000, mode="pooled"),
        )
        market.step()  # admits all 1 000
        for _ in range(3):
            sample = market.step()
            assert sample.live == sample.guaranteed == sample.spare == 1000


@st.composite
def bid_schedules(draw):
    """A list of jobs with non-increasing marginal-value schedules."""
    n = draw(st.integers(1, 6))
    bids = []
    for i in range(n):
        raw = draw(st.lists(
            st.floats(0.0, 100.0, allow_nan=False), min_size=0, max_size=6
        ))
        marginals = tuple(sorted(raw, reverse=True))
        bids.append(Bid(job=f"j{i}", tenant="t", marginals=marginals))
    return bids


class TestClearingPriceMonotonicity:
    @given(bids=bid_schedules(), supply=st.integers(0, 20))
    @settings(max_examples=80, deadline=None)
    def test_price_monotone_in_added_demand(self, bids, supply):
        """Adding one more bidder never lowers the clearing price."""
        base = MarketArbiter().clear(bids, supply)
        extra = Bid(job="zzz-extra", tenant="t", marginals=(50.0, 25.0))
        more = MarketArbiter().clear(list(bids) + [extra], supply)
        assert more.demand >= base.demand
        assert more.price >= base.price - 1e-12

    @given(bids=bid_schedules(), supply=st.integers(0, 20))
    @settings(max_examples=80, deadline=None)
    def test_price_monotone_in_scaled_values(self, bids, supply):
        """Scaling every marginal up never lowers the clearing price."""
        base = MarketArbiter().clear(bids, supply)
        scaled = [
            Bid(
                job=b.job, tenant=b.tenant,
                marginals=tuple(2.0 * v for v in b.marginals),
            )
            for b in bids
        ]
        more = MarketArbiter().clear(scaled, supply)
        assert more.price >= base.price - 1e-12

    @given(bids=bid_schedules(), supply=st.integers(0, 20))
    @settings(max_examples=80, deadline=None)
    def test_grants_are_schedule_prefixes_within_supply(self, bids, supply):
        clearing = MarketArbiter().clear(bids, supply)
        assert clearing.granted_total <= supply
        wanted = {b.job: b.tokens_wanted for b in bids}
        for job, granted in clearing.grants.items():
            assert 0 < granted <= wanted[job]


class TestAdmissionFeasibility:
    @given(
        work=st.floats(1.0, 1e5, allow_nan=False),
        width=st.integers(1, 64),
        deadline=st.floats(1.0, 1e5, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_minimum_guarantee_meets_deadline_with_slack(
        self, work, width, deadline
    ):
        from repro.market.admission import MarketAdmission

        spec = JobSpec(
            name="j", tenant="t", work=work, width=width,
            deadline_seconds=deadline,
        )
        # A tenant whose quota cannot bind: only the job itself decides.
        unbound = Tenant(name="t", quota=2**62)
        _outcome, job, reason = MarketAdmission(slack=1.2).admit_one(
            unbound, spec, 0.0
        )
        if job is None:
            # Only infeasible cases are declined: even the full width
            # cannot finish the slack-inflated work in time.
            assert reason == "infeasible_width"
            assert math.ceil(1.2 * work / deadline) > width
        else:
            minimum = job.guarantee
            assert 1 <= minimum <= width
            # The guarantee alone finishes inside the deadline.
            assert 1.2 * work / minimum <= deadline + 1e-6


class TestWorkloadDeterminism:
    @given(seed=st.integers(0, 50))
    @settings(max_examples=20, deadline=None)
    def test_same_seed_same_workload(self, seed):
        a = generate_market_workload(
            tenants=2, jobs_per_tenant=5, capacity=40, seed=seed
        )
        b = generate_market_workload(
            tenants=2, jobs_per_tenant=5, capacity=40, seed=seed
        )
        assert a[1] == b[1]
        assert [t.name for t in a[0]] == [t.name for t in b[0]]
        assert [t.quota for t in a[0]] == [t.quota for t in b[0]]


class TestQuotaValidation:
    def test_quota_sum_over_capacity_rejected(self):
        from repro.market.tenant import MarketError
        import pytest

        tenants = [Tenant(name="a", quota=30), Tenant(name="b", quota=31)]
        with pytest.raises(MarketError, match="quotas sum"):
            TokenMarket(tenants, [], MarketConfig(capacity=60))


class TestDeadlineUtility:
    def test_engine_breakpoints_are_the_core_points(self):
        """The market's vectorized utility is read off
        ``core.utility.deadline_utility``: same breakpoints (relative to
        the deadline), same values between them."""
        import numpy as np

        from repro.core.utility import deadline_utility
        from repro.market import engine

        d = 1800.0
        core = deadline_utility(d)
        assert [(d + x, y) for x, y in zip(engine._UTIL_X, engine._UTIL_Y)] \
            == list(core.points[1:])
        assert engine._UTIL_X.tolist() == [0.0, 600.0, 60_000.0]
        lateness = np.array([-500.0, 0.0, 300.0, 600.0, 30_000.0, 60_000.0])
        assert engine._utility_at(lateness).tolist() == [
            core.value(d + x) for x in lateness
        ]
        # Past the last point the market clamps; the core keeps falling.
        assert engine._utility_at(np.array([1e6]))[0] == engine._UTILITY_FLOOR
