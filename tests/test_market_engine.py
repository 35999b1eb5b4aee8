"""The array-backed market tick: pinned tick by tick, compared with the
per-job bid construction it replaced, and checked as a view; and its
admission loop, compared with the per-spec calls it replaced."""

import json
import math
from dataclasses import astuple
from pathlib import Path
from typing import List, Mapping, Optional, Tuple

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.market.admission import (
    _ADMITTED,
    _QUEUE_WAITS,
    _REJECTED,
    MarketAdmission,
)
from repro.market.arbiter import Bid, BidBook, MarketArbiter, concave_marginals
from repro.market.engine import _EPS_BID, MarketConfig, TokenMarket, _utility_at
from repro.market.tenant import JobSpec, MarketError, MarketJob, Tenant
from repro.market.workload import generate_market_workload

PINS_PATH = Path(__file__).parent / "golden" / "market_pins.json"

#: (mode, quota_scale, seed): 4 tenants x 10 jobs on 120 tokens.  At
#: quota_scale 1.0 jobs queue, run late and bid real utility (pooled and
#: split part ways); at 0.5 most of the workload is rejected.
PIN_CASES = [
    ("pooled", 0.5, 11),
    ("split", 0.5, 11),
    ("pooled", 1.0, 7),
    ("split", 1.0, 7),
]


def pin_id(case) -> str:
    mode, quota_scale, seed = case
    return f"{mode}-q{quota_scale:g}-seed{seed}"


def tick_series(case) -> dict:
    mode, quota_scale, seed = case
    tenants, jobs = generate_market_workload(
        tenants=4, jobs_per_tenant=10, capacity=120,
        quota_scale=quota_scale, horizon_ticks=6, seed=seed,
    )
    result = TokenMarket(
        tenants, jobs, MarketConfig(capacity=120, mode=mode)
    ).run()
    # json writes floats with repr, so equal files mean equal bits.
    return {
        "samples": [list(astuple(s))[2:] for s in result.samples],
        "completions": result.completions,
    }


class TestPerTickPins:
    """``golden/market_pins.json`` was captured on the commit before the
    live set became arrays and the bids stayed flat (``{pin_id(c):
    tick_series(c) for c in PIN_CASES}`` dumped with that commit's ``src``
    on the path); it passes unchanged on both sides.
    ``MarketResult.to_digest`` drops the per-tick series, so only this can
    see a tick-level change that nets out: every ``TickSample`` (live,
    queued, granted, guaranteed, spare, price, demand) and the completions
    list."""

    PINS = json.loads(PINS_PATH.read_text())

    def test_pins_cover_the_cases(self):
        assert list(self.PINS) == [pin_id(c) for c in PIN_CASES]

    @pytest.mark.parametrize("case", PIN_CASES, ids=pin_id)
    def test_run_matches_pin(self, case):
        assert tick_series(case) == self.PINS[pin_id(case)]


class TestBidsArePricedOnlyWhenContested:
    """The engine hands the auction its bids deferred; ``clear`` prices
    them only when some slice's bids reach its supply."""

    def test_the_pinned_markets_take_both_routes(self, monkeypatch):
        priced, clears = [], []
        real_priced, real_clear = BidBook.priced, MarketArbiter.clear

        def counting_priced(book):
            priced.append(len(clears))
            return real_priced(book)

        def counting_clear(arbiter, bids, supply):
            clearing = real_clear(arbiter, bids, supply)
            clears.append((callable(bids.values), clearing))
            return clearing

        monkeypatch.setattr(BidBook, "priced", counting_priced)
        monkeypatch.setattr(MarketArbiter, "clear", counting_clear)
        for case in PIN_CASES:
            assert tick_series(case) == TestPerTickPins.PINS[pin_id(case)]
        assert all(deferred for deferred, _clearing in clears)
        # ``priced`` ran inside the clearing that was then recorded.
        contested = [
            (clearing.demands >= np.maximum(clearing.supplies, 1)).any()
            for _deferred, clearing in clears
        ]
        assert sorted(priced) == [i for i, c in enumerate(contested) if c]
        assert 0 < len(priced) < len(clears)

    def test_an_uncontested_book_is_never_priced(self):
        def unpriceable():
            raise AssertionError("priced an uncontested book")

        job_idx, step = BidBook.layout([2, 0, 3])
        book = BidBook(["b", "a", "c"], np.array([1, 0, 2]), unpriceable,
                       job_idx, step, np.array([0, 2, 3]))
        clearing = MarketArbiter().clear(book, [3, 4])
        assert clearing.granted.tolist() == [2, 0, 3]
        assert clearing.prices.tolist() == [0.0, 0.0]
        assert clearing.demands.tolist() == [2, 3]

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
    def test_a_deferred_non_positive_bid_is_refused(self, bad):
        job_idx, step = BidBook.layout([2, 2])
        book = BidBook(["a", "b"], np.array([0, 1]),
                       lambda: np.array([0.5, 0.25, 0.5, bad]), job_idx, step)
        with pytest.raises(MarketError, match="bid for 'b'.*positive"):
            MarketArbiter().clear(book, 3)

    def test_a_deferred_rising_schedule_is_refused(self):
        job_idx, step = BidBook.layout([2, 2])
        book = BidBook(["a", "b"], np.array([0, 1]),
                       lambda: np.array([0.5, 0.25, 0.25, 0.5]), job_idx, step)
        with pytest.raises(MarketError, match="bid for 'b'.*non-increasing"):
            MarketArbiter().clear(book, 3)


class TestArrivals:
    """Arrivals are read off the sorted schedule with the heap's rule:
    a spec due at or before a tick boundary is queued in that tick."""

    def test_boundary_arrivals_in_name_order(self):
        # Each job needs a guarantee of 2 = the quota: one runs, one waits.
        jobs = [
            JobSpec(name=name, tenant="t", work=600.0, width=4,
                    deadline_seconds=600.0, submit_seconds=submit)
            for name, submit in (("b", 60.0), ("late", 60.000001), ("a", 60.0))
        ]
        tenant = Tenant(name="t", quota=2)
        market = TokenMarket([tenant], jobs, MarketConfig(capacity=4))
        first = market.step()
        assert (first.now, tenant.submitted, first.live) == (0.0, 0, 0)
        second = market.step()
        assert market.now == second.now == 60.0
        assert tenant.submitted == 2
        assert [j.name for j in market.live_jobs] == ["a"]
        assert [spec.name for spec in tenant.queue] == ["b"]
        market.step()
        assert tenant.submitted == 3
        assert [spec.name for spec in tenant.queue] == ["b", "late"]


# ----------------------------------------------------------------------
# The flat tick against the per-job path it replaced
# ----------------------------------------------------------------------


def per_job_clear(market):
    """The reference: what ``TokenMarket._clear`` did before the bids
    stayed flat.  Each live job's utility curve is clamped on its own,
    becomes a tuple and a ``Bid``; a bucket's bids are a Python list and
    each job's grant is looked up by name."""
    live = market.live_jobs
    now, slack = market.now, market.config.slack
    dt = market.config.tick_seconds
    g, schedules = [], []
    for job in live:
        demand = job.demand(dt)
        g.append(min(job.guarantee, demand))
        k = np.arange(g[-1] + 1, demand + 1)
        deadline = job.spec.absolute_deadline
        values = _utility_at(now + slack * job.remaining / k - deadline)
        floor = _utility_at(now + slack * job.remaining / g[-1] - deadline)
        schedules.append(tuple(concave_marginals(values, floor) + _EPS_BID / k))
    if market.config.mode == "pooled":
        groups = [range(len(live))]
    else:
        groups = [
            [i for i, job in enumerate(live) if job.tenant == name]
            for name in sorted(market.tenants)
        ]
    grants = list(g)
    merged = {"price": 0.0, "demand": 0, "supply": 0}
    for bucket, group in zip(market._buckets, groups):
        clearing = MarketArbiter().clear(
            [
                Bid(live[i].name, live[i].tenant, schedules[i])
                for i in group if schedules[i]
            ],
            max(0, bucket - sum(g[i] for i in group)),
        )
        for i in group:
            grants[i] += clearing.grants.get(live[i].name, 0)
        merged["price"] = max(merged["price"], clearing.price)
        for field in ("demand", "supply"):
            merged[field] += getattr(clearing, field)
    return g, grants, merged


#: (tenant, width, work, deadline).  Few distinct shapes, so many jobs bid
#: identical schedules and the name-rank tie-break decides at the cut;
#: width 1 and the small works give jobs whose demand equals their
#: guarantee (they bid nothing).
job_shapes = st.tuples(
    st.integers(0, 4),
    st.sampled_from([1, 3, 8, 30]),
    st.sampled_from([400.0, 2_500.0, 31_000.0, 120_000.0]),
    st.sampled_from([200.0, 1_000.0, 4_000.0]),
)


@st.composite
def live_sets(draw):
    n_jobs = draw(st.integers(1, 60))
    return dict(
        shapes=draw(st.lists(job_shapes, min_size=n_jobs, max_size=n_jobs)),
        # Shuffled numbering: name order is not (tenant, name) order.
        numbers=draw(st.permutations(range(n_jobs))),
        n_tenants=draw(st.integers(1, 5)),
        mode=draw(st.sampled_from(["pooled", "split"])),
        # Spare tokens beyond the quotas: supply 0 / tight / slack.
        extra=draw(st.sampled_from([0, 0, 1, 2, 5, 100_000])),
        ticks=draw(st.integers(1, 3)),
        # Seconds the clock moves on before the compared tick: jobs run
        # anywhere from early to hopelessly late.
        later=draw(st.sampled_from(
            [0.0, 0.0, 60.0, 900.0, 2_500.0, 5_000.0, 12_000.0, 90_000.0]
        )),
    )


def live_market(shapes, numbers, n_tenants, mode, extra, ticks, later):
    """A market ``ticks`` ticks in: every feasible job admitted at tick 0
    into quotas that are exactly full."""
    jobs = [
        JobSpec(name=f"j{number:02d}", tenant=f"t{tenant % n_tenants}",
                work=work, width=width, deadline_seconds=deadline)
        for number, (tenant, width, work, deadline) in zip(numbers, shapes)
    ]
    # Each job's guarantee at tick 0, read through admission on a tenant
    # whose quota cannot bind (0 for a job it rejects).
    unbound = Tenant(name="unbound", quota=2**62)
    guarantee = {
        job.name: getattr(
            MarketAdmission().admit_one(unbound, job, 0.0)[1], "guarantee", 0
        )
        for job in jobs
    }
    tenants = [
        Tenant(name=f"t{t}", quota=max(1, sum(
            guarantee[job.name] for job in jobs if job.tenant == f"t{t}"
        )))
        for t in range(n_tenants)
    ]
    capacity = sum(t.quota for t in tenants) + extra
    market = TokenMarket(tenants, jobs, MarketConfig(capacity=capacity, mode=mode))
    for _ in range(ticks):
        market.step()
    market.now += later
    return market


class TestFlatTickIsThePerJobPath:
    # Two identical jobs, one spare token, the smaller name in the later
    # tenant: rank is by name across the auction, not by live-set position.
    @example(live_set=dict(
        shapes=[(0, 30, 31_000.0, 4_000.0), (1, 30, 31_000.0, 4_000.0)],
        numbers=[1, 0], n_tenants=2, mode="pooled", extra=1, ticks=1, later=0.0,
    ))
    @given(live_set=live_sets())
    def test_equal_clearings(self, live_set):
        market = live_market(**live_set)
        g, grants, merged = per_job_clear(market)
        flat_g, clearing = market._clear(market.config.tick_seconds)
        # Admission reserves >= 1 token and demand is >= 1, so no live job
        # has a zero guaranteed part (the engine has no branch for one).
        assert not g or min(g) >= 1
        assert flat_g.tolist() == g
        assert (flat_g + clearing.granted).tolist() == grants
        assert {
            field: getattr(clearing, field) for field in merged
        } == merged


# ----------------------------------------------------------------------
# MarketJob as the reporting view
# ----------------------------------------------------------------------


class TestMarketJobIsAView:
    @pytest.mark.parametrize("mode", ["pooled", "split"])
    def test_jobs_report_the_arrays(self, mode):
        tenants, jobs = generate_market_workload(
            tenants=3, jobs_per_tenant=8, capacity=90, horizon_ticks=5, seed=5
        )
        market = TokenMarket(tenants, jobs, MarketConfig(capacity=90, mode=mode))
        admitted = {}
        admission_tick = market.admission.tick

        def recording_tick(tenants, now):
            jobs, rejected = admission_tick(tenants, now)
            admitted.update((job.name, job) for job in jobs)
            return jobs, rejected

        market.admission.tick = recording_tick
        completed = 0
        while not market.done:
            sample = market.step()
            live, rows = market.live_jobs, market._live
            assert [j.name for j in live] == rows["name"].tolist()
            assert [(j.tenant, j.name) for j in live] == sorted(
                (j.tenant, j.name) for j in live
            )
            assert [j.remaining for j in live] == rows["remaining"].tolist()
            assert [j.allocation for j in live] == rows["allocation"].tolist()
            assert all(j.remaining > 0 and j.finished_at is None for j in live)
            assert sample.granted >= sum(j.allocation for j in live)
            for record in market._completions[completed:]:
                job = admitted[record["job"]]
                assert job.finished_at is not None and job.remaining == 0.0
                assert record["finished_at"] == round(job.finished_at, 6)
                assert sample.now < job.finished_at <= sample.now + 60.0
                assert job.allocation >= 1
                assert job.name not in market.tenants[job.tenant].live
                assert job not in live
            completed = len(market._completions)
        assert completed == len(admitted) > 0


# ----------------------------------------------------------------------
# The admission loop against the per-spec calls it replaced
# ----------------------------------------------------------------------


class ReplacedAdmission(MarketAdmission):
    """The reference: admission as it was before the rule moved into one
    loop, ``tick`` -> ``admit_one`` -> ``minimum_guarantee`` per queued
    spec.  The three bodies are kept verbatim."""

    def minimum_guarantee(self, spec: JobSpec, now: float) -> Optional[int]:
        """Smallest token guarantee that still meets the deadline, or
        None when no allocation within the job's width can."""
        budget = spec.absolute_deadline - now
        if budget <= 0:
            return None
        need = math.ceil(self.slack * spec.work / budget) or 1
        return need if need <= spec.width else None

    def admit_one(
        self, tenant: Tenant, spec: JobSpec, now: float
    ) -> Tuple[str, Optional[MarketJob], Optional[str]]:
        minimum = self.minimum_guarantee(spec, now)
        if minimum is None or minimum > tenant.quota:
            if minimum is not None:
                reason = "exceeds_quota"
            elif spec.absolute_deadline <= now:
                reason = "deadline_passed"
            else:
                reason = "infeasible_width"
            tenant.reject(reason)
            self.stats.reject(reason)
            _REJECTED[reason].inc()
            return ("rejected", None, reason)
        if tenant.guaranteed_in_use + minimum > tenant.quota:
            # Fits a quiet quota, just not now: wait for live jobs to
            # release their guarantees.
            self.stats.queue_waits += 1
            _QUEUE_WAITS.inc()
            return ("queued", None, None)
        job = MarketJob(spec=spec, guarantee=minimum, admitted_at=now)
        tenant.admit(job)
        tenant.admitted += 1
        tenant.queue_delay_total += job.queue_delay
        self.stats.admitted += 1
        _ADMITTED.inc()
        return ("admitted", job, None)

    def tick(
        self, tenants: Mapping[str, Tenant], now: float
    ) -> Tuple[List[MarketJob], List[Tuple[JobSpec, str]]]:
        admitted: List[MarketJob] = []
        rejected: List[Tuple[JobSpec, str]] = []
        for name in sorted(tenants):
            tenant = tenants[name]
            kept: List[JobSpec] = []
            while tenant.queue:
                spec = tenant.queue.popleft()
                outcome, job, reason = self.admit_one(tenant, spec, now)
                if outcome == "admitted":
                    admitted.append(job)
                elif outcome == "queued":
                    kept.append(spec)
                else:
                    rejected.append((spec, reason))
            tenant.queue.extend(kept)
        return admitted, rejected


#: (work, width, deadline, submit).  Coarse values make exact ties in the
#: rule (a budget of exactly 0 at ``now``, a need of exactly the width or
#: the quota); the float draws make budgets that are not round, and an
#: infinite deadline a need of 0, which the rule rounds up to 1.
spec_shapes = st.tuples(
    st.one_of(st.sampled_from([1.0, 60.0, 600.0, 3_600.0, 36_000.0]),
              st.floats(1e-3, 1e6)),
    st.sampled_from([1, 2, 4, 8, 30]),
    st.one_of(st.sampled_from([30.0, 60.0, 600.0, 3_600.0, math.inf]),
              st.floats(1e-3, 1e5)),
    st.sampled_from([0.0, 30.0, 60.0, 570.0]),
)


@st.composite
def admission_worlds(draw):
    n_tenants = draw(st.integers(1, 4))
    quotas = draw(st.lists(st.sampled_from([1, 2, 3, 5, 8, 13, 40]),
                           min_size=n_tenants, max_size=n_tenants))
    return dict(
        quotas=quotas,
        # What each tenant's live jobs already hold: nothing to all of it.
        in_use=[draw(st.integers(0, quota)) for quota in quotas],
        # (tenant, shape) per queued spec, in submission order.
        queue=draw(st.lists(
            st.tuples(st.integers(0, n_tenants - 1), spec_shapes), max_size=20
        )),
        # The mapping's insertion order: the pass must not depend on it.
        order=draw(st.permutations(range(n_tenants))),
        now=draw(st.sampled_from([0.0, 30.0, 60.0, 600.0, 630.0, 3_600.0])),
        slack=draw(st.sampled_from([1.0, 1.2, 2.0])),
    )


def admission_outcome(cls, world, path):
    """Everything one admission pass moves, run by ``cls`` over ``world``:
    the whole queue through ``tick``, or each spec through ``admit_one``
    in submission order as the service's submit does."""
    tenants = {}
    for t in world["order"]:
        tenant = Tenant(name=f"t{t}", quota=world["quotas"][t])
        if world["in_use"][t]:
            held = JobSpec(name=f"held{t}", tenant=tenant.name, work=1.0,
                           width=1, deadline_seconds=1.0)
            tenant.admit(MarketJob(spec=held, guarantee=world["in_use"][t],
                                   admitted_at=0.0))
        tenants[tenant.name] = tenant
    specs = [
        JobSpec(name=f"j{i:02d}", tenant=f"t{t}", work=work, width=width,
                deadline_seconds=deadline, submit_seconds=submit)
        for i, (t, (work, width, deadline, submit)) in enumerate(world["queue"])
    ]
    admission, now = cls(slack=world["slack"]), world["now"]
    cells = [_ADMITTED, _QUEUE_WAITS, *_REJECTED.values()]
    before = [cell.value for cell in cells]
    if path == "tick":
        for spec in specs:
            tenants[spec.tenant].queue.append(spec)
        admitted, rejected = admission.tick(tenants, now)
        decisions = None
    else:
        decisions = []
        for spec in specs:
            tenant = tenants[spec.tenant]
            outcome, job, reason = admission.admit_one(tenant, spec, now)
            decisions.append((outcome, job, reason))
            if outcome == "queued":
                tenant.queue.append(spec)
        admitted = [job for _outcome, job, _reason in decisions if job]
        rejected = [(spec, reason) for spec, (_o, _j, reason)
                    in zip(specs, decisions) if reason]
    return {
        "decisions": decisions,
        "admitted": [(j.name, j.tenant, j.guarantee, j.admitted_at)
                     for j in admitted],
        "rejected": [(spec.name, reason) for spec, reason in rejected],
        "queues": {name: [spec.name for spec in t.queue]
                   for name, t in tenants.items()},
        "stats": admission.stats,
        "tenants": {
            name: (t.stats(), list(t.live), t.guaranteed_in_use,
                   t.queue_delay_total)
            for name, t in tenants.items()
        },
        "counters": [cell.value - b for cell, b in zip(cells, before)],
    }


class TestOneAdmissionLoop:
    """``MarketAdmission`` decides with one loop that ``tick`` and
    ``admit_one`` share; it must decide every spec as the per-spec calls
    it replaced did (``ReplacedAdmission``).  50 examples in tier-1, 500
    in CI."""

    # Every outcome at once, at now 60: a spent budget (deadline 0 + 60), a
    # need of exactly the width (1.0 * 240 / 60 = 4) that waits behind the
    # ledger, one over the quota, one over the width, two admitted.
    @example(world=dict(
        quotas=[5, 40], in_use=[3, 0],
        queue=[(0, (60.0, 4, 60.0, 0.0)), (0, (240.0, 4, 120.0, 0.0)),
               (0, (360.0, 8, 120.0, 0.0)), (0, (600.0, 4, 120.0, 0.0)),
               (1, (240.0, 4, 120.0, 0.0)), (0, (60.0, 4, 120.0, 0.0))],
        order=[1, 0], now=60.0, slack=1.0,
    ))
    @given(world=admission_worlds())
    @pytest.mark.parametrize("path", ["tick", "admit_one"])
    def test_equal_admissions(self, world, path):
        assert admission_outcome(MarketAdmission, world, path) == (
            admission_outcome(ReplacedAdmission, world, path)
        )
