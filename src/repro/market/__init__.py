"""Multi-tenant token market (the global layer the paper defers, §4.4).

Jockey's per-job controller assumes someone above it hands each job a
guaranteed token count.  This package is that someone, at cluster scale:
tenants hold quotas, an admission gate turns submitted jobs into
guaranteed reservations without ever over-committing a quota, and a
per-tick market arbiter auctions the spare tokens to the live jobs whose
marginal utility bids them highest.  The same clearing splits one slice
across a handful of C(p, a)-predicted jobs in
:mod:`repro.experiments.multijob`: there is one greedy ascent and one
guarantee admission in the repo, and they live here.

Layout:

* :mod:`repro.market.tenant` — tenants, job specs, live-job state;
* :mod:`repro.market.arbiter` — the batched clearing (bids, grants,
  clearing price);
* :mod:`repro.market.admission` — per-tenant quota enforcement with
  queue/reject telemetry;
* :mod:`repro.market.engine` — the tick loop tying it together on its
  own clock;
* :mod:`repro.market.workload` — synthetic staggered-burst workloads;
* :mod:`repro.market.spec` — JSON market specs for the CLI.
"""

from repro.market.admission import AdmissionStats, MarketAdmission
from repro.market.arbiter import Bid, Clearing, MarketArbiter
from repro.market.engine import MarketConfig, MarketResult, TokenMarket
from repro.market.spec import MarketSpecError, load_market_spec
from repro.market.tenant import JobSpec, MarketError, MarketJob, Tenant
from repro.market.workload import generate_market_workload

__all__ = [
    "AdmissionStats",
    "Bid",
    "Clearing",
    "JobSpec",
    "MarketAdmission",
    "MarketArbiter",
    "MarketConfig",
    "MarketError",
    "MarketJob",
    "MarketResult",
    "MarketSpecError",
    "Tenant",
    "TokenMarket",
    "generate_market_workload",
    "load_market_spec",
]
