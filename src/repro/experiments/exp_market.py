"""Market sweep: pooled vs split token buckets across quota sizings.

The PAPERS.md "When Two is Worse Than One" result says splitting one
token pool into per-tenant buckets costs latency: a busy tenant cannot
borrow a quiet one's spare capacity, so the same workload misses more
deadlines.  This sweep measures that penalty on the
:mod:`repro.market` engine with staggered-burst workloads
(:func:`~repro.market.workload.generate_market_workload`): every
(quota-scale, rep) cell runs the *same* workload — byte-identical specs
from the same derived seed — once under a single pooled spare auction
and once with the capacity pre-partitioned per tenant, so any attainment
gap is the market structure's doing, nothing else's.

The report carries a machine-readable ``digest`` (deterministic bytes for
a given seed/scale, at any worker count); ``repro experiment market
--results-dir DIR`` writes it to ``DIR/exp_market.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Tuple

import numpy as np

from repro.experiments.metrics import Claim, pair, tally, verdict
from repro.experiments.reporting import ExperimentReport
from repro.experiments.scenarios import DEFAULT, Scale
from repro.market.engine import MARKET_MODES, MarketConfig, TokenMarket
from repro.market.workload import generate_market_workload
from repro.parallel import parallel_map
from repro.simkit.random import derive_seed


#: Quota sizings swept, as fractions of a tenant's 1/n capacity share:
#: at 1.0 the quotas tile the cluster; tighter quotas leave more spare
#: capacity, which only the pooled market can move between tenants.
QUOTA_SCALES = (0.6, 0.8, 1.0)

#: "When Two is Worse Than One" (PAPERS.md): splitting never helps.
CLAIMS = (
    Claim("pooled attains no less than split", "split <= pooled (Guerin)",
          itemgetter("attainment"), "pooled", "split"),
)


@dataclass(frozen=True)
class MarketShape:
    """Workload sizing for one experiment scale."""

    tenants: int
    jobs_per_tenant: int
    capacity: int
    horizon_ticks: int
    reps: int


SHAPES = {
    "smoke": MarketShape(
        tenants=4, jobs_per_tenant=25, capacity=160, horizon_ticks=40,
        reps=2,
    ),
    "default": MarketShape(
        tenants=4, jobs_per_tenant=50, capacity=200, horizon_ticks=60,
        reps=3,
    ),
    "paper": MarketShape(
        tenants=8, jobs_per_tenant=125, capacity=400, horizon_ticks=120,
        reps=5,
    ),
}


def _unit(spec) -> Dict:
    """One (mode, quota_scale, rep) market run — module-level so worker
    processes can unpickle it."""
    mode, quota_scale, rep, market_seed, shape = spec
    tenants, jobs = generate_market_workload(
        tenants=shape.tenants,
        jobs_per_tenant=shape.jobs_per_tenant,
        capacity=shape.capacity,
        quota_scale=quota_scale,
        horizon_ticks=shape.horizon_ticks,
        seed=market_seed,
    )
    config = MarketConfig(capacity=shape.capacity, mode=mode)
    result = TokenMarket(tenants, jobs, config).run()
    digest = result.to_digest()
    digest["quota_scale"] = quota_scale
    digest["rep"] = rep
    return digest


def _aggregate(units: List[Dict]) -> List[Dict]:
    """Per (mode, quota_scale) aggregates, mode-major sweep order."""
    out = []
    for mode in MARKET_MODES:
        for qs in QUOTA_SCALES:
            cell = [
                u for u in units
                if u["mode"] == mode and u["quota_scale"] == qs
            ]
            out.append({
                "mode": mode,
                "quota_scale": qs,
                "runs": len(cell),
                "attainment": round(
                    float(np.mean([u["attainment"] for u in cell])), 6
                ),
                "rejected": int(sum(u["rejected"] for u in cell)),
                "mean_queue_delay_seconds": round(
                    float(np.mean(
                        [u["mean_queue_delay_seconds"] for u in cell]
                    )), 6
                ),
                "mean_ticks": round(
                    float(np.mean([u["ticks"] for u in cell])), 6
                ),
                "price_nonzero_ticks": int(
                    sum(u["price"]["nonzero_ticks"] for u in cell)
                ),
            })
    return out


def run(scale: Scale = DEFAULT, *, seed: int = 0):
    shape = SHAPES.get(scale.name, SHAPES["default"])
    report = ExperimentReport(
        experiment_id="market",
        title="Token market: pooled vs split spare capacity "
              f"({shape.tenants} tenants x {shape.jobs_per_tenant} jobs, "
              f"{shape.capacity} tokens)",
        headers=[
            "mode",
            "quota scale",
            "attainment [%]",
            "rejected",
            "mean queue delay [s]",
            "price ticks",
        ],
    )
    specs: List[Tuple] = []
    keys: List[str] = []
    for mode in MARKET_MODES:
        for qs in QUOTA_SCALES:
            for rep in range(shape.reps):
                # Mode deliberately NOT in the key: pooled and split are
                # paired — the same tenants, the same jobs, the same
                # arrival times; only the market structure differs.
                keys.append(f"market:{qs}:{rep}")
                specs.append((mode, qs, rep, derive_seed(seed, keys[-1]), shape))
    units = list(parallel_map(_unit, specs))
    rows = [(key, u["mode"], u) for key, u in zip(keys, units)]
    aggregates = _aggregate(units)
    for agg in aggregates:
        report.add_row(
            agg["mode"],
            agg["quota_scale"],
            100.0 * agg["attainment"],
            agg["rejected"],
            agg["mean_queue_delay_seconds"],
            agg["price_nonzero_ticks"],
        )
    pooled_mean = float(np.mean(
        [a["attainment"] for a in aggregates if a["mode"] == "pooled"]
    ))
    split_mean = float(np.mean(
        [a["attainment"] for a in aggregates if a["mode"] == "split"]
    ))
    report.tallies = [(claim, tally(claim, rows)) for claim in CLAIMS]
    report.digest = {
        "experiment": "market",
        "scale": scale.name,
        "seed": seed,
        "modes": list(MARKET_MODES),
        "quota_scales": list(QUOTA_SCALES),
        "shape": {
            "tenants": shape.tenants,
            "jobs_per_tenant": shape.jobs_per_tenant,
            "capacity": shape.capacity,
            "horizon_ticks": shape.horizon_ticks,
            "reps": shape.reps,
        },
        "pooled_attainment": round(pooled_mean, 6),
        "split_attainment": round(split_mean, 6),
        "aggregates": aggregates,
        "pairs": [
            {"quota_scale": pooled["quota_scale"], "rep": pooled["rep"],
             "pooled_attainment": pooled["attainment"],
             "split_attainment": split["attainment"],
             "delta": round(pooled["attainment"] - split["attainment"], 6)}
            for _key, pooled, split in pair(CLAIMS[0], rows)
        ],
        "claims": [
            {"claim": claim.name, "verdict": verdict(wins, losses).reading,
             "wins": wins, "losses": losses}
            for claim, (wins, losses) in report.tallies
        ],
        "runs": units,
    }
    return report
