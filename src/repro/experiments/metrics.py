"""Evaluation metrics (paper §5.1).

Three headline metrics per experiment: did the job meet its deadline, how
close to the deadline did it finish, and how much of the requested
allocation sat above the oracle level (cluster impact).  Plus the variance
statistics of §2.3 (coefficient of variation of completion times), and
the judge of the paper's orderings (:class:`Claim`, :func:`verdict`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.core.oracle import oracle_allocation
from repro.jobs.trace import RunTrace


def coefficient_of_variation(values: Sequence[float]) -> float:
    """std / mean (population std, matching the paper's CoV)."""
    if len(values) < 2:
        raise ValueError("CoV needs at least two values")
    arr = np.asarray(values, dtype=float)
    mean = arr.mean()
    if mean == 0:
        raise ValueError("CoV undefined for zero mean")
    return float(arr.std() / mean)


def percentiles(values: Sequence[float], qs: Sequence[float]) -> List[float]:
    """Percentiles (qs in [0, 100]) of a sample."""
    if not values:
        raise ValueError("no values")
    return [float(v) for v in np.percentile(np.asarray(values, dtype=float), qs)]


@dataclass(frozen=True)
class RunMetrics:
    """Headline metrics of one SLO experiment run."""

    job: str
    policy: str
    deadline_seconds: float
    duration_seconds: float
    cpu_seconds: float
    oracle_tokens: int
    allocation_token_seconds: float
    impact_above_oracle: float  # fraction of requested token-seconds above oracle
    spare_fraction: float
    evictions: int
    failures: int

    @property
    def met_deadline(self) -> bool:
        return self.duration_seconds <= self.deadline_seconds

    @property
    def relative_latency(self) -> float:
        """Completion time as a fraction of the deadline (Fig. 5's x-axis)."""
        return self.duration_seconds / self.deadline_seconds


def metrics_from_trace(trace: RunTrace, *, policy: str) -> RunMetrics:
    """Compute run metrics from a finished trace with a deadline."""
    if trace.deadline is None:
        raise ValueError("trace has no deadline")
    tally = trace.tally()
    cpu = tally.cpu_seconds
    oracle = oracle_allocation(cpu, trace.deadline)
    alloc_seconds = trace.allocation_seconds()
    excess = trace.allocation_excess_seconds(oracle)
    impact = excess / alloc_seconds if alloc_seconds > 0 else 0.0
    return RunMetrics(
        job=trace.job_name,
        policy=policy,
        deadline_seconds=trace.deadline,
        duration_seconds=trace.duration,
        cpu_seconds=cpu,
        oracle_tokens=oracle,
        allocation_token_seconds=alloc_seconds,
        impact_above_oracle=impact,
        spare_fraction=tally.spare_fraction,
        evictions=tally.evictions,
        failures=tally.failures,
    )


@dataclass(frozen=True)
class PolicySummary:
    """Aggregates over many runs of one policy (Fig. 4's two axes plus
    Fig. 11's latency column)."""

    policy: str
    runs: int
    fraction_missed: float
    mean_impact_above_oracle: float
    mean_latency_vs_deadline: float  # mean of (duration/deadline − 1)

    @property
    def fraction_met(self) -> float:
        return 1.0 - self.fraction_missed


def summarize_policy(runs: Sequence[RunMetrics]) -> PolicySummary:
    if not runs:
        raise ValueError("no runs to summarize")
    policies = {r.policy for r in runs}
    if len(policies) != 1:
        raise ValueError(f"mixed policies in summary: {sorted(policies)}")
    rel = [r.relative_latency for r in runs]
    return PolicySummary(
        policy=runs[0].policy,
        runs=len(runs),
        fraction_missed=sum(1 for r in runs if not r.met_deadline) / len(runs),
        mean_impact_above_oracle=float(np.mean([r.impact_above_oracle for r in runs])),
        mean_latency_vs_deadline=float(np.mean([x - 1.0 for x in rel])),
    )


def group_by(
    runs: Iterable[RunMetrics], key
) -> Dict[str, List[RunMetrics]]:
    out: Dict[str, List[RunMetrics]] = {}
    for r in runs:
        out.setdefault(key(r), []).append(r)
    return out


@dataclass(frozen=True)
class Claim:
    """An ordering the paper states (``paper``: its figure): on each key,
    ``metric`` of ``arm``'s record is ``better`` ("higher"/"lower") than ``against``'s."""

    name: str
    paper: str
    metric: Callable[[Any], float]
    arm: str
    against: str
    better: str = "higher"


def pair(claim: Claim, rows: Iterable[Tuple[str, str, Any]]) -> List[Tuple[str, Any, Any]]:
    """``(key, arm record, against record)`` in the arm's row order, from ``(key,
    arm, record)`` rows keyed by what seeded them; an unpaired key names the claim."""
    arms: Dict[str, Dict[str, Any]] = {claim.arm: {}, claim.against: {}}
    for key, arm, record in rows:
        arms.get(arm, {})[key] = record
    mine, theirs = arms[claim.arm], arms[claim.against]
    if not mine or mine.keys() != theirs.keys():
        unpaired = sorted(mine.keys() ^ theirs.keys())
        raise ValueError(f"claim {claim.name!r}: unpaired key(s) {unpaired or 'all'}")
    return [(key, record, theirs[key]) for key, record in mine.items()]


def tally(claim: Claim, rows: Iterable[Tuple[str, str, Any]]) -> Tuple[int, int]:
    """``(wins, losses)``: the pairs on which the arm did strictly better /
    worse; ties are dropped.  Tallies of disjoint rows pool by addition."""
    sign = 1 if claim.better == "higher" else -1
    diffs = [sign * (claim.metric(a) - claim.metric(b)) for _k, a, b in pair(claim, rows)]
    return sum(d > 0 for d in diffs), sum(d < 0 for d in diffs)


#: The exact test's one-sided level each way; the interval is 90 % two-sided.
ALPHA = Fraction(1, 20)


class Verdict(NamedTuple):
    reading: str  # "holds", "fails" or "unresolved"
    p: float      # one-sided exact p, in the direction the units lean
    low: float    # Clopper–Pearson interval on wins / (wins + losses)
    high: float


def _binomial_row(n: int) -> List[int]:
    """``[C(n, 0), ..., C(n, n)]`` by the multiplicative recurrence: one
    exact multiply and divide per entry (``math.comb`` per entry is
    quadratic in big-integer work)."""
    row = [1] * (n + 1)
    for i in range(n):
        row[i + 1] = row[i] * (n - i) // (i + 1)
    return row


def verdict(wins: int, losses: int, null: Fraction = Fraction(1, 2)) -> Verdict:
    """An exact one-sided binomial test each way at :data:`ALPHA`: *holds*
    when ``wins`` or more of n units is that unlikely at a win rate of
    ``null``, *fails* when ``wins`` or fewer is, else *unresolved* (always at
    n = 0).  At the default ½ this is the sign test on untied pairs.  Each
    bound is searched on the side of ``null`` the test chose, so *holds* is
    exactly "the interval lies above ``null``" and *fails* "below"."""
    if not 0 < null < 1:
        raise ValueError(f"null must lie in (0, 1), got {null!r}")
    null = Fraction(null)
    n = wins + losses
    comb = _binomial_row(n)
    log_comb = [math.log(c) for c in comb]

    def at_least(k, p):  # P(X >= k), X ~ Binomial(n, p), exact
        # Summed over integers: one reduction, not one per term.
        a, b = p.numerator, p.denominator
        return Fraction(sum(comb[i] * a**i * (b - a) ** (n - i) for i in range(k, n + 1)), b**n)

    def near_least(k, p):  # the same tail at a float p, each term in logs
        # (a float ``comb[i]`` overflows above n ~ 1 030, ``p**i`` underflows)
        lp, lq = math.log(p), math.log1p(-p)
        return sum(math.exp(log_comb[i] + i * lp + (n - i) * lq) for i in range(k, n + 1))

    def lower(k, pivot, above):  # the Clopper–Pearson lower bound for k of n
        if k == 0:
            return 0.0
        lo, hi = (float(pivot), 1.0) if above else (0.0, float(pivot))
        for _ in range(40):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if near_least(k, mid) < ALPHA else (lo, mid)
        return (lo + hi) / 2

    p_for, p_against = at_least(wins, null), at_least(losses, 1 - null)
    reading = "holds" if p_for <= ALPHA else "fails" if p_against <= ALPHA else "unresolved"
    # The upper bound for wins is 1 minus the lower bound for losses.
    return Verdict(reading, float(min(p_for, p_against)),
                   lower(wins, null, reading == "holds"),
                   1 - lower(losses, 1 - null, reading == "fails"))


__all__ = [
    "Claim",
    "PolicySummary",
    "RunMetrics",
    "coefficient_of_variation",
    "group_by",
    "metrics_from_trace",
    "pair",
    "percentiles",
    "summarize_policy",
    "tally",
    "verdict",
]
