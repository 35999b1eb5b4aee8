"""Per-run SLO attainment analytics over control-loop audit records.

Jockey's output is not "the job ran" but "the job met its latency SLO, at
this cost, with this much headroom".  This module turns the raw artifacts a
run leaves behind — the :class:`~repro.jobs.trace.RunTrace` and the
controller's :class:`~repro.telemetry.audit.TickRecord` trail — into that
answer:

* **deadline margin** — seconds (and fraction of the deadline) to spare;
* **risk timeline** — per tick, the probability of missing the deadline
  given the C(p, a) distribution at the applied allocation (paper §4.1:
  the table is a distribution, so ``P(C(p, a) > time left)`` is exactly
  the miss probability the controller is betting against);
* **utility realized vs. optimal** — where the completion time landed on
  the job's utility curve (§2.2);
* **token-seconds spent vs. the oracle minimum** — the cluster-impact side
  of the SLO (§5.1): a job needing ``T`` CPU-seconds can never spend less
  than ``T`` token-seconds, and the oracle steady allocation is
  ``ceil(T/d)``.

Everything here is computed *from the records alone* — the same numbers an
HTML run report shows must be reproducible by calling these functions on
the same audit trail (asserted in ``tests/test_telemetry_slo.py``).

No module-level imports from :mod:`repro.core` (the control loop imports
:mod:`repro.telemetry`; keeping this layer import-free of it avoids a
cycle).  The C(p, a) ``table`` parameter is duck-typed: anything with an
``exceedance(progress, allocation, threshold)`` method works.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

#: Risk values at or above this are flagged "at risk" in reports.
AT_RISK_THRESHOLD = 0.5


def deadline_at(
    elapsed: float,
    initial_deadline: float,
    schedule: Sequence[Tuple[float, float]] = (),
) -> float:
    """The deadline in force at ``elapsed`` seconds, given scripted mid-run
    changes ``(at_seconds, new_deadline)`` (the exp_fig7 scenario)."""
    deadline = initial_deadline
    for at_seconds, new_deadline in sorted(schedule):
        if elapsed >= at_seconds:
            deadline = new_deadline
    return deadline


@dataclass(frozen=True)
class RiskPoint:
    """One control tick's deadline-risk assessment."""

    tick: int
    elapsed: float
    progress: Optional[float]
    allocation: int
    predicted_remaining: float  # slacked prediction at the applied allocation
    budget: float               # deadline-in-force minus elapsed
    risk: float                 # P(miss deadline) in [0, 1]

    @property
    def margin(self) -> float:
        """Predicted headroom: budget minus the slacked prediction."""
        return self.budget - self.predicted_remaining

    @property
    def at_risk(self) -> bool:
        return self.risk >= AT_RISK_THRESHOLD


def risk_timeline(
    records: Sequence,
    *,
    deadline: float,
    table=None,
    schedule: Sequence[Tuple[float, float]] = (),
) -> List[RiskPoint]:
    """Per-tick deadline-miss probability from the audit trail.

    With a C(p, a) ``table`` the risk is exact w.r.t. the model:
    ``P(slack * C(p, a) > budget)`` at the tick's observed progress and
    applied allocation, with the slack the record was decided at.  Without
    one (e.g. the Amdahl predictor has no distribution), the point
    prediction stands in: risk 1.0 when the slacked prediction overshoots
    the budget, else 0.0.
    """
    points: List[RiskPoint] = []
    for record in records:
        budget = deadline_at(record.elapsed, deadline, schedule) - record.elapsed
        if budget <= 0:
            risk = 1.0
        elif table is not None and record.progress is not None:
            risk = float(
                table.exceedance(
                    record.progress, record.allocation, budget / record.slack
                )
            )
        else:
            risk = 1.0 if record.predicted_remaining > budget else 0.0
        points.append(
            RiskPoint(
                tick=record.tick,
                elapsed=record.elapsed,
                progress=record.progress,
                allocation=record.allocation,
                predicted_remaining=record.predicted_remaining,
                budget=budget,
                risk=risk,
            )
        )
    return points


@dataclass(frozen=True)
class SloAttainment:
    """The verdict on one run: did it meet the SLO, how close, at what cost."""

    job: str
    policy: str
    deadline: float             # deadline in force at completion
    duration: float
    utility_realized: float     # U(duration)
    utility_optimal: float      # max of the utility curve
    cpu_seconds: float          # aggregate useful work T (oracle minimum spend)
    token_seconds: float        # integral of the requested allocation
    oracle_tokens: int          # ceil(T / d)
    excess_token_seconds: float  # token-seconds requested above the oracle level
    risk: Tuple[RiskPoint, ...] = ()

    @property
    def met(self) -> bool:
        return self.duration <= self.deadline

    @property
    def verdict(self) -> str:
        return "MET" if self.met else "MISSED"

    @property
    def margin_seconds(self) -> float:
        """Seconds to spare (negative when the deadline was missed)."""
        return self.deadline - self.duration

    @property
    def margin_fraction(self) -> float:
        return self.margin_seconds / self.deadline

    @property
    def spend_ratio(self) -> float:
        """Token-seconds spent per CPU-second of useful work — 1.0 is the
        oracle minimum, anything above is insurance paid for the SLO."""
        if self.cpu_seconds <= 0:
            return 0.0
        return self.token_seconds / self.cpu_seconds

    @property
    def peak_risk(self) -> float:
        return max((p.risk for p in self.risk), default=0.0)

    @property
    def final_risk(self) -> float:
        return self.risk[-1].risk if self.risk else 0.0

    @property
    def ticks_at_risk(self) -> int:
        return sum(1 for p in self.risk if p.at_risk)

    def summary(self) -> dict:
        """JSON-serializable digest (what ``repro report`` prints)."""
        return {
            "job": self.job,
            "policy": self.policy,
            "verdict": self.verdict,
            "deadline_seconds": self.deadline,
            "duration_seconds": self.duration,
            "margin_seconds": self.margin_seconds,
            "margin_fraction": self.margin_fraction,
            "utility_realized": self.utility_realized,
            "utility_optimal": self.utility_optimal,
            "cpu_seconds": self.cpu_seconds,
            "token_seconds": self.token_seconds,
            "oracle_tokens": self.oracle_tokens,
            "excess_token_seconds": self.excess_token_seconds,
            "spend_ratio": self.spend_ratio,
            "peak_risk": self.peak_risk,
            "final_risk": self.final_risk,
            "ticks_at_risk": self.ticks_at_risk,
        }


def analyze_run(
    trace,
    records: Sequence = (),
    *,
    policy: str = "unknown",
    deadline: Optional[float] = None,
    table=None,
    schedule: Sequence[Tuple[float, float]] = (),
    utility=None,
) -> SloAttainment:
    """SLO attainment for one finished :class:`~repro.jobs.trace.RunTrace`
    plus its controller audit trail (may be empty for static policies).

    ``deadline`` is the *initial* deadline (defaults to the trace's);
    scripted mid-run changes go in ``schedule`` and are replayed both in
    the risk timeline and in picking the deadline the verdict is judged
    against (the one in force at completion).  ``utility`` (anything with
    ``value()`` and ``max_value``) defaults to the paper's deadline shape.
    """
    if deadline is None:
        deadline = trace.deadline
    if deadline is None:
        raise ValueError("no deadline: trace has none and none was given")
    duration = trace.duration
    final_deadline = deadline_at(duration, deadline, schedule)
    if utility is None:
        from repro.core.utility import deadline_utility  # deferred: no cycle

        utility = deadline_utility(final_deadline)
    from repro.core.oracle import oracle_allocation  # deferred: no cycle

    cpu = trace.total_cpu_seconds()
    oracle = oracle_allocation(cpu, final_deadline)
    return SloAttainment(
        job=trace.job_name,
        policy=policy,
        deadline=float(final_deadline),
        duration=float(duration),
        utility_realized=float(utility.value(duration)),
        utility_optimal=float(utility.max_value),
        cpu_seconds=float(cpu),
        token_seconds=float(trace.allocation_seconds()),
        oracle_tokens=int(oracle),
        excess_token_seconds=float(trace.allocation_excess_seconds(oracle)),
        risk=tuple(
            risk_timeline(records, deadline=deadline, table=table, schedule=schedule)
        ),
    )


__all__ = [
    "AT_RISK_THRESHOLD",
    "RiskPoint",
    "SloAttainment",
    "analyze_run",
    "deadline_at",
    "risk_timeline",
]
