#!/usr/bin/env python3
"""Admission control and global arbitration across SLO jobs.

The paper's per-job controller assumes a global layer decides (a) whether a
new SLO job *fits* the guaranteed slice and (b) how to split tokens when
several SLO jobs compete (§1, §4.4).  In this repo both are the token
market's: :class:`repro.market.admission.MarketAdmission` reserves each
job's minimum guarantee against a tenant's quota, and one
:meth:`repro.market.arbiter.MarketArbiter.clear` splits a slice by marginal
utility (here through :func:`repro.experiments.multijob.split_slice`, the
same call the multi-job experiment makes every control period, fed by each
job's own controller).

This example trains three jobs, admits them against one 100-token tenant —
printing what each job's own C(p, a) table says it needs beside the
guarantee the market's fluid model reserves — then shows the arbiter
shifting tokens toward the job in danger as progress diverges.

Run:  python examples/multi_job_admission.py
"""

from repro.experiments.multijob import split_slice
from repro.experiments.runner import make_policy
from repro.experiments.scenarios import DEFAULT, trained_job
from repro.market.admission import MarketAdmission
from repro.market.tenant import JobSpec, Tenant
from repro.service.models import TrainedTemplate

SLICE_TOKENS = 100
SLACK = 1.2


def main() -> None:
    print("training jobs C, F, G...")
    jobs = {name: trained_job(name, seed=0, scale=DEFAULT) for name in "CFG"}

    # ------------------------------------------------------------------
    # Admission: do these jobs fit the 100-token guaranteed slice?
    # ------------------------------------------------------------------
    tenant = Tenant(name="slo", quota=SLICE_TOKENS)
    admission = MarketAdmission(slack=SLACK)
    print(f"\nadmitting against a {SLICE_TOKENS}-token quota:")
    requests = [(name, name, tj.short_deadline) for name, tj in jobs.items()]
    # A job with an absurd deadline does not fit.
    requests.append(("G-rush", "G", 300.0))
    for label, name, deadline in requests:
        tj = jobs[name]
        # The market sees a job as the service does: token-seconds of work
        # and the widest stage.
        shape = TrainedTemplate(name, tj.graph, tj.learned_profile, tj.table)
        spec = JobSpec(
            name=label,
            tenant=tenant.name,
            work=shape.total_work_seconds,
            width=min(SLICE_TOKENS, shape.width),
            deadline_seconds=deadline,
        )
        outcome, job, reason = admission.admit_one(tenant, spec, now=0.0)
        table_says = tj.table.min_allocation_for(deadline / SLACK, q=0.9)
        detail = f"guarantee {job.guarantee}" if job else (reason or "waits")
        print(f"  job {label} (deadline {deadline / 60:.0f} min): "
              f"{outcome.upper()} — {detail}; C(p, a) minimum "
              f"{table_says if table_says is not None else 'none feasible'}; "
              f"{tenant.guaranteed_in_use}/{tenant.quota} reserved")

    print("the fluid guarantee ignores stage barriers, so it sits below what "
          "the job's\nown table asks for; the control loop and the arbiter "
          "below close that gap.")

    # ------------------------------------------------------------------
    # Arbitration: split the slice by marginal utility as states diverge.
    # ------------------------------------------------------------------
    controllers = {
        name: make_policy("jockey", tj, tj.short_deadline).controller
        for name, tj in jobs.items()
    }

    def bidder(name, progress_fraction, elapsed):
        fractions = {
            s: progress_fraction for s in jobs[name].learned_profile.stage_names
        }
        return controllers[name].candidates(fractions, elapsed)

    print("\nscenario 1 — all jobs fresh:")
    split = split_slice(
        {name: bidder(name, 0.0, 0.0) for name in "CFG"}, SLICE_TOKENS
    )
    print(f"  {split}")

    print("\nscenario 2 — F is halfway through its deadline with only 20% "
          "done (in danger); C is 80% done:")
    split = split_slice(
        {
            "C": bidder("C", 0.8, jobs["C"].short_deadline * 0.5),
            "F": bidder("F", 0.2, jobs["F"].short_deadline * 0.5),
            "G": bidder("G", 0.5, jobs["G"].short_deadline * 0.5),
        },
        SLICE_TOKENS,
    )
    print(f"  {split}")
    print("\nthe endangered job receives the largest share; the nearly-done "
          "job keeps the minimum.")


if __name__ == "__main__":
    main()
