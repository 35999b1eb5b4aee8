#!/usr/bin/env python3
"""Post-hoc trace analysis: why did this run take as long as it did?

Runs job F once under Jockey with the trace recorder on, saves the trace
as JSONL, and reads it back the way an operator would: ``repro report``
rebuilds the SLO verdict, spend and predictor scorecard from the file
alone.  Then the *realized* critical path — the actual chain of task
completions that determined the latency — tells "we were starved of
tokens" apart from "one straggler held the barrier".

Run:  python examples/trace_analysis.py
"""

import os
import tempfile

from repro.cli import main as repro
from repro.experiments.runner import RunConfig, make_policy, run_experiment
from repro.experiments.scenarios import DEFAULT, trained_job
from repro.jobs.trace import critical_path_tasks
from repro.telemetry import export, trace


def main() -> None:
    print("training job F and running it under Jockey...")
    tj = trained_job("F", seed=0, scale=DEFAULT)
    with trace.capture() as recorder:
        result = run_experiment(
            tj,
            make_policy("jockey", tj, tj.short_deadline),
            RunConfig(deadline_seconds=tj.short_deadline, seed=42),
        )

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.jsonl")
        export.write_jsonl(recorder.events(), path)
        print(f"\n== repro report run.jsonl ({len(recorder)} events) ==")
        repro(["report", path])

    print("\n== realized critical path ==")
    chain = critical_path_tasks(result.trace, tj.graph)
    for link in chain[:12]:
        print(
            f"  {link.stage}[{link.index}]  "
            f"queued {link.queue_seconds:6.1f}s  "
            f"ran {link.end_time - link.start_time:6.1f}s  "
            f"(until t={link.end_time / 60:5.1f} min)"
        )
    if len(chain) > 12:
        print(f"  ... {len(chain) - 12} more links")


if __name__ == "__main__":
    main()
