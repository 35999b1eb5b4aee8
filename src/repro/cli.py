"""Command-line interface: ``python -m repro <command>``.

Commands mirror the operational workflow of the paper's system:

* ``train`` — synthesize one of the evaluation jobs (or a MapReduce-shaped
  one), execute a profiling run on the simulated cluster, build the
  C(p, a) model, and save everything as a JSON bundle.
* ``run`` — load a bundle and execute the job under a policy against a
  deadline, printing the outcome and the allocation timeline.  With
  ``--trace-out`` the run's full timeline is written in Chrome trace-event
  format (open in https://ui.perfetto.dev); ``--metrics-out`` dumps the
  metrics-registry snapshot as JSON.
* ``experiment`` — regenerate one of the paper's tables/figures.
* ``list-experiments`` — enumerate the available experiment ids.
* ``fleet run`` — simulate a fleet of recurring job templates over many
  days: every run is re-profiled into the cross-run profile store and a
  drift detector gates C(p, a) rebuilds (``fleet stats`` inspects the
  store's lineages).
* ``trace summarize <file>`` — per-kind table (counts + p50/p95
  inter-event gaps) for a recorded trace.
* ``report <file>`` — SLO attainment report (verdict, margin, risk
  timeline, prediction scorecard) from a recorded trace; ``--out x.html``
  renders the self-contained HTML version.
* ``perf run`` — execute a run under the performance observatory: wall
  time split into load/simulate/report phases, events/sec, control-tick
  and C(p, a)-query latency percentiles; ``--profile-out`` adds a
  collapsed-stack (flamegraph-ready) cProfile export, ``--json-out`` a
  schema-stamped digest ``perf report`` can render later.
* ``predict timeline`` / ``predict score`` — run a job under the
  prediction observatory: every control tick records a
  distribution-valued completion-time forecast (p50/p80/p90/p95 central
  intervals from the live C(p, a) model).  ``timeline`` prints the
  per-tick interval table against the in-force deadline; ``score``
  prints the reliability diagram (empirical vs nominal coverage),
  pinball loss, and the honesty verdict, with ``--json-out`` writing the
  calibration digest (byte-identical at any worker count).

``run`` can additionally write the same SLO report for the run it just
finished (``--report-out PATH``); live Prometheus metrics are ``repro
serve``'s ``/metrics``, a batch run's registry is ``--metrics-out``.

Exit codes: 0 success, 1 runtime failure (or a missed deadline for
``run``), 2 argument/usage errors.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import pathlib
import sys
import time
from contextlib import nullcontext
from dataclasses import replace as replace_dc
from typing import Optional, Sequence, Tuple

from repro import __version__, persist
from repro import cache as model_cache
from repro import parallel as repro_parallel
from repro.telemetry import export as telemetry_export
from repro.telemetry import metrics as telemetry_metrics
from repro.telemetry import trace as telemetry_trace
from repro.cluster import Cluster, ClusterConfig
from repro.core.control import ControlConfig
from repro.core.cpa import DEFAULT_ALLOCATIONS
from repro.core.policies import (
    POLICY_KINDS,
    PolicyError,
    build_policy,
    run_artifacts,
)
from repro.core.progress import totalwork_with_q
from repro.core.utility import deadline_utility
from repro.experiments.registry import EXPERIMENTS, RUNS
from repro.experiments.runner import run_control_loop
from repro.experiments.scenarios import TRAINING_ALLOCATION, learn_model, run_training
from repro.fleet.driver import MODEL_MODES as FLEET_MODEL_MODES
from repro.jobs.workloads import named_job
from repro.simkit.events import Simulator
from repro.simkit.random import RngRegistry, derive_seed

def _add_job_args(p) -> None:
    """What ``run``, ``perf run`` and ``predict`` take to pick a job, a
    policy and a seed (read back by :func:`_load_job` / :func:`_simulate`)."""
    p.add_argument("--bundle", required=True, help="bundle from `repro train`")
    p.add_argument("--deadline-minutes", type=float, required=True)
    p.add_argument("--policy", choices=POLICY_KINDS, default="jockey")
    p.add_argument("--seed", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Jockey (EuroSys 2012) reproduction toolkit",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="profile a job and save its model")
    train.add_argument(
        "--job",
        default="F",
        help="job name: A-G (Table 2) or 'mapreduce' (default: F)",
    )
    train.add_argument("--out", required=True, help="output bundle path (.json)")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument(
        "--allocation", type=int, default=TRAINING_ALLOCATION,
        help="guaranteed tokens for the training run (default: %(default)s)",
    )
    train.add_argument(
        "--cpa-reps", type=int, default=8,
        help="simulations per allocation when building C(p, a) (default: 8)",
    )
    train.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for the C(p, a) build (0 = all cores; "
             "default: $REPRO_JOBS, else serial)",
    )
    train.add_argument(
        "--no-cache", action="store_true",
        help="skip the on-disk model cache (always rebuild, never store)",
    )

    run = sub.add_parser("run", help="run a job under a policy vs a deadline")
    _add_job_args(run)
    run.add_argument(
        "--runtime-scale", type=float, default=1.0,
        help="inflate this run's task runtimes (input growth; default 1.0)",
    )
    run.add_argument(
        "--chaos", default=None, metavar="SPEC.json",
        help="chaos-injection schedule (JSON; see EXPERIMENTS.md "
             "'Injecting chaos'): rack failures, eviction storms, token "
             "shocks, profile drift, control-plane faults",
    )
    run.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write the run's timeline as Chrome trace-event JSON "
             "(open in Perfetto)",
    )
    run.add_argument(
        "--trace-jsonl", default=None, metavar="PATH",
        help="also write the raw events as JSONL (lossless)",
    )
    run.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write a metrics-registry snapshot as JSON",
    )
    run.add_argument(
        "--trace-capacity", type=int, default=1 << 18,
        help="trace ring-buffer size in events (default: 262144)",
    )
    run.add_argument(
        "--report-out", default=None, metavar="PATH",
        help="write a self-contained SLO run report (HTML for .html/.htm, "
             "plain text otherwise)",
    )

    experiment = sub.add_parser(
        "experiment", help="regenerate one of the paper's tables/figures"
    )
    experiment.add_argument(
        "id", nargs="+", metavar="ID", choices=sorted(EXPERIMENTS) + ["all"],
        help="'all' runs every experiment once, at the scale and seed its "
             "committed results/ files are at",
    )
    experiment.add_argument(
        "--scale", choices=("smoke", "default", "paper"), default=None,
        help="default: default ('all': what each run is committed at)",
    )
    experiment.add_argument("--seed", type=int, nargs="+", default=None,
                            help="default: 0; several roots pool the claims table")
    experiment.add_argument(
        "--results-dir", default=None, metavar="DIR",
        help="also write each report (and sweep digest) into DIR; nothing "
             "is written without it",
    )
    experiment.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for model builds and run sweeps "
             "(0 = all cores; default: $REPRO_JOBS, else serial)",
    )

    sub.add_parser("list-experiments", help="list experiment ids")

    fleet = sub.add_parser(
        "fleet",
        help="simulate recurring-job fleets over the cross-run profile store",
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)
    fleet_run = fleet_sub.add_parser(
        "run",
        help="run N job templates for M simulated days with drift-aware "
             "model refresh",
    )
    fleet_run.add_argument(
        "--templates", default="A,C", metavar="NAMES",
        help="comma-separated job templates: A-G or mapreduce "
             "(default: %(default)s)",
    )
    fleet_run.add_argument(
        "--days", type=int, default=5,
        help="simulated days per template (default: %(default)s)",
    )
    fleet_run.add_argument(
        "--mode", default="ewma", choices=sorted(FLEET_MODEL_MODES),
        help="model refresh mode: latest/window/ewma are drift-gated "
             "update policies; stale never refreshes; oracle tracks the "
             "ground truth; cold-start re-profiles daily (default: ewma)",
    )
    fleet_run.add_argument(
        "--drift-day", type=int, default=None, metavar="DAY",
        help="first day the ground-truth profile drifts (default: no drift)",
    )
    fleet_run.add_argument(
        "--drift-factor", type=float, default=1.5,
        help="runtime scale applied from --drift-day on (default: 1.5)",
    )
    fleet_run.add_argument(
        "--spec", default=None, metavar="SPEC.json",
        help="fleet spec file (templates/days/mode/drift/seed/scale as "
             "JSON; overrides the flags above)",
    )
    fleet_run.add_argument("--seed", type=int, default=0)
    fleet_run.add_argument(
        "--scale", choices=("smoke", "default", "paper"), default="smoke"
    )
    fleet_run.add_argument(
        "--store", default=None, metavar="DIR",
        help="profile-store root to persist lineages in (default: a "
             "temporary store discarded after the run; see also "
             "$REPRO_FLEET_DIR for `fleet stats`)",
    )
    fleet_run.add_argument(
        "--digest-out", default=None, metavar="PATH",
        help="write the per-day rows and per-template summaries as JSON",
    )
    fleet_run.add_argument(
        "--report-out", default=None, metavar="PATH",
        help="render the first template's final-day run as an HTML/text "
             "report with a fleet lineage section per template",
    )
    fleet_stats = fleet_sub.add_parser(
        "stats", help="list the profile store's templates and lineages"
    )
    fleet_stats.add_argument(
        "--store", default=None, metavar="DIR",
        help="profile-store root (default: $REPRO_FLEET_DIR or "
             "~/.cache/repro-jockey/fleet)",
    )

    market = sub.add_parser(
        "market",
        help="run a multi-tenant token market over synthetic or spec'd "
             "workloads",
    )
    market_sub = market.add_subparsers(dest="market_command", required=True)
    market_run = market_sub.add_parser(
        "run",
        help="tick a token market to completion and print per-tenant "
             "SLO attainment",
    )
    market_run.add_argument(
        "--tenants", type=int, default=4,
        help="synthetic workload: number of tenants (default: %(default)s)",
    )
    market_run.add_argument(
        "--jobs-per-tenant", type=int, default=25, metavar="N",
        help="synthetic workload: jobs per tenant (default: %(default)s)",
    )
    market_run.add_argument(
        "--capacity", type=int, default=160,
        help="cluster capacity in tokens (default: %(default)s)",
    )
    market_run.add_argument(
        "--quota-scale", type=float, default=0.8, metavar="F",
        help="per-tenant quota as a fraction of a 1/tenants capacity "
             "share (default: %(default)s)",
    )
    market_run.add_argument(
        "--mode", choices=("pooled", "split"), default="pooled",
        help="spare-capacity structure: one pooled auction, or per-tenant "
             "buckets that cannot borrow from each other (default: pooled)",
    )
    market_run.add_argument(
        "--horizon-ticks", type=int, default=40, metavar="N",
        help="synthetic workload: arrival horizon in ticks "
             "(default: %(default)s)",
    )
    market_run.add_argument(
        "--tick-seconds", type=float, default=60.0,
        help="market clearing period (default: %(default)s)",
    )
    market_run.add_argument(
        "--spec", default=None, metavar="SPEC.json",
        help="market spec file (tenants/jobs/capacity/mode as JSON; "
             "overrides the synthetic-workload flags above)",
    )
    market_run.add_argument("--seed", type=int, default=0)
    market_run.add_argument(
        "--digest-out", default=None, metavar="PATH",
        help="write the run digest (per-tenant stats, prices) as JSON",
    )
    market_stats = market_sub.add_parser(
        "stats",
        help="summarize a market digest (a `market run --digest-out` file "
             "or the `experiment market` sweep digest)",
    )
    market_stats.add_argument(
        "--digest", default="results/exp_market.json", metavar="PATH",
        help="digest file to summarize (default: %(default)s)",
    )

    cache = sub.add_parser(
        "cache", help="inspect or clear the on-disk C(p, a) model cache"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_sub.add_parser(
        "stats", help="entry count, bytes, and cumulative hit/miss counters"
    )
    cache_sub.add_parser("clear", help="delete every cached model")
    cache_prune = cache_sub.add_parser(
        "prune",
        help="evict least-recently-used models until the cache fits a "
             "byte budget",
    )
    cache_prune.add_argument(
        "--max-bytes", type=int, required=True, metavar="N",
        help="target cache size in bytes (oldest entries removed first)",
    )

    perf = sub.add_parser(
        "perf", help="profile a run and report where wall time goes"
    )
    perf_sub = perf.add_subparsers(dest="perf_command", required=True)
    perf_run = perf_sub.add_parser(
        "run",
        help="run a job with perf instrumentation on and print the "
             "per-phase wall-time breakdown",
    )
    _add_job_args(perf_run)
    perf_run.add_argument(
        "--profile-out", default=None, metavar="PATH",
        help="write a cProfile capture of the run as collapsed stacks "
             "(one `frames weight` line each; feed to flamegraph.pl or "
             "speedscope)",
    )
    perf_run.add_argument(
        "--profile-top", type=int, default=0, metavar="N",
        help="also print the top N functions by cumulative time "
             "(deterministic layout; default: off)",
    )
    perf_run.add_argument(
        "--json-out", default=None, metavar="PATH",
        help="write the schema-stamped perf digest (phases, counters, "
             "latency percentiles, events/sec, peak RSS) as JSON",
    )
    perf_run.add_argument(
        "--report-out", default=None, metavar="PATH",
        help="write the SLO run report (HTML for .html/.htm, text "
             "otherwise) with a Performance section appended",
    )
    perf_report = perf_sub.add_parser(
        "report", help="render a perf run digest as text"
    )
    perf_report.add_argument(
        "file", help="digest JSON written by `perf run --json-out`"
    )

    predict = sub.add_parser(
        "predict",
        help="distribution-valued completion-time predictions and their "
             "calibration",
    )
    predict_sub = predict.add_subparsers(dest="predict_command", required=True)

    def _predict_run_args(p):
        _add_job_args(p)
        p.add_argument(
            "--runtime-scale", type=float, default=1.0,
            help="inflate this run's task runtimes (input growth; "
                 "default 1.0)",
        )
        p.add_argument(
            "--chaos", default=None, metavar="SPEC.json",
            help="chaos-injection schedule (JSON; see EXPERIMENTS.md "
                 "'Injecting chaos') — the way to watch calibration break",
        )

    predict_timeline = predict_sub.add_parser(
        "timeline",
        help="run a job and print the per-tick prediction-interval "
             "timeline (bands vs the in-force deadline)",
    )
    _predict_run_args(predict_timeline)
    predict_score = predict_sub.add_parser(
        "score",
        help="run a job and score its interval ledger: reliability "
             "diagram, pinball loss, honesty verdict",
    )
    _predict_run_args(predict_score)
    predict_score.add_argument(
        "--json-out", default=None, metavar="PATH",
        help="write the calibration digest (coverage per level, sharpness, "
             "pinball loss, rolling-window timeline, verdict) as JSON",
    )

    serve = sub.add_parser(
        "serve", help="run the live cluster service (HTTP arbiter)"
    )
    serve.add_argument(
        "--port", type=int, default=0,
        help="listen port (default: 0 = pick a free ephemeral port)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--capacity", type=int, default=40,
        help="guaranteed-token capacity of the slice (default: 40, "
             "sized for a small host; raise it with a bigger fleet)",
    )
    serve.add_argument(
        "--tick-seconds", type=float, default=60.0,
        help="control period in virtual seconds (default: 60)",
    )
    serve.add_argument(
        "--time-scale", type=float, default=0.02,
        help="wall seconds per virtual second; 0.02 replays trained "
             "profiles 50x faster than recorded (default: 0.02)",
    )
    serve.add_argument(
        "--heartbeat-timeout", type=float, default=5.0,
        help="wall seconds of worker silence before its leases are "
             "re-queued (default: 5)",
    )
    serve.add_argument(
        "--tenant", action="append", default=None, metavar="NAME=QUOTA",
        help="add a tenant with a guaranteed-token quota (repeatable; "
             "default: one 'default' tenant owning the whole capacity)",
    )
    serve.add_argument(
        "--chaos", default=None, metavar="SPEC.json",
        help="apply the spec's control-plane faults (dropped ticks, "
             "predictor blackouts) to the live control loop",
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--cpa-reps", type=int, default=2,
        help="simulations per allocation when lazily training a template "
             "server-side (default: 2; bump for tighter tables)",
    )
    serve.add_argument(
        "--port-file", default=None, metavar="PATH",
        help="write the bound port here once listening (lets scripts "
             "discover an ephemeral port)",
    )

    worker = sub.add_parser(
        "worker", help="run a worker against a live service"
    )
    worker.add_argument("--url", required=True, help="arbiter base URL")
    worker.add_argument("--name", default="worker")
    worker.add_argument(
        "--slots", type=int, default=20,
        help="concurrent task slots this worker offers (default: 20, "
             "so two workers cover the default service capacity)",
    )

    submit = sub.add_parser(
        "submit", help="submit one job to a live service and wait"
    )
    submit.add_argument("--url", required=True, help="arbiter base URL")
    submit.add_argument("--deadline-minutes", type=float, required=True)
    group = submit.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--template", default=None,
        help="server-side template: A-G (Table 2) or 'mapreduce'",
    )
    group.add_argument(
        "--bundle", default=None, metavar="PATH",
        help="upload a local `repro train` bundle with the submission",
    )
    group.add_argument(
        "--command", dest="cmd_argv", default=None,
        nargs=argparse.REMAINDER, metavar="ARGV",
        help="run a real subprocess per task (everything after --command)",
    )
    submit.add_argument(
        "--tasks", type=int, default=1,
        help="task count for --command jobs (default: 1)",
    )
    submit.add_argument("--tenant", default="default")
    submit.add_argument("--policy", choices=POLICY_KINDS, default="jockey")
    submit.add_argument("--name", default=None, help="job display name")
    submit.add_argument(
        "--no-wait", action="store_true",
        help="return right after admission instead of polling to completion",
    )
    submit.add_argument(
        "--timeout", type=float, default=600.0,
        help="wall seconds to wait for completion (default: 600)",
    )
    submit.add_argument(
        "--report-out", default=None, metavar="PATH",
        help="fetch the finished job's run report (HTML for .html/.htm, "
             "text otherwise)",
    )

    loadgen = sub.add_parser(
        "loadgen", help="replay a seeded open-loop workload at a service"
    )
    loadgen.add_argument("--url", required=True, help="arbiter base URL")
    loadgen.add_argument("--jobs", type=int, default=20)
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument(
        "--template", action="append", default=None,
        help="template pool to draw from (repeatable; default: mapreduce)",
    )
    loadgen.add_argument("--tenant", default="default")
    loadgen.add_argument("--policy", choices=POLICY_KINDS, default="jockey")
    loadgen.add_argument(
        "--mean-interarrival", type=float, default=180.0,
        help="mean arrival gap in virtual seconds (default: 180)",
    )
    loadgen.add_argument(
        "--timeout", type=float, default=600.0,
        help="wall-clock budget for the whole campaign (default: 600)",
    )
    loadgen.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the attainment digest JSON here",
    )

    trace = sub.add_parser("trace", help="inspect a recorded trace file")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    summarize = trace_sub.add_parser(
        "summarize", help="print a per-kind event table"
    )
    summarize.add_argument("file", help="trace file (Chrome JSON or JSONL)")

    report = sub.add_parser(
        "report", help="build an SLO run report from a recorded trace"
    )
    report.add_argument(
        "file", help="trace file from `repro run --trace-out/--trace-jsonl`"
    )
    report.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the report here (HTML for .html/.htm, text otherwise); "
             "default prints text to stdout",
    )
    report.add_argument(
        "--bundle", default=None,
        help="job bundle whose C(p, a) table turns the risk timeline from "
             "a binary margin check into real miss probabilities",
    )
    report.add_argument(
        "--deadline-minutes", type=float, default=None,
        help="deadline override for traces recorded before job.complete "
             "events carried one",
    )
    report.add_argument(
        "--slack", type=float, default=ControlConfig().slack,
        help="controller slack baked into the trace's recorded predictions "
             "(default: the paper's %(default)s)",
    )
    return parser


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------


def cmd_train(args, out) -> int:
    generated = named_job(args.job, seed=args.seed)
    if generated is None:
        out.write(f"error: unknown job {args.job!r} "
                  f"(choose A-G or mapreduce)\n")
        return 2
    out.write(f"profiling run of job {args.job!r} at "
              f"{args.allocation} guaranteed tokens...\n")
    trace = run_training(
        generated, seed=args.seed, allocation=args.allocation,
        stream="cli-train",
    )
    out.write(f"  finished in {trace.duration / 60:.1f} min "
              f"({trace.total_cpu_seconds() / 3600:.1f} CPU-hours)\n")
    out.write("building C(p, a) table...\n")
    learned, _indicator, table = learn_model(
        generated.graph,
        trace,
        seed=derive_seed(args.seed, f"cli-cpa:{args.job}"),
        allocations=DEFAULT_ALLOCATIONS,
        reps=args.cpa_reps,
        jobs=args.jobs,
        use_cache=not args.no_cache,
    )
    persist.save_bundle(
        args.out, graph=generated.graph, profile=learned, table=table,
        metadata={"job": args.job, "seed": args.seed},
    )
    out.write(f"saved bundle to {args.out}\n")
    return 0


def _load_bundle(path: str, out):
    """``persist.load_bundle`` at the CLI boundary: the (graph, profile,
    table) triple, or None after printing why (the caller exits 2)."""
    try:
        return persist.load_bundle(path)
    except (OSError, ValueError) as exc:
        out.write(f"error: cannot load bundle: {exc}\n")
        return None


#: Where EXPERIMENTS.md documents each spec kind, format and example.
_SPEC_SECTIONS = {
    "chaos": "Injecting chaos",
    "fleet": "Running a fleet",
    "market": "Running a token market",
}


def _load_spec(load, kind: str, usage: str, path: str, out):
    """``load(path)`` for a chaos / fleet / market spec, or None after
    printing why and the hint ``usage: repro <usage> SPEC.json`` (the
    caller exits 2).  Each loader raises its own ``ValueError``
    (``PersistError``, ``FleetSpecError``, ``MarketSpecError``) for an
    unreadable or malformed spec."""
    try:
        return load(path)
    except ValueError as exc:
        out.write(f"error: cannot load {kind} spec: {exc}\n")
        out.write(
            f"usage: repro {usage} SPEC.json — SPEC.json must be a JSON "
            f"{kind} spec (see EXPERIMENTS.md, '{_SPEC_SECTIONS[kind]}', "
            "for the format and a worked example)\n"
        )
        return None


def _load_job(args, out, chaos_command: Optional[str] = None):
    """What ``run``, ``perf run`` and ``predict`` all start from: the bundle,
    the ``--policy`` built against ``--deadline-minutes`` with the
    paper-default controller, and the ``--chaos`` spec of a command that
    takes one (``chaos_command`` names it in the usage hint).  Returns
    ``(graph, profile, table, policy, deadline_seconds, chaos spec or
    None)``, or None after printing why (the caller exits 2)."""
    for flag in ("deadline_minutes", "runtime_scale"):
        value = getattr(args, flag, 1.0)        # ``perf run`` has no --runtime-scale
        if not 0 < value < math.inf:
            out.write(f"error: --{flag.replace('_', '-')} must be positive and "
                      f"finite, got {value!r}\n")
            return None
    bundle = _load_bundle(args.bundle, out)
    if bundle is None:
        return None
    chaos_spec = None
    if chaos_command is not None and args.chaos:
        chaos_spec = _load_spec(persist.load_chaos_spec, "chaos",
                                f"{chaos_command} --chaos", args.chaos, out)
        if chaos_spec is None:
            return None
    graph, profile, table = bundle
    deadline = args.deadline_minutes * 60.0
    control = ControlConfig()
    try:
        policy = build_policy(
            args.policy,
            table=table,
            indicator=totalwork_with_q(profile),
            profile=profile,
            utility=deadline_utility(deadline),
            control=control,
            max_tokens=control.max_tokens,
        )
    except PolicyError as exc:
        out.write(f"error: {exc}\n")
        return None
    return graph, profile, table, policy, deadline, chaos_spec


def _simulate(args, graph, behavior, policy, deadline: float, chaos_spec=None):
    """One controlled run on the CLI's calm cluster, seeded the CLI way
    (``--seed`` roots the cluster, the ``cli-run`` job stream and the chaos
    engine).  Returns ``(trace, chaos engine or None, simulator)``."""
    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(), rng=RngRegistry(args.seed))
    trace, engine = run_control_loop(
        cluster, graph, behavior, policy,
        rng=RngRegistry(args.seed).stream("cli-run"),
        deadline=deadline,
        chaos=chaos_spec,
        chaos_seed=derive_seed(args.seed, "chaos"),
    )
    return trace, engine, sim


def _slo_report(trace, policy, kind: str, table, title: str, chaos_summary=None):
    """The SLO run report of a finished CLI run."""
    from repro.telemetry import report as telemetry_report

    return telemetry_report.from_audit_and_trace(
        trace, run_artifacts(policy), policy=kind, table=table, title=title,
        chaos=telemetry_report.chaos_rows_from_summary(chaos_summary),
    )


def cmd_run(args, out) -> int:
    job = _load_job(args, out, "run")
    if job is None:
        return 2
    graph, profile, table, policy, deadline, chaos_spec = job
    if args.metrics_out:
        # Per-run metrics: zero the registry so the snapshot covers this
        # run only (values reset in place; cached instruments stay valid).
        telemetry_metrics.REGISTRY.reset()
    with (
        telemetry_trace.capture(capacity=args.trace_capacity)
        if args.trace_out or args.trace_jsonl else nullcontext()
    ) as recorder:
        trace, engine, sim = _simulate(
            args, graph, profile.with_runtime_scale(args.runtime_scale),
            policy, deadline, chaos_spec,
        )
    verdict = "MET" if trace.met_deadline() else "MISSED"
    allocations = [a for _t, a in trace.allocation_timeline]
    out.write(
        f"job {graph.name!r} under {args.policy}: finished in "
        f"{trace.duration / 60:.1f} min of a {args.deadline_minutes:.0f}-min "
        f"deadline -> {verdict}\n"
    )
    out.write(
        f"  allocation start/max/end: {allocations[0]}/{max(allocations)}/"
        f"{allocations[-1]} tokens; evictions "
        f"{sum(1 for r in trace.records if r.outcome == 'evicted')}, "
        f"failures {sum(1 for r in trace.records if r.outcome == 'failed')}\n"
    )
    chaos_summary = engine.summary() if engine is not None else None
    if chaos_summary is not None:
        out.write(
            f"  chaos {chaos_summary['spec_name']!r} "
            f"(intensity {chaos_summary['intensity']:g}): "
            f"{chaos_summary['machines_failed']} machines failed, "
            f"{chaos_summary['ticks_dropped']} ticks dropped, "
            f"{chaos_summary['ticks_delayed']} delayed, "
            f"{chaos_summary['degraded_ticks']} degraded, "
            f"{chaos_summary['allocation_deficits']} allocation deficit(s)\n"
        )
    if recorder is not None:
        events = recorder.events()
        if args.trace_out:
            telemetry_export.write_chrome_trace(events, args.trace_out)
            out.write(f"  wrote {len(events)} trace events to {args.trace_out}"
                      f" ({recorder.dropped} dropped)\n")
        if args.trace_jsonl:
            telemetry_export.write_jsonl(events, args.trace_jsonl)
            out.write(f"  wrote JSONL trace to {args.trace_jsonl}\n")
    if args.metrics_out:
        sim.publish_metrics()
        # Sorted keys on top of the registry's own ordering: snapshots of
        # the same run are byte-identical regardless of creation order.
        persist.write_json(
            args.metrics_out, telemetry_metrics.REGISTRY.snapshot(), indent=2
        )
        out.write(f"  wrote metrics snapshot to {args.metrics_out}\n")
    if args.report_out:
        from repro.telemetry import report as telemetry_report

        run_report = _slo_report(
            trace, policy, args.policy, table,
            f"{graph.name} / {args.policy}", chaos_summary,
        )
        fmt = telemetry_report.write(run_report, args.report_out)
        out.write(f"  wrote {fmt} report to {args.report_out}\n")
    return 0 if trace.met_deadline() else 1


def cmd_experiment(args, out) -> int:
    import os

    from repro.experiments.reporting import claims_table, write_results
    from repro.experiments.scenarios import SCALES

    roots = args.seed or [None]
    if args.results_dir is not None and len(roots) > 1:
        out.write("error: --results-dir takes a single --seed root\n")
        return 2
    committed = "all" in args.id
    runs = RUNS if committed else dict.fromkeys(EXPERIMENTS[i] for i in args.id)
    tallies = []
    # Experiment drivers pick up parallelism through the environment:
    # every parallel_map call under this command inherits the setting.
    previous_jobs = os.environ.get(repro_parallel.JOBS_ENV)
    if args.jobs is not None:
        os.environ[repro_parallel.JOBS_ENV] = str(args.jobs)
    try:
        for run, root in itertools.product(runs, roots):
            scale = args.scale or (run.scale if committed else "default")
            seed = run.seed if root is None else root
            reports = run.execute(SCALES[scale], seed=seed)
            for report in reports:
                out.write(report.render() + "\n")
                tallies += report.tallies
            if args.results_dir is not None:
                written = write_results(reports, args.results_dir)
                names = [p.name for p in written]
                if names != list(run.outputs):
                    raise RuntimeError(
                        f"experiment {run.ids[0]} wrote {names}, the "
                        f"registry declares {list(run.outputs)}"
                    )
                out.write(f"wrote {', '.join(str(p) for p in written)}\n")
    finally:
        if previous_jobs is None:
            os.environ.pop(repro_parallel.JOBS_ENV, None)
        else:
            os.environ[repro_parallel.JOBS_ENV] = previous_jobs
    if tallies:
        out.write(f"== claims, pooled over {len(roots)} seed root(s) ==\n"
                  + claims_table(tallies) + "\n")
    return 0


def cmd_cache(args, out) -> int:
    store = model_cache.default_cache()
    if args.cache_command == "stats":
        stats = store.stats()
        out.write(f"cache root: {stats['root']}\n")
        out.write(f"  entries: {stats['entries']}\n")
        out.write(f"  total size: {stats['bytes']} bytes "
                  f"({stats['bytes'] / 1024:.1f} KiB)\n")
        out.write(f"  hits: {stats['hits']}  misses: {stats['misses']}  "
                  f"stores: {stats['stores']}  corrupt: {stats['corrupt']}  "
                  f"pruned: {stats['pruned']}\n")
        return 0
    if args.cache_command == "clear":
        removed = store.clear()
        out.write(f"removed {removed} cached model(s) from {store.root}\n")
        return 0
    if args.cache_command == "prune":
        removed, freed = store.prune(args.max_bytes)
        remaining = store.stats()
        out.write(
            f"pruned {removed} cached model(s) ({freed} bytes) from "
            f"{store.root}; {remaining['entries']} entr"
            f"{'y' if remaining['entries'] == 1 else 'ies'} "
            f"({remaining['bytes']} bytes) remain\n"
        )
        return 0
    raise AssertionError("unreachable")  # pragma: no cover


def cmd_fleet(args, out) -> int:
    from repro.fleet.driver import (
        FleetConfig,
        FleetTemplate,
        load_fleet_spec,
        run_fleet,
    )
    from repro.fleet.store import ProfileStore

    if args.fleet_command == "stats":
        store = ProfileStore(args.store)
        stats = store.stats()
        out.write(f"fleet store root: {stats['root']}\n")
        out.write(f"  templates: {stats['templates']}  "
                  f"generations: {stats['generations']}  "
                  f"({stats['bytes'] / 1024:.1f} KiB)\n")
        for name in sorted(stats["per_template"]):
            info = stats["per_template"][name]
            latest = store.latest(name)
            latest_txt = (
                f"latest gen-{latest.number:06d}" if latest is not None
                else "no readable generations"
            )
            out.write(f"  {name}: {info['generations']} generation(s), "
                      f"{info['bytes'] / 1024:.1f} KiB, {latest_txt}\n")
        return 0

    # fleet run
    if args.spec:
        spec = _load_spec(load_fleet_spec, "fleet", "fleet run --spec",
                          args.spec, out)
        if spec is None:
            return 2
        templates, config = spec
        config = replace_dc(config, store_root=args.store)
    else:
        from repro.chaos.spec import ProfileDrift
        from repro.experiments.scenarios import SCALES

        names = [t.strip() for t in args.templates.split(",") if t.strip()]
        if not names:
            out.write("error: --templates needs at least one job name\n")
            return 2
        templates = [FleetTemplate(name) for name in names]
        drift = None
        if args.drift_day is not None:
            drift = ProfileDrift(
                at=float(args.drift_day), factor=args.drift_factor
            )
        # FleetError (e.g. an unknown template job, naming the offender)
        # propagates to main() as a runtime failure: exit 1.
        config = FleetConfig(
            days=args.days,
            model_mode=args.mode,
            drift=drift,
            scale=SCALES[args.scale],
            seed=args.seed,
            store_root=args.store,
        )
    if args.report_out:
        config = replace_dc(config, keep_last_result=True)
    result = run_fleet(templates, config)
    out.write(
        f"fleet: {len(templates)} template(s) x {config.days} day(s), "
        f"mode {config.model_mode}\n"
    )
    for s in result.summaries:
        out.write(
            f"  {s.template}: attainment {100 * s.attainment:.0f}% "
            f"({sum(1 for r in result.rows if r.template == s.template and r.met)}"
            f"/{s.days} met), {s.rebuilds} rebuild(s), "
            f"{s.drift_detections} drift detection(s), "
            f"{s.profiling_runs} profiling run(s), "
            f"mean staleness {s.mean_staleness_days:.1f} day(s), "
            f"deadline {s.deadline_minutes:.0f} min, "
            f"cov@90 {s.coverage90:.2f} ({s.prediction_verdict})\n"
        )
    if config.store_root is not None:
        out.write(f"  profile store: {config.store_root}\n")
    if args.digest_out:
        persist.write_json(args.digest_out, result.to_digest(), indent=2)
        out.write(f"  wrote fleet digest to {args.digest_out}\n")
    if args.report_out:
        from repro.telemetry import report as telemetry_report

        first = result.summaries[0].template
        run_report = telemetry_report.from_result(
            result.last_results[first],
            title=f"fleet {first} / final day ({config.model_mode})",
        )
        run_report = replace_dc(
            run_report,
            extra_sections=tuple(
                (
                    f"fleet: {s.template} ({s.mode})",
                    telemetry_report.fleet_rows_from_summary(s.to_dict()),
                )
                for s in result.summaries
            ),
        )
        fmt = telemetry_report.write(run_report, args.report_out)
        out.write(f"  wrote {fmt} report to {args.report_out}\n")
    return 0


def cmd_market(args, out) -> int:
    from repro.experiments.reporting import ascii_table
    from repro.market import (
        MarketConfig,
        MarketError,
        TokenMarket,
        generate_market_workload,
        load_market_spec,
    )
    from repro.telemetry import report as telemetry_report

    if args.market_command == "stats":
        try:
            payload = json.loads(
                pathlib.Path(args.digest).read_text(encoding="utf-8")
            )
        except (OSError, json.JSONDecodeError) as exc:
            out.write(f"error: cannot read market digest: {exc}\n")
            return 1
        if isinstance(payload, dict) and payload.get("experiment") == "market":
            # The `experiment market` sweep digest.
            out.write(
                f"market sweep: scale {payload['scale']}, "
                f"seed {payload['seed']}\n"
            )
            out.write(ascii_table(
                ["mode", "quota scale", "attainment [%]", "rejected"],
                [
                    [a["mode"], a["quota_scale"], 100.0 * a["attainment"],
                     a["rejected"]]
                    for a in payload["aggregates"]
                ],
            ) + "\n")
            out.write(
                f"pooled {100 * payload['pooled_attainment']:.1f}% vs "
                f"split {100 * payload['split_attainment']:.1f}% attainment "
                "on paired workloads\n"
            )
            return 0
        if isinstance(payload, dict) and "tenants" in payload:
            # A single-run digest from `market run --digest-out`.
            rows = telemetry_report.market_rows_from_summary(payload)
            out.write(ascii_table(
                [f"Token market ({payload.get('mode', '?')})", "value"],
                [[label, value] for label, value in rows],
            ) + "\n")
            for t in payload["tenants"]:
                out.write(
                    f"  {t['name']}: attainment {100 * t['attainment']:.0f}% "
                    f"({t['met']}/{t['submitted']} met), "
                    f"{t['rejected']} rejected\n"
                )
            return 0
        out.write(
            f"error: {args.digest} is not a market digest (expected a "
            "`market run --digest-out` file or results/exp_market.json)\n"
        )
        return 1

    # market run
    if args.spec:
        spec = _load_spec(load_market_spec, "market", "market run --spec",
                          args.spec, out)
        if spec is None:
            return 2
        tenants, jobs, config = spec
    else:
        try:
            # The config first: it refuses a non-finite --tick-seconds
            # before the workload draws arrivals over it.
            config = MarketConfig(
                capacity=args.capacity,
                mode=args.mode,
                tick_seconds=args.tick_seconds,
            )
            tenants, jobs = generate_market_workload(
                tenants=args.tenants,
                jobs_per_tenant=args.jobs_per_tenant,
                capacity=args.capacity,
                quota_scale=args.quota_scale,
                tick_seconds=args.tick_seconds,
                horizon_ticks=args.horizon_ticks,
                seed=args.seed,
            )
        except MarketError as exc:
            out.write(f"error: bad synthetic-workload flag: {exc}\n")
            return 2
    # MarketError (e.g. a job referencing an unknown tenant, naming the
    # offender) propagates to main() as a runtime failure: exit 1.
    result = TokenMarket(tenants, jobs, config).run()
    digest = result.to_digest()
    out.write(
        f"market: {len(tenants)} tenant(s), {digest['submitted']} job(s), "
        f"mode {config.mode}, {config.capacity} tokens, "
        f"{digest['ticks']} tick(s)\n"
    )
    for t in digest["tenants"]:
        out.write(
            f"  {t['name']}: attainment {100 * t['attainment']:.0f}% "
            f"({t['met']}/{t['submitted']} met), {t['rejected']} rejected, "
            f"mean queue delay {t['mean_queue_delay_seconds']:.1f}s\n"
        )
    rows = telemetry_report.market_rows_from_summary(digest)
    out.write(ascii_table(
        ["Token market", "value"],
        [[label, value] for label, value in rows],
    ) + "\n")
    if args.digest_out:
        persist.write_json(args.digest_out, digest, indent=2)
        out.write(f"  wrote market digest to {args.digest_out}\n")
    return 0


def _perf_events_per_sec(snapshot) -> Tuple[float, float]:
    """(events dispatched, events/sec over the simulate phase) from a
    collector snapshot; (0, 0) when nothing was dispatched."""
    events = snapshot.get("counters", {}).get("simkit.events_dispatched", 0.0)
    simulate = snapshot.get("phases", {}).get("simulate", {}).get("seconds", 0.0)
    if events <= 0 or simulate <= 0:
        return float(events), 0.0
    return float(events), events / simulate


def cmd_perf_run(args, out) -> int:
    from repro.perf import digest as perf_digest
    from repro.perf import instrument as perf_instrument
    from repro.perf.profile import ProfileSession

    collector = perf_instrument.PerfCollector()
    session = (
        ProfileSession() if args.profile_out or args.profile_top > 0 else None
    )
    previous = perf_instrument.install(collector)
    wall_start = time.perf_counter()
    if session is not None:
        session.start()
    try:
        with collector.phase("load"):
            job = _load_job(args, out)
            if job is None:
                return 2
            graph, profile, table, policy, deadline, _chaos = job
        with collector.phase("simulate"):
            trace, _engine, _sim = _simulate(
                args, graph, profile, policy, deadline
            )
        with collector.phase("report"):
            if session is not None:
                session.stop()
                if args.profile_out:
                    persist.write_text(
                        args.profile_out, session.collapsed_stacks()
                    )
            if args.report_out:
                from repro.telemetry import report as telemetry_report

                run_report = _slo_report(
                    trace, policy, args.policy, table,
                    f"{graph.name} / {args.policy} (perf)",
                )
                snapshot_now = collector.snapshot()
                events, eps = _perf_events_per_sec(snapshot_now)
                perf_rows = [
                    (f"phase {path} [s]", round(info["seconds"], 4))
                    for path, info in sorted(
                        snapshot_now.get("phases", {}).items()
                    )
                    if "/" not in path
                ]
                perf_rows.append(("events dispatched", events))
                perf_rows.append(("events/sec (simulate)", round(eps, 1)))
                ticks = snapshot_now.get("timers", {}).get("control.tick")
                if ticks:
                    perf_rows.append(("control ticks", float(ticks["count"])))
                    perf_rows.append(
                        ("control tick p95 [ms]",
                         round(ticks["p95_seconds"] * 1e3, 3))
                    )
                run_report = replace_dc(
                    run_report,
                    extra_sections=run_report.extra_sections
                    + (("Performance", tuple(perf_rows)),),
                )
                fmt = telemetry_report.write(run_report, args.report_out)
                out.write(f"wrote {fmt} report to {args.report_out}\n")
    finally:
        if session is not None and not session.stopped:
            session.stop()
        perf_instrument.install(previous)
    wall = time.perf_counter() - wall_start

    verdict = "MET" if trace.met_deadline() else "MISSED"
    out.write(
        f"perf: job {graph.name!r} under {args.policy}: finished in "
        f"{trace.duration / 60:.1f} virtual min of a "
        f"{args.deadline_minutes:.0f}-min deadline -> {verdict}\n"
    )
    snapshot = collector.snapshot()
    out.write(perf_instrument.render_snapshot(snapshot, wall_seconds=wall))
    events, eps = _perf_events_per_sec(snapshot)
    out.write(f"events: {events:.0f} dispatched, {eps:,.0f} events/sec "
              f"over the simulate phase\n")
    if args.profile_out:
        out.write(f"wrote collapsed stacks to {args.profile_out}\n")
    if args.profile_top > 0 and session is not None:
        out.write(session.text_summary(args.profile_top))
    if args.json_out:
        payload = {
            "kind": "perf_run",
            "job": graph.name,
            "policy": args.policy,
            "seed": args.seed,
            "deadline_minutes": args.deadline_minutes,
            "met_deadline": trace.met_deadline(),
            "virtual_seconds": trace.duration,
            "wall_seconds": round(wall, 4),
            "events_per_sec": round(eps, 1),
            "peak_rss_kb": perf_digest.peak_rss_kb(),
            "perf": snapshot,
        }
        perf_digest.write_digest(args.json_out, payload)
        out.write(f"wrote perf digest to {args.json_out}\n")
    return 0 if trace.met_deadline() else 1


def cmd_perf_report(args, out) -> int:
    from repro.perf import digest as perf_digest
    from repro.perf import instrument as perf_instrument

    try:
        doc = perf_digest.read_digest(args.file)
    except (OSError, perf_digest.DigestError) as exc:
        out.write(f"error: cannot read perf digest: {exc}\n")
        return 1
    if doc.get("kind") != "perf_run":
        out.write(
            f"error: {args.file} is not a perf run digest "
            f"(kind={doc.get('kind')!r}, "
            f"benchmark={doc.get('benchmark')!r})\n"
        )
        return 1
    host = doc.get("host", {})
    out.write(
        f"perf run digest: job {doc.get('job', '?')!r} under "
        f"{doc.get('policy', '?')} (schema "
        f"v{doc.get('schema_version', '?')}, {host.get('cpu_count', '?')} "
        f"cpus, python {host.get('python', '?')})\n"
    )
    out.write(
        f"wall {doc.get('wall_seconds', 0):.3f}s, virtual "
        f"{doc.get('virtual_seconds', 0):.0f}s, "
        f"{doc.get('events_per_sec', 0):,.0f} events/sec, deadline "
        f"{'MET' if doc.get('met_deadline') else 'MISSED'}\n"
    )
    out.write(perf_instrument.render_snapshot(
        doc.get("perf", {}), wall_seconds=doc.get("wall_seconds"),
    ))
    return 0


def cmd_perf(args, out) -> int:
    commands = {"run": cmd_perf_run, "report": cmd_perf_report}
    return commands[args.perf_command](args, out)


def cmd_predict(args, out) -> int:
    """Shared runner for ``predict timeline`` and ``predict score``: one
    job execution, then two views of the same interval ledger."""
    from repro.experiments.reporting import ascii_table, sparkline
    from repro.telemetry import predict as telemetry_predict

    job = _load_job(args, out, f"predict {args.predict_command}")
    if job is None:
        return 2
    graph, profile, _table, policy, deadline, chaos_spec = job
    trace, _engine, _sim = _simulate(
        args, graph, profile.with_runtime_scale(args.runtime_scale),
        policy, deadline, chaos_spec,
    )
    records = telemetry_predict.forecasts(run_artifacts(policy))
    verdict = "MET" if trace.met_deadline() else "MISSED"
    out.write(
        f"job {graph.name!r} under {args.policy}: finished in "
        f"{trace.duration / 60:.1f} min of a {args.deadline_minutes:.0f}-min "
        f"deadline -> {verdict}\n"
    )
    if not records:
        out.write(
            f"no prediction intervals recorded: policy {args.policy!r} has "
            "no distribution-valued predictor (or every tick ran "
            "degraded)\n"
        )
        return 1
    if args.predict_command == "timeline":
        out.write(
            ascii_table(
                list(telemetry_predict.TIMELINE_HEADERS),
                telemetry_predict.timeline_rows(
                    records, duration=trace.duration, deadline=deadline
                ),
            ) + "\n"
        )
        out.write(
            f"{len(records)} interval tick(s); hit90 marks whether the "
            "nominal 90% band covered the realized completion\n"
        )
        return 0
    # predict score
    cal = telemetry_predict.calibration(
        records, trace.duration, predictor=args.policy
    )
    out.write(
        ascii_table(
            list(telemetry_predict.RELIABILITY_HEADERS),
            telemetry_predict.reliability_rows(cal),
        ) + "\n"
    )
    out.write(
        f"verdict: {cal.verdict} ({cal.ticks} interval tick(s), pinball "
        f"loss {cal.pinball_loss / 60:.2f} min, tolerance "
        f"±{cal.tolerance:.0%} plus quantization)\n"
    )
    if cal.rolling:
        out.write(
            "rolling cov@90 "
            + sparkline([p.coverage for p in cal.rolling]) + "\n"
        )
    if args.json_out:
        payload = {
            "kind": "predict_score",
            "schema_version": 1,
            "job": graph.name,
            "policy": args.policy,
            "seed": args.seed,
            "deadline_minutes": args.deadline_minutes,
            "runtime_scale": args.runtime_scale,
            "met_deadline": trace.met_deadline(),
            "duration_seconds": trace.duration,
            "calibration": cal.summary(),
            "rolling": [
                {
                    "tick": p.tick,
                    "elapsed": p.elapsed,
                    "window": p.window,
                    "coverage": p.coverage,
                    "verdict": p.verdict,
                }
                for p in cal.rolling
            ],
        }
        persist.write_json(args.json_out, payload, indent=2)
        out.write(f"wrote prediction digest to {args.json_out}\n")
    return 0


def cmd_list_experiments(args, out) -> int:
    for exp_id in sorted(EXPERIMENTS):
        out.write(f"{exp_id:22s} repro.experiments.{EXPERIMENTS[exp_id].module}\n")
    return 0


def _load_trace_events(path: str, out):
    """Shared trace loading for ``trace summarize`` and ``report``: returns
    the events, or None after printing why (missing/corrupt/empty file)."""
    try:
        events = telemetry_export.load_events(path)
    except (OSError, telemetry_export.ExportError) as exc:
        out.write(f"error: cannot read trace: {exc}\n")
        return None
    if not events:
        out.write(
            f"error: {path} contains no trace events — the file is empty or "
            "the capture was truncated before anything was recorded; re-run "
            "with --trace-out (and a larger --trace-capacity if it "
            "overflowed)\n"
        )
        return None
    return events


def cmd_trace(args, out) -> int:
    events = _load_trace_events(args.file, out)
    if events is None:
        return 1
    out.write(telemetry_export.summarize(events))
    return 0


def cmd_report(args, out) -> int:
    from repro.telemetry import report as telemetry_report

    events = _load_trace_events(args.file, out)
    if events is None:
        return 1
    table = None
    if args.bundle:
        bundle = _load_bundle(args.bundle, out)
        if bundle is None:
            return 2
        table = bundle[2]
    deadline = (
        args.deadline_minutes * 60.0 if args.deadline_minutes is not None else None
    )
    try:
        run_report = telemetry_report.from_trace_events(
            events, deadline=deadline, table=table, slack=args.slack
        )
    except telemetry_report.ReportError as exc:
        out.write(f"error: {exc}\n")
        return 1
    if args.out:
        fmt = telemetry_report.write(run_report, args.out)
        out.write(f"wrote {fmt} report to {args.out}\n")
    else:
        out.write(telemetry_report.render_text(run_report))
    return 0


def cmd_serve(args, out) -> int:
    from repro.service.lifecycle import GracefulShutdown
    from repro.service.models import TemplateModelStore
    from repro.service.server import ClusterService, ServiceConfig, ServiceError

    tenants = ()
    if args.tenant:
        pairs = []
        for item in args.tenant:
            name, sep, quota = item.partition("=")
            if not sep or not name:
                out.write(f"error: bad --tenant {item!r} (want NAME=QUOTA)\n")
                return 2
            try:
                pairs.append((name, int(quota)))
            except ValueError:
                out.write(f"error: bad --tenant quota {quota!r} for "
                          f"{name!r} (want an integer)\n")
                return 2
        tenants = tuple(pairs)
    control_faults = None
    if args.chaos:
        spec = _load_spec(persist.load_chaos_spec, "chaos", "serve --chaos",
                          args.chaos, out)
        if spec is None:
            return 2
        control_faults = spec.effective().control_faults
    try:
        config = ServiceConfig(
            host=args.host,
            port=args.port,
            capacity_tokens=args.capacity,
            tick_seconds=args.tick_seconds,
            time_scale=args.time_scale,
            heartbeat_timeout=args.heartbeat_timeout,
            seed=args.seed,
            tenants=tenants,
            control_faults=control_faults,
        )
    except ServiceError as exc:
        out.write(f"error: {exc}\n")
        return 2
    store = TemplateModelStore(seed=args.seed, cpa_reps=args.cpa_reps)
    service = ClusterService(config, store=store)
    port = service.start()
    out.write(f"live cluster service listening at {service.url}\n")
    out.write(f"  capacity {config.capacity_tokens} tokens | "
              f"tick {config.tick_seconds:.0f}s virtual | "
              f"1 virtual minute = {60 * config.time_scale:.2f}s wall\n")
    if args.port_file:
        persist.write_text(args.port_file, f"{port}\n")
    try:
        with GracefulShutdown() as shutdown:
            while not shutdown.wait(0.25):
                if service.shutdown_requested:
                    break
    except KeyboardInterrupt:
        pass
    out.write("draining live jobs...\n")
    service.stop(drain=True, timeout=30.0)
    out.write("service stopped\n")
    return 0


def cmd_worker(args, out) -> int:
    from repro.service.client import ServiceClientError
    from repro.service.lifecycle import GracefulShutdown
    from repro.service.worker import ServiceWorker, WorkerConfig

    try:
        config = WorkerConfig(url=args.url, name=args.name, slots=args.slots)
        worker = ServiceWorker(config)
    except (ValueError, ServiceClientError) as exc:
        out.write(f"error: {exc}\n")
        return 2
    out.write(f"worker {args.name!r} joining {args.url} "
              f"({args.slots} slots)\n")
    try:
        with GracefulShutdown() as shutdown:
            worker.start()
            while not shutdown.wait(0.25):
                if not worker.alive:
                    break
    except KeyboardInterrupt:
        pass
    worker.stop()
    if worker.error:
        out.write(f"error: {worker.error}\n")
        return 1
    out.write(f"worker exiting: {worker.tasks_done} tasks ok, "
              f"{worker.tasks_failed} failed\n")
    return 0


def _print_prediction(reply, deadline_minutes, out) -> None:
    prediction = reply.get("prediction")
    if not prediction:
        return
    median_min = prediction["median"] / 60.0
    line = f"  predicted completion: p50 {median_min:.1f} min"
    for band in prediction.get("bands", ()):
        if abs(band["level"] - 0.8) < 1e-9:
            line += (f", 80% interval [{band['lo'] / 60.0:.1f}, "
                     f"{band['hi'] / 60.0:.1f}] min")
    out.write(line + f" vs {deadline_minutes:.1f} min deadline\n")


def cmd_submit(args, out) -> int:
    from repro.service.client import ServiceClient, ServiceClientError

    bundle_payload = None
    command_payload = None
    if args.bundle:
        try:
            with open(args.bundle, "r", encoding="utf-8") as fh:
                bundle_payload = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            out.write(f"error: cannot read bundle {args.bundle!r}: {exc}\n")
            return 2
    if args.cmd_argv is not None:
        argv = [a for a in args.cmd_argv if a != "--"]
        if not argv:
            out.write("error: --command needs a program to run "
                      "(everything after --command is the argv)\n")
            return 2
        command_payload = {"argv": argv, "tasks": args.tasks}
    try:
        client = ServiceClient(args.url)
    except ServiceClientError as exc:
        out.write(f"error: {exc}\n")
        return 2
    with client:
        return _submit_and_wait(
            args, client, bundle_payload, command_payload, out
        )


def _submit_and_wait(args, client, bundle_payload, command_payload, out) -> int:
    from repro.service.client import ServiceClientError

    try:
        reply = client.submit(
            deadline_minutes=args.deadline_minutes,
            template=args.template,
            bundle=bundle_payload,
            command=command_payload,
            tenant=args.tenant,
            policy=args.policy,
            name=args.name,
        )
    except ServiceClientError as exc:
        out.write(f"error: {exc}\n")
        return 1
    job_id = reply["job_id"]
    out.write(f"job {job_id}: {reply['status']}")
    if reply.get("guarantee") is not None:
        out.write(f" (guarantee {reply['guarantee']} tokens)")
    out.write("\n")
    _print_prediction(reply, args.deadline_minutes, out)
    if reply["status"] == "rejected":
        out.write(f"error: submission rejected: "
                  f"{reply.get('reason', 'unknown')}\n")
        return 1
    if args.no_wait:
        return 0
    try:
        final = client.wait(job_id, timeout=args.timeout)
    except ServiceClientError as exc:
        out.write(f"error: {exc}\n")
        return 1
    status = final["status"]
    if status == "completed":
        met = bool(final.get("met_deadline"))
        out.write(f"job {job_id} completed in "
                  f"{final['duration_seconds'] / 60.0:.1f} min "
                  f"({'met' if met else 'MISSED'} the "
                  f"{args.deadline_minutes:.1f} min deadline)\n")
    else:
        out.write(f"error: job {job_id} {status}: "
                  f"{final.get('reason', 'unknown')}\n")
        return 1
    if args.report_out:
        fmt = ("html" if args.report_out.endswith((".html", ".htm"))
               else "text")
        try:
            text = client.report(job_id, fmt)
        except ServiceClientError as exc:
            out.write(f"error: cannot fetch report: {exc}\n")
            return 1
        persist.write_text(args.report_out, text)
        out.write(f"wrote {fmt} report to {args.report_out}\n")
    return 0 if final.get("met_deadline") else 1


def cmd_loadgen(args, out) -> int:
    from repro.service.client import ServiceClientError
    from repro.service.loadgen import LoadgenConfig, LoadgenError, run_loadgen

    templates = tuple(args.template) if args.template else ("mapreduce",)
    try:
        config = LoadgenConfig(
            jobs=args.jobs,
            seed=args.seed,
            templates=templates,
            tenant=args.tenant,
            policy=args.policy,
            mean_interarrival=args.mean_interarrival,
            timeout=args.timeout,
        )
    except LoadgenError as exc:
        out.write(f"error: {exc}\n")
        return 2
    try:
        digest = run_loadgen(
            args.url, config, out=args.out,
            progress=lambda msg: out.write(f"  {msg}\n"),
        )
    except (LoadgenError, ServiceClientError) as exc:
        out.write(f"error: {exc}\n")
        return 1
    out.write(
        f"loadgen done: {digest['completed']}/{digest['jobs']} completed, "
        f"{digest['met_deadline']} met deadline "
        f"(attainment {digest['attainment']:.2f}), "
        f"{digest['rejected']} rejected, {digest['failed']} failed "
        f"in {digest['wall_seconds']:.1f}s wall\n"
    )
    if args.out:
        out.write(f"wrote attainment digest to {args.out}\n")
    return 0


COMMANDS = {
    "train": cmd_train,
    "run": cmd_run,
    "experiment": cmd_experiment,
    "list-experiments": cmd_list_experiments,
    "fleet": cmd_fleet,
    "market": cmd_market,
    "cache": cmd_cache,
    "perf": cmd_perf,
    "predict": cmd_predict,
    "serve": cmd_serve,
    "worker": cmd_worker,
    "submit": cmd_submit,
    "loadgen": cmd_loadgen,
    "trace": cmd_trace,
    "report": cmd_report,
}


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """Entry point.  Returns 2 for argument errors (argparse usage
    failures), 1 for runtime failures, the command's code otherwise."""
    out = out if out is not None else sys.stdout
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help/--version.
        if exc.code is None:
            return 0
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return COMMANDS[args.command](args, out)
    except BrokenPipeError:
        # The reader went away (`repro ... | head`): write nothing more, and
        # send the exit-time flush of stdout to /dev/null, not the pipe.
        if out is sys.stdout:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        out.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1


__all__ = ["EXPERIMENTS", "build_parser", "main"]
