#!/usr/bin/env python3
"""The perf ladder: one command, five workloads, every metric by name.

    python3 benchmarks/ladder/run.py --workload NAME --seed N \\
        [--seconds S] [--trace 0|1] [--out FILE] [--check]
    python3 benchmarks/ladder/run.py --all --seed N [--runs K] --out FILE

One process measures one workload (``--all`` starts one child per run).
``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``, taken
with the tracer absent and the repo's own collectors off; ``--trace 1``
alternates untraced and traced passes, prints the per-layer metrics and
writes a Chrome trace.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import subprocess
import sys
import traceback
from time import perf_counter, perf_counter_ns

LADDER_DIR = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(LADDER_DIR))

import harness  # noqa: E402

DECLARATION = harness.ROOT / "BENCHMARK.json"
SETUP_REPEATS, SETUP_MOST, SETUP_SECONDS = 3, 9, 3.0
CHILD_TIMEOUT = 180.0


def parse_args(argv=None):
    declared = json.loads(DECLARATION.read_text(encoding="utf-8"))
    names = [w["name"] for w in declared["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=names)
    which.add_argument("--all", action="store_true",
                       help="every workload, one child process per run")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=1,
                        help="with --all: runs per workload, on seeds "
                             "SEED, SEED+1, ...")
    parser.add_argument("--seconds", type=float,
                        default=float(declared["run_seconds"]),
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result as JSON")
    parser.add_argument("--check", action="store_true",
                        help="tiny sizes, two passes: the self-test's mode")
    args = parser.parse_args(argv)
    args.declared = declared
    args.names = names
    return args


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------


def timed_setup(workload, work, host, check):
    """Set up from cold (a private empty model cache each time) at least
    ``SETUP_REPEATS`` times and for ``SETUP_SECONDS`` (once under
    ``--check``); returns each one's wall at reference host speed and as
    measured.  The last set-up stays in place."""
    walls = []
    spent = 0.0
    while True:
        workload.teardown()
        os.environ["REPRO_CACHE_DIR"] = str(work / f"cache-{len(walls)}")
        host.sample_if_stale()
        start = perf_counter()
        workload.setup(work)
        elapsed = perf_counter() - start
        host.sample()
        walls.append((elapsed / host.slowdown(), elapsed))
        spent += elapsed
        if check or len(walls) >= SETUP_MOST or (
            len(walls) >= SETUP_REPEATS and spent >= SETUP_SECONDS
        ):
            return walls


def measure(workload, host, seconds):
    """Untraced passes until the budget is spent (at least two, so every
    operation has a repeat to be compared with)."""
    passes = []
    begin = perf_counter()
    while True:
        log = harness.PassLog(host)
        start = perf_counter()
        workload.run_pass(log)
        log.wall = perf_counter() - start
        passes.append(log)
        if workload.single_pass:
            break
        # Stop where another pass would overshoot the budget by more than
        # stopping undershoots it.
        if len(passes) >= 2 and perf_counter() - begin + log.wall / 2 >= seconds:
            break
    return passes


def measure_traced(workload, host, tracer, targets, seconds):
    """Alternate untraced and traced passes; returns all pass logs plus the
    :class:`layers.PassTrace` of the quietest traced pass and the overhead."""
    from layers import PassTrace

    passes, plain, traced = [], [], []
    begin = perf_counter()
    run = 0
    while True:
        for with_tracer in (False, True):
            if with_tracer:
                tracer.install(targets)
                workload.tracer = tracer
            tracer.start_pass(run)
            accs_before = tracer.snapshot_accs()
            reference_before = host.spent
            log = harness.PassLog(host)
            start_ns = perf_counter_ns()
            try:
                workload.run_pass(log)
            finally:
                end_ns = perf_counter_ns()
                tracer.uninstall()
                workload.tracer = None
            log.wall = (end_ns - start_ns) / 1e9
            log.info["reference_s"] = host.spent - reference_before
            passes.append(log)
            # The spans kept so far would otherwise be walked by every later
            # full collection, making each pass slower than the one before.
            gc.freeze()
            if with_tracer:
                accs = {
                    name: tuple(a - b for a, b in
                                zip(after, accs_before.get(name, (0, 0, 0))))
                    for name, after in tracer.snapshot_accs().items()
                }
                traced.append((log, run, start_ns, end_ns, accs))
            else:
                plain.append(log)
            run += 1
        if workload.single_pass or perf_counter() - begin >= seconds:
            break
    # Overhead on the timed operations only, each at its steady time.
    overhead = (harness.steady_work_seconds([t[0] for t in traced])
                / harness.steady_work_seconds(plain) - 1.0)
    log, run, start_ns, end_ns, accs = min(traced, key=lambda t: t[0].wall)
    return passes, log, PassTrace(tracer, run, start_ns, end_ns, accs), overhead


def run_workload(args):
    work = harness.prepare_environment()
    from workloads import WORKLOADS

    harness.assert_instrumentation_off()
    workload = WORKLOADS[args.workload]("check" if args.check else "normal",
                                        args.seconds)
    workload.generate(args.seed)
    host = harness.HostSpeed()
    # The self-test wants the minimum: one set-up, two passes.
    budget = 0.0 if args.check else args.seconds
    declared = args.declared["per_layer" if args.trace else "end_to_end"]
    extra = {}
    try:
        if args.trace:
            from layers import SETUP_RUN, TARGETS, per_layer
            from tracer import Tracer

            tracer = Tracer(threaded=workload.name.startswith("service_"))
            targets = TARGETS[workload.name](tracer)
            tracer.install(targets)     # a stale path fails here, named
            tracer.start_pass(SETUP_RUN)
            try:
                workload.setup(work)
            finally:
                tracer.uninstall()
            passes, log, trace, overhead = measure_traced(
                workload, host, tracer, targets, budget
            )
            values = per_layer(workload, trace, log, overhead)
            unknown = sorted(set(values) - {m["name"] for m in declared})
            if unknown:
                raise RuntimeError(f"undeclared per-layer metrics: {unknown}")
            trace_path = harness.LADDER_DIR / "out" / (
                f"trace-{workload.name}-seed{args.seed}.json"
            )
            trace_path.parent.mkdir(exist_ok=True)
            tracer.write_chrome_trace(trace_path, process_name=workload.name)
            extra["trace_file"] = str(trace_path.relative_to(harness.ROOT))
            extra["spans"] = len(tracer.spans)
        else:
            setups = timed_setup(workload, work, host, args.check)
            passes = measure(workload, host, budget)
            log = passes[0]
            values = harness.end_to_end(passes)
            values["setup_s"] = harness.quantile([c for c, _ in setups], 0.5)
            extra["setup_walls_s"] = [round(c, 4) for c, _ in setups]
            extra["setup_raw_s"] = [round(r, 4) for _, r in setups]
            extra["as_measured"] = harness.end_to_end(passes, raw=True)
            values["peak_rss_mb"] = harness.peak_rss_mb()
    finally:
        workload.teardown()

    problems = [p for one in passes for p in one.failures]
    problems += workload.verify(passes)
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "check": args.check,
        "correct": not problems,
        "attempted": sum(one.attempted for one in passes),
        "failed": len(problems),
        "metrics": {
            m["name"]: {"value": float(values.get(m["name"], 0.0)),
                        "unit": m["unit"]}
            for m in declared
        },
        "passes": len(passes),
        "pass_wall_s": [round(one.wall, 4) for one in passes],
        "sim_digest": log.stats.get("sim_digest"),
        "host_slowdown": {
            name: round(harness.quantile(host.slowdowns, q), 4)
            for name, q in (("min", 0.0), ("p50", 0.5), ("max", 1.0))
        },
        "reference_s": round(host.spent, 4),
        "info": log.info,
        "problems": problems,
        "notes": workload.notes(passes),
        **extra,
    }
    report(result)
    return result


def report(result) -> None:
    print(f"# ladder {result['workload']} seed={result['seed']} "
          f"trace={result['trace']} passes={result['passes']} "
          f"pass_wall_s={result['pass_wall_s']}")
    print(f"# host {json.dumps(harness.host_stamp(), sort_keys=True)}")
    print(f"# host slowdown against the reference kernel "
          f"{json.dumps(result['host_slowdown'])}, "
          f"{result['reference_s']} s spent sampling it")
    if "as_measured" in result:
        print("# uncorrected: " + ", ".join(
            f"{name} {value:.6g}" for name, value in result["as_measured"].items()
        ))
    for name, metric in result["metrics"].items():
        print(f"{name:44s} {metric['value']:.6g} {metric['unit']}")
    for key, value in sorted(result["info"].items()):
        print(f"# info {key} = {value}")
    print(f"# sim_digest {result['sim_digest']}")
    print(f"ops_attempted {result['attempted']} count")
    print(f"ops_failed {result['failed']} count")
    for problem in result["problems"]:
        print(f"# FAILED {problem}")
    for note in result["notes"]:
        print(f"# note {note}")
    if "trace_file" in result:
        print(f"# chrome trace ({result['spans']} spans): {result['trace_file']}")


# ----------------------------------------------------------------------
# Every workload, one child process each
# ----------------------------------------------------------------------


def run_all(args) -> int:
    results = []
    status = 0
    scratch = harness.LADDER_DIR / "out"
    scratch.mkdir(exist_ok=True)
    for name in args.names:
        for seed in range(args.seed, args.seed + args.runs):
            child_out = scratch / f"child-{name}-{seed}.json"
            command = [
                sys.executable, str(LADDER_DIR / "run.py"), "--workload", name,
                "--seed", str(seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--out", str(child_out),
            ] + (["--check"] if args.check else [])
            done = subprocess.run(command, timeout=CHILD_TIMEOUT)
            status = status or done.returncode
            if child_out.is_file():
                results.extend(json.loads(child_out.read_text())["runs"])
                child_out.unlink()
    if args.out:
        write_document(args.out, results)
    return status


def write_document(path, results) -> None:
    document = {"benchmark": "ladder", "host": harness.host_stamp(),
                "runs": results}
    pathlib.Path(path).write_text(
        json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.all:
        return run_all(args)
    try:
        result = run_workload(args)
    except harness.HygieneError as exc:
        print(f"ladder: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # No result line: the run is void, and says which name broke it
        # (a stale trace target arrives here as TraceTargetError).
        traceback.print_exc()
        print(f"ladder: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if args.out:
        write_document(args.out, [result])
    print(json.dumps({key: result[key]
                      for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
