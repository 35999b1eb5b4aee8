#!/usr/bin/env python3
"""Compare two result files written by ``run.py --all --out``.

    python3 benchmarks/ladder/compare.py A.json B.json

For every workload x end-to-end metric: the median of each side's runs,
how much worse B's median is than A's, the bound from ``BENCHMARK.json``,
each side's spread (distance between its quartiles over its median) and a
verdict:

* ``regressed``  - B is worse than A by more than the bound;
* ``unresolved`` - not regressed, but a spread is wider than the bound, so
  "unchanged" cannot be told from "changed" (unless every run of B beats
  every run of A);
* ``ok``         - within the bound, with spreads that can resolve it.

Also checks that runs with equal seeds report the same ``sim_digest``.
Exit code 1 when anything regressed or a digest differs.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys

DECLARATION = pathlib.Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"


def load(path):
    runs = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))["runs"]
    return [run for run in runs if not run["trace"]]


def spread(values):
    """Inter-quartile distance over the median (two runs: their distance)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(a, b, better):
    """Relative amount by which ``b`` is worse than ``a`` (negative: better)."""
    return (b - a) / a if better == "lower" else (a - b) / a


def compare(runs_a, runs_b, declared):
    rows = []
    workloads = [w["name"] for w in declared["workloads"]]
    for workload in workloads:
        for metric in declared["end_to_end"]:
            name = metric["name"]
            a, b = (
                [r["metrics"][name]["value"] for r in runs
                 if r["workload"] == workload]
                for runs in (runs_a, runs_b)
            )
            if not a or not b:
                continue
            delta = worse_by(statistics.median(a), statistics.median(b),
                             metric["better"])
            widest = max(spread(a), spread(b))
            lower = metric["better"] == "lower"
            b_beats_a = max(b) < min(a) if lower else min(b) > max(a)
            if delta > metric["bound"]:
                verdict = "regressed"
            elif widest > metric["bound"] and not b_beats_a:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append((workload, name, metric["unit"], statistics.median(a),
                         statistics.median(b), delta, metric["bound"],
                         spread(a), spread(b), verdict))
    return rows


def digest_mismatches(runs_a, runs_b):
    digests = {(r["workload"], r["seed"]): r["sim_digest"] for r in runs_a}
    return [
        (r["workload"], r["seed"]) for r in runs_b
        if (r["workload"], r["seed"]) in digests
        and digests[(r["workload"], r["seed"])] != r["sim_digest"]
    ]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    declared = json.loads(DECLARATION.read_text(encoding="utf-8"))
    runs_a, runs_b = load(argv[0]), load(argv[1])
    rows = compare(runs_a, runs_b, declared)
    print(f"{'workload':18s} {'metric':12s} {'median A':>12s} {'median B':>12s} "
          f"{'B worse by':>10s} {'bound':>6s} {'spread A':>8s} {'spread B':>8s}  verdict")
    for (workload, name, unit, med_a, med_b, delta, bound,
         spread_a, spread_b, verdict) in rows:
        print(f"{workload:18s} {name:12s} {med_a:12.5g} {med_b:12.5g} "
              f"{delta:+10.1%} {bound:6.0%} {spread_a:8.1%} {spread_b:8.1%}  "
              f"{verdict} [{unit}]")
    mismatched = digest_mismatches(runs_a, runs_b)
    for workload, seed in mismatched:
        print(f"sim_digest differs: {workload} seed {seed}")
    failed = sum(one["failed"] for one in runs_a + runs_b)
    print(f"runs: {len(runs_a)} in A, {len(runs_b)} in B; ops_failed {failed}")
    regressed = any(row[-1] == "regressed" for row in rows)
    return 1 if regressed or mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
