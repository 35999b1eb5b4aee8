"""Self-test of the ladder at ``--check`` sizes (about 25 s; not tier-1).

    PYTHONPATH=src python -m pytest benchmarks/ladder -q

(``PYTHONPATH=src`` is for ``benchmarks/conftest.py``; the runner finds
``src/`` by itself.)
"""

import json
import os
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

LADDER = pathlib.Path(__file__).resolve().parent
ROOT = LADDER.parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def clean_env(**extra):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(extra)
    return env


def ladder(*argv, cwd=ROOT, script=None, **env):
    command = [sys.executable, str(script or LADDER / "run.py"), *argv]
    return subprocess.run(command, capture_output=True, text=True, timeout=120,
                          cwd=cwd, env=clean_env(**env))


def result_line(done):
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) and set(result) == RESULT_KEYS else None


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_check_run_prints_exactly_the_declared_metrics(workload, trace):
    done = ladder("--workload", workload, "--seed", "7", "--check",
                  "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = result_line(done)
    assert result is not None, done.stdout
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert NAME.match(metric["name"])
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"] != ""
    # The readable report names every metric with its unit, and the counts.
    printed = {
        line.split()[0]: line.split()[-1]
        for line in done.stdout.splitlines()
        if line and not line.startswith(("#", "{"))
    }
    for metric in declared:
        assert printed[metric["name"]] == metric["unit"]
    assert {"ops_attempted", "ops_failed"} <= set(printed)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


STALE_TARGET = "repro.market.engine:TokenMarket.no_such_method"
WITH_STALE_TARGET = f"""
import sys
sys.path.insert(0, {str(LADDER)!r})
import run, layers
real = layers.TARGETS["market_clear"]
layers.TARGETS["market_clear"] = lambda tracer: real(tracer) + [
    layers.Target({STALE_TARGET!r}, "market.engine.gone")]
sys.exit(run.main(["--workload", "market_clear", "--seed", "7", "--check",
                   "--trace", sys.argv[1]]))
"""


def test_stale_trace_target_fails_the_traced_run_and_only_it():
    def run(trace):
        return subprocess.run(
            [sys.executable, "-c", WITH_STALE_TARGET, trace],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
            env=clean_env(),
        )

    traced = run("1")
    assert traced.returncode != 0
    assert STALE_TARGET in traced.stderr
    assert result_line(traced) is None
    untraced = run("0")
    assert untraced.returncode == 0, untraced.stderr
    assert result_line(untraced)["correct"] is True


def test_refuses_a_conflicting_environment():
    done = ladder("--workload", "market_clear", "--check", REPRO_JOBS="2")
    assert done.returncode == 2
    assert "REPRO_JOBS" in done.stderr
    assert result_line(done) is None


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: non-zero exit, no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        LADDER, tmp_path / "benchmarks" / "ladder",
        ignore=shutil.ignore_patterns("__pycache__", ".work", "out"),
    )
    done = ladder("--workload", "market_clear", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path,
                  script=tmp_path / "benchmarks" / "ladder" / "run.py")
    assert done.returncode != 0
    assert result_line(done) is None


def test_compare_verdicts(tmp_path):
    def document(path, work, latency):
        runs = [
            {"workload": "market_clear", "seed": seed, "trace": 0, "failed": 0,
             "sim_digest": f"d{seed}",
             "metrics": {
                 "setup_s": {"value": 1.0 + seed * 1e-3, "unit": "s"},
                 "peak_rss_mb": {"value": 50.0, "unit": "MB"},
                 "work_per_s": {"value": w, "unit": "1/s"},
                 "op_ms_p50": {"value": ms, "unit": "ms"},
             }}
            for seed, (w, ms) in enumerate(zip(work, latency))
        ]
        path.write_text(json.dumps({"runs": runs}), encoding="utf-8")
        return str(path)

    a = document(tmp_path / "a.json", [100, 101, 99, 100], [10, 10.1, 9.9, 10])
    b = document(tmp_path / "b.json", [70, 71, 69, 70], [10, 20, 5, 10])
    done = subprocess.run(
        [sys.executable, str(LADDER / "compare.py"), a, b],
        capture_output=True, text=True, timeout=60,
    )
    verdict = {
        line.split()[1]: line.split("  ")[-1].split()[0]
        for line in done.stdout.splitlines() if line.startswith("market_clear")
    }
    assert verdict == {"setup_s": "ok", "peak_rss_mb": "ok",
                       "work_per_s": "regressed", "op_ms_p50": "unresolved"}
    assert done.returncode == 1
