"""Byte-level pins on what the CLI's train -> run -> report pipeline emits.

The values in ``tests/golden/cli_pins.json`` were captured on the commit
*before* the run pipeline was folded into shared functions (the CLI still
had its own copies of the control loop, the policy factory and the training
pipeline) and must keep passing unchanged: a refactor of who-calls-what may
not move a byte of a bundle, a trace, a metrics snapshot, a report or a
prediction digest.

Every command runs in its own interpreter, from a scratch working directory
with relative paths, so the pinned stdout carries no host path and the
metrics snapshot (which lists every instrument the process registered) does
not depend on what other tests imported first.

Regenerate (only for an intended output change) with::

    PYTHONPATH=src python tests/test_cli_pins.py
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import repro

GOLDEN = pathlib.Path(__file__).parent / "golden" / "cli_pins.json"
SRC_ROOT = str(pathlib.Path(repro.__file__).resolve().parent.parent)

POLICIES = (
    "jockey",
    "jockey-online-model",
    "jockey-no-adapt",
    "jockey-no-sim",
    "max-allocation",
)
#: Dropped and delayed ticks, a predictor blackout and machine failures:
#: every branch of the control loop's chaos gating in one short run.
CHAOS_SPEC = {
    "name": "pin-storm",
    "rack_failures": [{"at": 300.0, "count": 3, "repair_seconds": 600.0}],
    "control_faults": {
        "drop_tick_prob": 0.2,
        "delay_tick_prob": 0.2,
        "blackouts": [[600.0, 1000.0]],
    },
}
#: The runs use Table-2 job A (~35 control ticks against this deadline).
RUN = ("--bundle", "job-a.json", "--deadline-minutes", "40", "--seed", "3")


def _repro(cwd, *argv):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC_ROOT, env.get("PYTHONPATH")) if p
    )
    env["REPRO_CACHE_DIR"] = str(pathlib.Path(cwd) / "model-cache")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode in (0, 1), proc.stdout + proc.stderr
    return {"exit": proc.returncode, "stdout": proc.stdout}


def _sha256(path):
    return hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()


def capture(cwd):
    """Run the pinned commands under ``cwd``; everything deterministic they
    produce, as one JSON-serializable dict."""
    cwd = pathlib.Path(cwd)
    pins = {}
    pins["train"] = _repro(
        cwd, "train", "--job", "mapreduce", "--out", "bundle.json",
        "--cpa-reps", "2", "--seed", "4",
    )
    pins["train"]["bundle_sha256"] = _sha256(cwd / "bundle.json")
    pins["train_a"] = _repro(
        cwd, "train", "--job", "A", "--out", "job-a.json", "--cpa-reps", "1",
    )
    pins["train_a"]["bundle_sha256"] = _sha256(cwd / "job-a.json")

    pins["run"] = {
        policy: _repro(cwd, "run", *RUN, "--policy", policy)
        for policy in POLICIES
    }
    (cwd / "chaos.json").write_text(json.dumps(CHAOS_SPEC), encoding="utf-8")
    pins["run_chaos"] = _repro(cwd, "run", *RUN, "--chaos", "chaos.json")

    pins["run_artifacts"] = _repro(
        cwd, "run", *RUN, "--trace-jsonl", "trace.jsonl",
        "--metrics-out", "metrics.json", "--report-out", "report.txt",
    )
    for name in ("trace.jsonl", "metrics.json", "report.txt"):
        pins["run_artifacts"][f"{name}_sha256"] = _sha256(cwd / name)

    pins["predict_score"] = _repro(
        cwd, "predict", "score", *RUN, "--json-out", "predict.json"
    )
    pins["predict_score"]["json"] = (cwd / "predict.json").read_text(
        encoding="utf-8"
    )

    perf = _repro(cwd, "perf", "run", *RUN, "--json-out", "perf.json")
    digest = json.loads((cwd / "perf.json").read_text(encoding="utf-8"))
    pins["perf_run"] = {
        "exit": perf["exit"],
        # Wall-clock lines vary; the headline is virtual time only.
        "headline": perf["stdout"].splitlines()[0],
        "virtual_seconds": digest["virtual_seconds"],
        "met_deadline": digest["met_deadline"],
        "events_dispatched": digest["perf"]["counters"][
            "simkit.events_dispatched"
        ],
        "control_ticks": digest["perf"]["timers"]["control.tick"]["count"],
        "phases": sorted(digest["perf"]["phases"]),
    }
    return pins


def test_cli_outputs_match_pins(tmp_path):
    got = capture(tmp_path)
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], (
            f"pinned CLI output {key!r} moved; if intended, regenerate "
            f"{GOLDEN.name} (see this module's docstring)"
        )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        GOLDEN.write_text(
            json.dumps(capture(scratch), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    print(f"wrote {GOLDEN}")
