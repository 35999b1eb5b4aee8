"""CLI tests for the performance observatory (`repro perf ...`), plus the
determinism contract: perf collection must never change simulation
results."""

import json
import pathlib
import re

import pytest

from tests.test_cli import run_cli


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    path = tmp_path_factory.mktemp("perf_cli") / "bundle.json"
    code, text = run_cli(
        "train", "--job", "mapreduce", "--out", str(path),
        "--cpa-reps", "2", "--seed", "4",
    )
    assert code == 0
    assert "saved bundle" in text
    return path


class TestPerfRun:
    def test_breakdown_sums_to_at_least_ninety_percent_of_wall(self, bundle):
        code, text = run_cli(
            "perf", "run", "--bundle", str(bundle),
            "--deadline-minutes", "60", "--seed", "2",
        )
        assert code == 0
        assert "MET" in text
        assert "phase breakdown" in text
        for phase in ("load", "simulate", "report"):
            assert phase in text
        match = re.search(
            r"top-level phases sum to [^=]+= ([0-9.]+)% of wall", text
        )
        assert match, f"no coverage line in output:\n{text}"
        assert float(match.group(1)) >= 90.0, (
            "instrumented phases cover too little of the measured wall "
            f"time:\n{text}"
        )
        assert "events/sec over the simulate phase" in text

    def test_missed_deadline_exits_one(self, bundle):
        code, text = run_cli(
            "perf", "run", "--bundle", str(bundle),
            "--deadline-minutes", "1", "--seed", "2",
        )
        assert code == 1
        assert "MISSED" in text

    def test_json_out_digest_is_schema_stamped(self, bundle, tmp_path):
        digest_path = tmp_path / "perf.json"
        code, _text = run_cli(
            "perf", "run", "--bundle", str(bundle),
            "--deadline-minutes", "60", "--seed", "2",
            "--json-out", str(digest_path),
        )
        assert code == 0
        doc = json.loads(digest_path.read_text())
        assert doc["kind"] == "perf_run"
        assert doc["schema_version"] >= 2
        assert set(doc["host"]) == {"cpu_count", "python", "platform"}
        assert doc["met_deadline"] is True
        assert doc["events_per_sec"] > 0
        phases = doc["perf"]["phases"]
        assert {"load", "simulate", "report"} <= set(phases)
        assert doc["perf"]["counters"]["simkit.events_dispatched"] > 0
        assert {"simkit.run", "control.tick", "control.cpa_query"} <= set(
            doc["perf"]["timers"]
        )

    def test_profile_out_writes_collapsed_stacks(self, bundle, tmp_path):
        folded = tmp_path / "run.folded"
        code, text = run_cli(
            "perf", "run", "--bundle", str(bundle),
            "--deadline-minutes", "60", "--seed", "2",
            "--profile-out", str(folded), "--profile-top", "5",
        )
        assert code == 0
        assert "wrote collapsed stacks" in text
        assert "cumtime" in text  # --profile-top summary table
        lines = folded.read_text().splitlines()
        assert lines
        assert all(line.rsplit(" ", 1)[1].isdigit() for line in lines)
        assert any(";" in line for line in lines), "no caller;callee edges"

    def test_report_out_gains_performance_section(self, bundle, tmp_path):
        report = tmp_path / "report.html"
        code, text = run_cli(
            "perf", "run", "--bundle", str(bundle),
            "--deadline-minutes", "60", "--seed", "2",
            "--report-out", str(report),
        )
        assert code == 0
        assert "wrote" in text
        html = report.read_text(encoding="utf-8")
        assert "Performance" in html
        assert "events/sec (simulate)" in html
        assert "phase simulate [s]" in html


class TestPerfReport:
    def test_renders_perf_run_digest(self, bundle, tmp_path):
        digest_path = tmp_path / "perf.json"
        code, _text = run_cli(
            "perf", "run", "--bundle", str(bundle),
            "--deadline-minutes", "60", "--seed", "2",
            "--json-out", str(digest_path),
        )
        assert code == 0
        code, text = run_cli("perf", "report", str(digest_path))
        assert code == 0
        assert "perf run digest" in text
        assert "phase breakdown" in text

    def test_non_perf_run_digest_exits_one(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"benchmark": "cpa_build", "speedup": 3.1}')
        code, text = run_cli("perf", "report", str(path))
        assert code == 1
        assert text == (
            f"error: {path} is not a perf run digest "
            "(kind=None, benchmark='cpa_build')\n"
        )

    def test_missing_digest_exits_one(self, tmp_path):
        code, text = run_cli("perf", "report", str(tmp_path / "nope.json"))
        assert code == 1
        assert "error" in text

    def test_corrupt_digest_exits_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json{")
        code, text = run_cli("perf", "report", str(bad))
        assert code == 1
        assert "error" in text


class TestPerfUsageErrors:
    def test_perf_without_subcommand_exits_two(self):
        code, _text = run_cli("perf")
        assert code == 2

    def test_perf_run_without_bundle_exits_two(self):
        code, _text = run_cli("perf", "run", "--deadline-minutes", "10")
        assert code == 2

    def test_perf_run_with_missing_bundle_exits_two(self, tmp_path):
        code, text = run_cli(
            "perf", "run", "--bundle", str(tmp_path / "nope.json"),
            "--deadline-minutes", "10",
        )
        assert code == 2
        assert "cannot load" in text

    def test_perf_run_help_matches_golden(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        code, _text = run_cli("perf", "run", "--help")
        assert code == 0
        got = capsys.readouterr().out
        golden = pathlib.Path(__file__).parent / "golden" / "perf_help.txt"
        assert got == golden.read_text(encoding="utf-8"), (
            "help text drifted; regenerate tests/golden/perf_help.txt "
            "(COLUMNS=80) if the change is intentional"
        )


class TestDeterminismContract:
    """Installing a perf collector must not perturb a simulation: the CLI
    run's trace and metrics files must come out byte-identical."""

    def _run_with_outputs(self, bundle, outdir):
        jsonl = outdir / "trace.jsonl"
        metrics = outdir / "metrics.json"
        code, _text = run_cli(
            "run", "--bundle", str(bundle), "--deadline-minutes", "60",
            "--seed", "2",
            "--trace-jsonl", str(jsonl), "--metrics-out", str(metrics),
        )
        assert code == 0
        return jsonl.read_bytes(), metrics.read_bytes()

    def test_runs_byte_identical_with_and_without_collector(
        self, bundle, tmp_path
    ):
        from repro.perf import instrument

        off_dir = tmp_path / "off"
        on_dir = tmp_path / "on"
        off_dir.mkdir()
        on_dir.mkdir()

        off_trace, off_metrics = self._run_with_outputs(bundle, off_dir)
        with instrument.collecting() as perf:
            on_trace, on_metrics = self._run_with_outputs(bundle, on_dir)

        assert off_trace == on_trace, (
            "perf collection changed the simulation trace"
        )
        assert off_metrics == on_metrics, (
            "perf collection changed the metrics snapshot"
        )
        # ...and the collector really was live during the second run.
        snap = perf.snapshot()
        assert snap["counters"].get("simkit.events_dispatched", 0) > 0

    def test_perf_run_matches_plain_run_verdict(self, bundle):
        code_plain, text_plain = run_cli(
            "run", "--bundle", str(bundle), "--deadline-minutes", "60",
            "--seed", "7",
        )
        code_perf, text_perf = run_cli(
            "perf", "run", "--bundle", str(bundle),
            "--deadline-minutes", "60", "--seed", "7",
        )
        assert code_plain == code_perf
        pattern = r"finished in ([0-9.]+) (?:virtual )?min"
        plain_min = re.search(pattern, text_plain)
        perf_min = re.search(pattern, text_perf)
        assert plain_min and perf_min
        assert plain_min.group(1) == perf_min.group(1), (
            "perf run diverged from plain run on the same seed"
        )
