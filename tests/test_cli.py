"""Unit tests for the command-line interface."""

import io
import json

import pytest

from repro import __version__
from repro.cli import EXPERIMENTS, build_parser, main
from tests.test_telemetry_report import (
    MALFORMED_EVENTS,
    MALFORMED_TASK_ENDS,
    malformed_events,
    malformed_task_end_events,
)


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train"])

    def test_experiment_validates_id(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])


class TestExitCodes:
    def test_version_exits_zero(self):
        code, _text = run_cli("--version")
        assert code == 0

    def test_version_string_matches_package(self, capsys):
        # argparse's version action prints to real stdout before SystemExit.
        code, _text = run_cli("--version")
        assert code == 0
        assert __version__ in capsys.readouterr().out

    def test_usage_error_exits_two(self):
        code, _text = run_cli("no-such-command")
        assert code == 2

    def test_missing_required_arg_exits_two(self):
        code, _text = run_cli("run", "--deadline-minutes", "10")
        assert code == 2

    def test_no_command_exits_two(self):
        code, _text = run_cli()
        assert code == 2

    def test_runtime_failure_exits_one(self, tmp_path):
        # A corrupt bundle passes argparse but explodes at runtime deeper
        # than cmd_run's targeted handler; the CLI boundary maps it to 1.
        bad = tmp_path / "bad.json"
        bad.write_text('{"graph": 42}')
        code, text = run_cli(
            "run", "--bundle", str(bad), "--deadline-minutes", "10"
        )
        assert code in (1, 2)
        assert "error" in text


    def test_closed_pipe_exits_one_writing_nothing_more(self):
        """``repro ... | head``: once a write hits the closed pipe, the CLI
        returns 1 without writing an error line into the same pipe."""

        class ClosedPipe:
            writes = 0

            def write(self, text):
                self.writes += 1
                raise BrokenPipeError(32, "Broken pipe")

        out = ClosedPipe()
        assert main(["list-experiments"], out=out) == 1
        assert out.writes == 1


class TestListExperiments:
    def test_lists_all(self):
        code, text = run_cli("list-experiments")
        assert code == 0
        for exp_id in EXPERIMENTS:
            assert exp_id in text


class TestTrainAndRun:
    @pytest.fixture(scope="class")
    def bundle(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli") / "bundle.json"
        code, text = run_cli(
            "train", "--job", "mapreduce", "--out", str(path),
            "--cpa-reps", "2", "--seed", "4",
        )
        assert code == 0
        assert "saved bundle" in text
        return path

    def test_unknown_job_rejected(self, tmp_path):
        code, text = run_cli(
            "train", "--job", "Z", "--out", str(tmp_path / "x.json")
        )
        assert code == 2
        assert "unknown job" in text

    @pytest.mark.parametrize("command", [
        ["run"], ["predict", "score"], ["predict", "timeline"], ["perf", "run"],
    ])
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-5"])
    def test_bad_deadline_minutes_exits_two_naming_the_flag(self, bundle,
                                                          command, value):
        code, text = run_cli(*command, "--bundle", str(bundle),
                             "--deadline-minutes", value)
        assert code == 2
        assert text == (f"error: --deadline-minutes must be positive and "
                        f"finite, got {float(value)!r}\n")

    @pytest.mark.parametrize("command", [["run"], ["predict", "score"]])
    @pytest.mark.parametrize("value", ["nan", "inf", "0"])
    def test_bad_runtime_scale_exits_two_naming_the_flag(self, bundle,
                                                       command, value):
        code, text = run_cli(*command, "--bundle", str(bundle),
                             "--deadline-minutes", "60", "--runtime-scale", value)
        assert code == 2
        assert text == (f"error: --runtime-scale must be positive and "
                        f"finite, got {float(value)!r}\n")

    def test_run_meets_generous_deadline(self, bundle):
        code, text = run_cli(
            "run", "--bundle", str(bundle), "--deadline-minutes", "60",
            "--seed", "2",
        )
        assert code == 0
        assert "MET" in text

    def test_run_misses_impossible_deadline(self, bundle):
        code, text = run_cli(
            "run", "--bundle", str(bundle), "--deadline-minutes", "1",
            "--seed", "2",
        )
        assert code == 1
        assert "MISSED" in text

    @pytest.mark.parametrize(
        "policy", ["jockey-online-model", "jockey-no-adapt", "jockey-no-sim",
                   "max-allocation"],
    )
    def test_all_policies_run(self, bundle, policy):
        code, text = run_cli(
            "run", "--bundle", str(bundle), "--deadline-minutes", "60",
            "--policy", policy, "--seed", "2",
        )
        assert code in (0, 1)
        assert "finished in" in text

    def test_run_writes_chrome_trace_and_metrics(self, bundle, tmp_path):
        trace_path = tmp_path / "trace.json"
        jsonl_path = tmp_path / "trace.jsonl"
        metrics_path = tmp_path / "metrics.json"
        code, text = run_cli(
            "run", "--bundle", str(bundle), "--deadline-minutes", "60",
            "--seed", "2",
            "--trace-out", str(trace_path),
            "--trace-jsonl", str(jsonl_path),
            "--metrics-out", str(metrics_path),
        )
        assert code == 0
        assert "wrote" in text

        # Chrome trace: loadable JSON with at least one event per task
        # state transition (queued/start/end), spans for completed tasks.
        doc = json.loads(trace_path.read_text())
        names = [e.get("name", "") for e in doc["traceEvents"]]
        assert any(n == "task.queued" for n in names)
        assert any(n == "task.start" for n in names)
        assert any(n == "task.end" for n in names)
        assert any(e.get("ph") == "X" for e in doc["traceEvents"])

        # JSONL: one JSON object per line, same kinds.
        kinds = {
            json.loads(line)["kind"]
            for line in jsonl_path.read_text().splitlines()
        }
        assert {"task.queued", "task.start", "task.end"} <= kinds

        # Metrics snapshot: instruments from multiple layers.
        snap = json.loads(metrics_path.read_text())
        assert snap["repro_runtime_tasks_total"]["values"]['outcome="ok"'] > 0
        assert "repro_simkit_events_dispatched" in snap
        assert "repro_cluster_recomputes_total" in snap

    def test_trace_summarize(self, bundle, tmp_path):
        trace_path = tmp_path / "trace.json"
        code, _text = run_cli(
            "run", "--bundle", str(bundle), "--deadline-minutes", "60",
            "--seed", "2", "--trace-out", str(trace_path),
        )
        assert code == 0
        code, text = run_cli("trace", "summarize", str(trace_path))
        assert code == 0
        assert "task.end" in text

    def test_trace_summarize_missing_file(self, tmp_path):
        code, text = run_cli("trace", "summarize", str(tmp_path / "nope.json"))
        assert code == 1
        assert "cannot read" in text

    def test_run_without_trace_flags_installs_no_recorder(self, bundle):
        from repro.telemetry import trace as telemetry_trace

        code, _text = run_cli(
            "run", "--bundle", str(bundle), "--deadline-minutes", "60",
            "--seed", "2",
        )
        assert code == 0
        assert telemetry_trace.RECORDER is telemetry_trace.NULL

    def test_run_with_missing_bundle(self, tmp_path):
        code, text = run_cli(
            "run", "--bundle", str(tmp_path / "nope.json"),
            "--deadline-minutes", "10",
        )
        assert code == 2
        assert "cannot load" in text


class TestExperimentCommand:
    def test_runs_fig1_smoke(self):
        code, text = run_cli("experiment", "fig1", "--scale", "smoke")
        assert code == 0
        assert "fig1" in text

    def test_runs_table2_smoke(self):
        code, text = run_cli("experiment", "table2", "--scale", "smoke")
        assert code == 0
        assert "table2" in text


class TestObservatory:
    """The report command, --report-out, --metrics-out, and the
    empty-trace guard."""

    @pytest.fixture(scope="class")
    def bundle(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-obs") / "bundle.json"
        code, _text = run_cli(
            "train", "--job", "mapreduce", "--out", str(path),
            "--cpa-reps", "2", "--seed", "4",
        )
        assert code == 0
        return path

    def test_run_writes_html_report(self, bundle, tmp_path):
        report_path = tmp_path / "run.html"
        code, text = run_cli(
            "run", "--bundle", str(bundle), "--deadline-minutes", "60",
            "--seed", "2", "--report-out", str(report_path),
        )
        assert code == 0
        assert "wrote html report" in text
        html = report_path.read_text(encoding="utf-8")
        assert html.startswith("<!DOCTYPE html>")
        # Self-contained: no scripts, no external fetches.
        assert "<script" not in html.lower()
        assert " src=" not in html
        assert "href=" not in html

    def test_metrics_out_is_sorted(self, bundle, tmp_path):
        metrics_path = tmp_path / "metrics.json"
        code, _text = run_cli(
            "run", "--bundle", str(bundle), "--deadline-minutes", "60",
            "--seed", "2", "--metrics-out", str(metrics_path),
        )
        assert code == 0
        names = list(json.loads(metrics_path.read_text()))
        assert names == sorted(names)

    def test_report_command_text_and_html(self, bundle, tmp_path):
        jsonl = tmp_path / "run.jsonl"
        code, _text = run_cli(
            "run", "--bundle", str(bundle), "--deadline-minutes", "60",
            "--seed", "2", "--trace-jsonl", str(jsonl),
        )
        assert code == 0

        code, text = run_cli("report", str(jsonl), "--bundle", str(bundle))
        assert code == 0
        assert "MET" in text or "MISSED" in text

        out = tmp_path / "report.html"
        code, text = run_cli(
            "report", str(jsonl), "--bundle", str(bundle), "--out", str(out)
        )
        assert code == 0
        assert out.read_text(encoding="utf-8").startswith("<!DOCTYPE html>")

    def test_report_refuses_a_bad_slack(self, bundle, tmp_path):
        jsonl = tmp_path / "run.jsonl"
        code, _text = run_cli(
            "run", "--bundle", str(bundle), "--deadline-minutes", "60",
            "--seed", "2", "--trace-jsonl", str(jsonl),
        )
        assert code == 0
        for slack in ("0", "nan", "inf"):
            code, text = run_cli("report", str(jsonl), "--slack", slack)
            assert code == 1, slack
            assert text.startswith("error: slack must be positive and finite")

    @pytest.mark.parametrize("change, error, why", MALFORMED_TASK_ENDS)
    def test_report_names_a_malformed_task_end(self, change, error, why, tmp_path):
        from repro.telemetry.export import ExportError, write_jsonl

        jsonl = tmp_path / "run.jsonl"
        write_jsonl(malformed_task_end_events(change), str(jsonl))
        code, text = run_cli("report", str(jsonl))
        assert code == 1
        prefix = "error: cannot read trace: " if error is ExportError else "error: "
        assert text == f"{prefix}{why}\n"

    @pytest.mark.parametrize("which, change, why", MALFORMED_EVENTS)
    def test_report_names_a_malformed_event(self, which, change, why, tmp_path):
        from repro.telemetry.export import write_jsonl

        jsonl = tmp_path / "run.jsonl"
        write_jsonl(malformed_events(which, change), str(jsonl))
        code, text = run_cli("report", str(jsonl))
        assert code == 1
        assert text == f"error: cannot read trace: {why}\n"

    def test_report_missing_file(self, tmp_path):
        code, text = run_cli("report", str(tmp_path / "nope.jsonl"))
        assert code == 1
        assert "cannot read" in text

    def test_empty_trace_rejected_with_guidance(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code, text = run_cli("trace", "summarize", str(empty))
        assert code == 1
        assert "no trace events" in text
        assert "truncated" in text

        code, text = run_cli("report", str(empty))
        assert code == 1
        assert "no trace events" in text


class TestChaos:
    """The --chaos flag: spec loading, error paths, the summary line,
    and the golden help text."""

    @pytest.fixture(scope="class")
    def bundle(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("chaos_cli") / "bundle.json"
        code, _text = run_cli(
            "train", "--job", "mapreduce", "--out", str(path),
            "--cpa-reps", "2", "--seed", "4",
        )
        assert code == 0
        return path

    def _write_spec(self, tmp_path, payload):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path

    def test_malformed_json_exits_two_with_usage(self, bundle, tmp_path):
        spec = tmp_path / "bad.json"
        spec.write_text("{not json", encoding="utf-8")
        code, text = run_cli(
            "run", "--bundle", str(bundle), "--deadline-minutes", "60",
            "--chaos", str(spec),
        )
        assert code == 2
        assert "cannot load chaos spec" in text
        assert "usage: repro run --chaos SPEC.json" in text
        assert "EXPERIMENTS.md" in text

    def test_unknown_field_exits_two(self, bundle, tmp_path):
        spec = self._write_spec(tmp_path, {"name": "x", "bogus_field": 1})
        code, text = run_cli(
            "run", "--bundle", str(bundle), "--deadline-minutes", "60",
            "--chaos", str(spec),
        )
        assert code == 2
        assert "cannot load chaos spec" in text

    def test_missing_spec_file_exits_two(self, bundle, tmp_path):
        code, text = run_cli(
            "run", "--bundle", str(bundle), "--deadline-minutes", "60",
            "--chaos", str(tmp_path / "nope.json"),
        )
        assert code == 2
        assert "cannot load chaos spec" in text

    def test_unknown_machine_exits_one_named(self, bundle, tmp_path):
        # Valid JSON, valid schema — but machine 5000 does not exist in a
        # 100-machine cluster. That is a runtime failure, not a usage one.
        spec = self._write_spec(tmp_path, {
            "name": "bad-machine",
            "rack_failures": [{"at": 10.0, "machines": [5000]}],
        })
        code, text = run_cli(
            "run", "--bundle", str(bundle), "--deadline-minutes", "60",
            "--chaos", str(spec),
        )
        assert code == 1
        assert "ChaosError" in text
        assert "5000" in text

    def test_unknown_stage_exits_one_named(self, bundle, tmp_path):
        spec = self._write_spec(tmp_path, {
            "name": "bad-stage",
            "profile_drifts": [{"at": 10.0, "stages": ["no-such-stage"]}],
        })
        code, text = run_cli(
            "run", "--bundle", str(bundle), "--deadline-minutes", "60",
            "--chaos", str(spec),
        )
        assert code == 1
        assert "ChaosError" in text
        assert "no-such-stage" in text

    def test_run_with_chaos_prints_summary_line(self, bundle, tmp_path):
        spec = self._write_spec(tmp_path, {
            "name": "storm",
            "rack_failures": [{"at": 60.0, "count": 3,
                               "repair_seconds": 300.0}],
            "control_faults": {"drop_tick_prob": 0.2,
                               "blackouts": [[100.0, 600.0]]},
        })
        code, text = run_cli(
            "run", "--bundle", str(bundle), "--deadline-minutes", "60",
            "--seed", "2", "--chaos", str(spec),
        )
        assert code in (0, 1)
        assert "chaos 'storm'" in text
        assert "machines failed" in text

    def test_chaos_section_lands_in_report(self, bundle, tmp_path):
        spec = self._write_spec(tmp_path, {
            "name": "storm",
            "rack_failures": [{"at": 60.0, "count": 3}],
        })
        report = tmp_path / "report.html"
        code, _text = run_cli(
            "run", "--bundle", str(bundle), "--deadline-minutes", "60",
            "--seed", "2", "--chaos", str(spec),
            "--report-out", str(report),
        )
        assert code in (0, 1)
        html = report.read_text(encoding="utf-8")
        assert "Chaos injection" in html
        assert "machines failed" in html

    def test_run_help_matches_golden(self, monkeypatch, capsys):
        import pathlib

        monkeypatch.setenv("COLUMNS", "80")
        code, _text = run_cli("run", "--help")
        assert code == 0
        got = capsys.readouterr().out
        golden = pathlib.Path(__file__).parent / "golden" / "run_help.txt"
        assert got == golden.read_text(encoding="utf-8"), (
            "help text drifted; regenerate tests/golden/run_help.txt "
            "(COLUMNS=80) if the change is intentional"
        )


class TestFleet:
    def test_run_writes_digest_and_store(self, tmp_path):
        store = tmp_path / "store"
        digest = tmp_path / "digest.json"
        code, text = run_cli(
            "fleet", "run", "--templates", "A", "--days", "1",
            "--store", str(store), "--digest-out", str(digest),
        )
        assert code == 0
        assert "attainment" in text
        assert f"profile store: {store}" in text
        payload = json.loads(digest.read_text(encoding="utf-8"))
        summary = payload["summaries"][0]
        assert summary["template"] == "A"
        assert f"({summary['prediction_verdict']} at n=1)" in text
        assert summary["prediction_runs"] == 1
        assert len(payload["runs"]) == 1
        # Bootstrap + day 0 landed in the store.
        assert len(list((store / "A").glob("gen-*.json"))) == 2

    def test_report_out_has_fleet_section(self, tmp_path):
        report = tmp_path / "fleet.html"
        code, text = run_cli(
            "fleet", "run", "--templates", "A", "--days", "1",
            "--report-out", str(report),
        )
        assert code == 0
        assert "wrote html report" in text
        html = report.read_text(encoding="utf-8")
        assert "fleet: A (ewma)" in html
        assert "SLO attainment" in html

    def test_stats_renders_lineages(self, tmp_path):
        store = tmp_path / "store"
        run_cli(
            "fleet", "run", "--templates", "A", "--days", "1",
            "--store", str(store),
        )
        code, text = run_cli("fleet", "stats", "--store", str(store))
        assert code == 0
        assert "templates: 1" in text
        assert "latest gen-000001" in text

    def test_unknown_job_exits_one_naming_offender(self):
        code, text = run_cli("fleet", "run", "--templates", "ZZZ", "--days", "1")
        assert code == 1
        assert "error" in text
        assert "ZZZ" in text

    def test_malformed_spec_exits_two_with_usage(self, tmp_path):
        spec = tmp_path / "fleet.json"
        spec.write_text('{"bogus": 1}', encoding="utf-8")
        code, text = run_cli("fleet", "run", "--spec", str(spec))
        assert code == 2
        assert "usage:" in text
        assert "bogus" in text

    def test_unreadable_spec_exits_two(self, tmp_path):
        code, text = run_cli(
            "fleet", "run", "--spec", str(tmp_path / "ghost.json")
        )
        assert code == 2
        assert "cannot load fleet spec" in text

    def test_bad_mode_exits_two(self):
        code, _text = run_cli(
            "fleet", "run", "--mode", "clairvoyant", "--days", "1"
        )
        assert code == 2

    def test_window_mode_is_refused_by_name(self, tmp_path, capsys):
        code, _text = run_cli("fleet", "run", "--mode", "window", "--days", "1")
        assert code == 2 and "invalid choice: 'window'" in capsys.readouterr().err
        spec = tmp_path / "fleet.json"
        spec.write_text('{"mode": "window"}', encoding="utf-8")
        code, text = run_cli("fleet", "run", "--spec", str(spec))
        assert code == 2 and "unknown model mode 'window'" in text

    def test_empty_templates_exits_two(self):
        code, text = run_cli("fleet", "run", "--templates", ",", "--days", "1")
        assert code == 2
        assert "at least one" in text

    def test_fleet_help_matches_golden(self, monkeypatch, capsys):
        import pathlib

        monkeypatch.setenv("COLUMNS", "80")
        code, _text = run_cli("fleet", "run", "--help")
        assert code == 0
        got = capsys.readouterr().out
        golden = pathlib.Path(__file__).parent / "golden" / "fleet_help.txt"
        assert got == golden.read_text(encoding="utf-8"), (
            "help text drifted; regenerate tests/golden/fleet_help.txt "
            "(COLUMNS=80) if the change is intentional"
        )


class TestPredict:
    @pytest.fixture(scope="class")
    def bundle(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("predict") / "bundle.json"
        code, text = run_cli(
            "train", "--job", "mapreduce", "--out", str(path),
            "--cpa-reps", "2", "--seed", "4",
        )
        assert code == 0
        return path

    def test_timeline_prints_bands_and_hit_column(self, bundle):
        code, text = run_cli(
            "predict", "timeline", "--bundle", str(bundle),
            "--deadline-minutes", "60", "--seed", "2",
        )
        assert code == 0
        assert "hit90" in text
        assert "p80 band [min]" in text
        assert "interval tick(s)" in text

    def test_score_prints_reliability_table_and_verdict(self, bundle):
        code, text = run_cli(
            "predict", "score", "--bundle", str(bundle),
            "--deadline-minutes", "60", "--seed", "2",
        )
        assert code == 0
        assert "empirical" in text
        assert "verdict:" in text
        assert "pinball" in text

    def test_score_json_digest(self, bundle, tmp_path):
        digest = tmp_path / "score.json"
        code, text = run_cli(
            "predict", "score", "--bundle", str(bundle),
            "--deadline-minutes", "60", "--seed", "2",
            "--json-out", str(digest),
        )
        assert code == 0
        assert f"wrote prediction digest to {digest}" in text
        payload = json.loads(digest.read_text(encoding="utf-8"))
        assert payload["kind"] == "predict_score"
        assert payload["schema_version"] == 2
        levels = {lv["level"] for lv in payload["calibration"]["levels"]}
        assert levels == {0.5, 0.8, 0.9, 0.95}
        readings = (
            "honest", "overconfident", "conservative", "unresolved", "no-data"
        )
        assert payload["calibration"]["verdict"] in readings
        assert "tolerance" not in payload["calibration"]
        for lv in payload["calibration"]["levels"]:
            assert lv["verdict"] in readings
            assert lv["runs"] == 1 and lv["runs_covered"] in (0, 1)
            assert 0.0 <= lv["low"] <= lv["high"] <= 1.0
        assert all("verdict" not in p for p in payload["rolling"])

    def test_digest_identical_across_worker_counts(self, bundle, tmp_path,
                                                   monkeypatch):
        # The prediction digest must not depend on parallelism settings.
        digests = []
        for jobs in ("1", "2"):
            monkeypatch.setenv("REPRO_JOBS", jobs)
            path = tmp_path / f"score-{jobs}.json"
            code, _text = run_cli(
                "predict", "score", "--bundle", str(bundle),
                "--deadline-minutes", "60", "--seed", "2",
                "--json-out", str(path),
            )
            assert code == 0
            digests.append(path.read_bytes())
        assert digests[0] == digests[1]

    def test_policy_without_distribution_exits_one(self, bundle):
        code, text = run_cli(
            "predict", "score", "--bundle", str(bundle),
            "--deadline-minutes", "60", "--policy", "max-allocation",
        )
        assert code == 1
        assert "no prediction intervals recorded" in text

    def test_unreadable_bundle_exits_two(self, tmp_path):
        code, text = run_cli(
            "predict", "timeline", "--bundle", str(tmp_path / "ghost.json"),
            "--deadline-minutes", "60",
        )
        assert code == 2
        assert "cannot load bundle" in text

    def test_missing_subcommand_exits_two(self):
        code, _text = run_cli("predict")
        assert code == 2

    def test_predict_help_matches_golden(self, monkeypatch, capsys):
        import pathlib

        monkeypatch.setenv("COLUMNS", "80")
        code, _text = run_cli("predict", "score", "--help")
        assert code == 0
        got = capsys.readouterr().out
        golden = pathlib.Path(__file__).parent / "golden" / "predict_help.txt"
        assert got == golden.read_text(encoding="utf-8"), (
            "help text drifted; regenerate tests/golden/predict_help.txt "
            "(COLUMNS=80) if the change is intentional"
        )


def _break_bundle(good, how):
    """A copy of a good bundle payload, broken one way."""
    import copy

    bad = copy.deepcopy(good)
    if how == "non-object":
        return [1, 2]
    if how == "missing-graph":
        del bad["graph"]
    elif how == "missing-profile":
        del bad["profile"]
    elif how == "bad-table-column":
        bad["table"]["columns"][str(bad["table"]["allocations"][0])] = "abc"
    elif how == "wrong-version":
        bad["format_version"] = 99
    return bad


class TestMalformedBundle:
    """Every command that reads a bundle refuses a malformed one at the
    boundary: exit 2, ``cannot load bundle``, the offending field named."""

    NAMES = {
        "non-object": "bundle must be an object, got list",
        "missing-graph": "'graph'",
        "missing-profile": "'profile'",
        "bad-table-column": "table: 'columns.",
        "wrong-version": "version 99",
    }

    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("malformed")
        bundle, trace = root / "bundle.json", root / "trace.jsonl"
        code, _text = run_cli(
            "train", "--job", "mapreduce", "--out", str(bundle),
            "--cpa-reps", "2", "--seed", "4",
        )
        assert code == 0
        code, _text = run_cli(
            "run", "--bundle", str(bundle), "--deadline-minutes", "60",
            "--trace-jsonl", str(trace),
        )
        assert code == 0
        return json.loads(bundle.read_text(encoding="utf-8")), trace

    @pytest.mark.parametrize("how", sorted(NAMES))
    @pytest.mark.parametrize("command", ["run", "predict", "perf", "report"])
    def test_exits_two_naming_the_field(self, artifacts, tmp_path, command, how):
        good, trace = artifacts
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(_break_bundle(good, how)), encoding="utf-8")
        argv = {
            "run": ["run", "--deadline-minutes", "60"],
            "predict": ["predict", "score", "--deadline-minutes", "60"],
            "perf": ["perf", "run", "--deadline-minutes", "60"],
            "report": ["report", str(trace)],
        }[command]
        code, text = run_cli(*argv, "--bundle", str(bad))
        assert code == 2, text
        assert "error: cannot load bundle: " in text
        assert self.NAMES[how] in text

    def test_truncated_file_exits_two(self, artifacts, tmp_path):
        good, _trace = artifacts
        bad = tmp_path / "cut.json"
        bad.write_text(json.dumps(good)[:200], encoding="utf-8")
        code, text = run_cli(
            "run", "--bundle", str(bad), "--deadline-minutes", "60"
        )
        assert code == 2
        assert "cannot load bundle: not valid JSON" in text

    def test_table_less_bundle_names_the_policies_that_run(self, artifacts,
                                                           tmp_path):
        good, _trace = artifacts
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(dict(good, table=None)), encoding="utf-8")
        code, text = run_cli(
            "run", "--bundle", str(bare), "--deadline-minutes", "60"
        )
        assert code == 2
        assert "needs a C(p, a) table" in text
        assert "jockey-no-sim or max-allocation" in text
        code, text = run_cli(
            "run", "--bundle", str(bare), "--deadline-minutes", "60",
            "--policy", "jockey-no-sim",
        )
        assert code in (0, 1)
        assert "finished in" in text

    @pytest.mark.parametrize("command", ["run", "predict timeline", "serve"])
    def test_malformed_chaos_spec_prints_the_usage_hint(self, artifacts,
                                                        tmp_path, command):
        good, _trace = artifacts
        bundle = tmp_path / "bundle.json"
        bundle.write_text(json.dumps(good), encoding="utf-8")
        spec = tmp_path / "chaos.json"
        spec.write_text("{not json", encoding="utf-8")
        argv = command.split()
        if command != "serve":
            argv += ["--bundle", str(bundle), "--deadline-minutes", "60"]
        code, text = run_cli(*argv, "--chaos", str(spec))
        assert code == 2
        assert "cannot load chaos spec" in text
        assert f"usage: repro {command} --chaos SPEC.json" in text
        assert "EXPERIMENTS.md" in text
