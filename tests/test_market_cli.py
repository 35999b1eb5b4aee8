"""CLI coverage for ``repro market run|stats``.

Exit-code contract: malformed market specs and bad synthetic-workload
flags are usage errors (2, a spec with a pointer at the spec format); a
well-formed spec whose jobs reference a
tenant that does not exist is a runtime failure (1) naming the offender;
successful runs and stats exit 0.
"""

import json
import math
import pathlib

import pytest

from repro.cli import main
from repro.market import JobSpec, MarketConfig, MarketError, MarketSpecError, Tenant
from repro.market.spec import market_spec_from_dict

GOLDEN = pathlib.Path(__file__).parent / "golden" / "market_help.txt"


def run_cli(*argv):
    import io

    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def write_spec(tmp_path, payload) -> pathlib.Path:
    spec = tmp_path / "market.json"
    spec.write_text(json.dumps(payload), encoding="utf-8")
    return spec


GOOD_SPEC = {
    "capacity": 40,
    "mode": "pooled",
    "tenants": [
        {"name": "acme", "quota": 20},
        {"name": "rival", "quota": 20},
    ],
    "jobs": [
        {"name": "etl", "tenant": "acme", "work": 6000.0,
         "width": 10, "deadline_seconds": 1800.0},
        {"name": "scan", "tenant": "rival", "work": 3000.0,
         "width": 8, "deadline_seconds": 1200.0,
         "submit_seconds": 60.0},
    ],
}


class TestMarketRun:
    def test_synthetic_run_prints_tenants_and_section(self, tmp_path):
        digest = tmp_path / "digest.json"
        code, text = run_cli(
            "market", "run", "--tenants", "2", "--jobs-per-tenant", "5",
            "--capacity", "40", "--seed", "3",
            "--digest-out", str(digest),
        )
        assert code == 0
        assert "Token market" in text
        assert "t00:" in text and "t01:" in text
        payload = json.loads(digest.read_text(encoding="utf-8"))
        assert payload["submitted"] == 10
        assert [t["name"] for t in payload["tenants"]] == ["t00", "t01"]

    def test_spec_run(self, tmp_path):
        spec = write_spec(tmp_path, GOOD_SPEC)
        code, text = run_cli("market", "run", "--spec", str(spec))
        assert code == 0
        assert "acme" in text and "rival" in text
        assert "2 job(s)" in text

    def test_spec_with_envelope(self, tmp_path):
        spec = write_spec(
            tmp_path, {"format_version": 1, "market": GOOD_SPEC}
        )
        code, _text = run_cli("market", "run", "--spec", str(spec))
        assert code == 0

    def test_malformed_spec_exits_two_with_usage(self, tmp_path):
        spec = write_spec(tmp_path, {"bogus": 1})
        code, text = run_cli("market", "run", "--spec", str(spec))
        assert code == 2
        assert "usage:" in text
        assert "bogus" in text

    def test_retired_tenant_weight_is_named(self, tmp_path):
        """``weight`` was accepted and read by nothing; a spec that still
        sets it fails at the boundary instead of being silently ignored."""
        import pytest

        from repro.market.spec import MarketSpecError, market_spec_from_dict

        payload = dict(GOOD_SPEC)
        payload["tenants"] = [
            {"name": "acme", "quota": 20, "weight": 2.0},
            {"name": "rival", "quota": 20},
        ]
        with pytest.raises(MarketSpecError, match="'weight'"):
            market_spec_from_dict(payload)
        code, text = run_cli(
            "market", "run", "--spec", str(write_spec(tmp_path, payload))
        )
        assert code == 2
        assert "weight" in text

    def test_invalid_json_exits_two(self, tmp_path):
        spec = tmp_path / "market.json"
        spec.write_text("{not json", encoding="utf-8")
        code, text = run_cli("market", "run", "--spec", str(spec))
        assert code == 2
        assert "not valid JSON" in text

    def test_unreadable_spec_exits_two(self, tmp_path):
        code, text = run_cli(
            "market", "run", "--spec", str(tmp_path / "ghost.json")
        )
        assert code == 2
        assert "cannot load market spec" in text

    def test_unknown_tenant_exits_one_naming_offender(self, tmp_path):
        payload = dict(GOOD_SPEC)
        payload["jobs"] = [
            {"name": "orphan", "tenant": "ghost", "work": 100.0,
             "width": 4, "deadline_seconds": 600.0},
        ]
        spec = write_spec(tmp_path, payload)
        code, text = run_cli("market", "run", "--spec", str(spec))
        assert code == 1
        assert "error" in text
        assert "orphan" in text and "ghost" in text

    def test_bad_mode_exits_two(self):
        code, _text = run_cli("market", "run", "--mode", "fractal")
        assert code == 2

    def test_help_matches_golden(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        code, _text = run_cli("market", "--help")
        assert code == 0
        got = capsys.readouterr().out
        assert got == GOLDEN.read_text(encoding="utf-8"), (
            "help text drifted; regenerate tests/golden/market_help.txt "
            "(COLUMNS=80) if the change is intentional"
        )


def job_spec(**overrides):
    fields = dict(name="etl", tenant="acme", work=6000.0, width=10,
                  deadline_seconds=1800.0)
    return JobSpec(**{**fields, **overrides})


def spec_with_job(**overrides):
    payload = json.loads(json.dumps(GOOD_SPEC))
    payload["jobs"][0].update(overrides)
    return payload


class TestInputsRefusedWhereTheyEnter:
    """Each of these used to be accepted and fail later (mid-tick, or as a
    bare ValueError / OverflowError, exit 1) without naming the job or the
    field.  Now each is a ``MarketError`` at construction, and a spec or a
    synthetic-workload flag carrying one exits 2."""

    @pytest.mark.parametrize("work", [math.nan, math.inf, -math.inf])
    def test_non_finite_work(self, work):
        with pytest.raises(MarketError, match=r"job 'etl': work must be positive and finite"):
            job_spec(work=work)

    def test_nan_deadline(self):
        with pytest.raises(MarketError, match="job 'etl': deadline_seconds must be positive"):
            job_spec(deadline_seconds=math.nan)

    def test_nan_submit_time(self):
        with pytest.raises(MarketError, match="job 'etl': submit_seconds must be finite"):
            job_spec(submit_seconds=math.nan)

    def test_fractional_width(self):
        with pytest.raises(MarketError, match="job 'etl': width must be an integer >= 1, got 2.7"):
            job_spec(width=2.7)

    @pytest.mark.parametrize("field", ["slack", "tick_seconds"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_config(self, field, value):
        with pytest.raises(MarketError, match=f"^MarketConfig\\.{field} must be .*finite"):
            MarketConfig(**{field: value})

    @pytest.mark.parametrize("quota", [math.nan, 2.5])
    def test_non_integer_quota(self, quota):
        """A NaN quota compared false against every guarantee, so every
        job was admitted and the quota never enforced."""
        with pytest.raises(
            MarketError,
            match=f"tenant 'acme': quota must be an integer >= 1, got {quota!r}",
        ):
            Tenant(name="acme", quota=quota)

    @pytest.mark.parametrize("capacity", [math.nan, 40.5])
    def test_non_integer_capacity(self, capacity):
        """A NaN capacity used to fail only at the first tick, as a
        negative supply."""
        with pytest.raises(
            MarketError,
            match=f"^MarketConfig\\.capacity must be an integer >= 1, got {capacity!r}"
        ):
            MarketConfig(capacity=capacity)

    def test_nan_work_in_a_spec_exits_two_naming_the_job(self, tmp_path):
        """Used to pass the loader and exit 1 mid-tick with ``cannot
        convert float NaN to integer`` from ``math.ceil``.  The spec
        reader refuses a non-finite number before ``JobSpec`` sees it."""
        spec = tmp_path / "market.json"
        # json.dumps writes NaN as the bare token Python's reader accepts.
        spec.write_text(json.dumps(spec_with_job(work=math.nan)), encoding="utf-8")
        code, text = run_cli("market", "run", "--spec", str(spec))
        assert code == 2
        assert "job 'etl': 'work' must be a finite number, got nan" in text

    @pytest.mark.parametrize("field, value", [
        ("work", "abc"), ("width", "x"), ("width", 2.7),
        ("deadline_seconds", None), ("submit_seconds", True),
    ])
    def test_wrong_job_field_type_is_a_spec_error(self, tmp_path, field, value):
        payload = spec_with_job(**{field: value})
        with pytest.raises(MarketSpecError, match=f"job 'etl': '{field}' must be"):
            market_spec_from_dict(payload)
        code, text = run_cli(
            "market", "run", "--spec", str(write_spec(tmp_path, payload))
        )
        assert code == 2
        assert f"'{field}' must be" in text

    def test_wrong_quota_type_is_a_spec_error(self, tmp_path):
        payload = json.loads(json.dumps(GOOD_SPEC))
        payload["tenants"][0]["quota"] = "x"
        with pytest.raises(MarketSpecError, match="tenant 'acme': 'quota' must be an integer"):
            market_spec_from_dict(payload)
        code, _text = run_cli(
            "market", "run", "--spec", str(write_spec(tmp_path, payload))
        )
        assert code == 2

    def test_wrong_config_type_is_a_spec_error(self):
        payload = dict(GOOD_SPEC, capacity=40.5)
        with pytest.raises(MarketSpecError, match="'capacity' must be an integer, got 40.5"):
            market_spec_from_dict(payload)

    @pytest.mark.parametrize("flag, value", [
        ("--tick-seconds", "nan"), ("--tick-seconds", "inf"),
        ("--quota-scale", "nan"), ("--tenants", "0"),
    ])
    def test_bad_synthetic_flag_exits_two(self, flag, value):
        """``--tick-seconds nan`` used to exit 1 with ``OverflowError:
        high - low range exceeds valid bounds``."""
        code, text = run_cli("market", "run", flag, value)
        assert code == 2
        assert text.startswith("error: bad synthetic-workload flag:")


class TestMarketStats:
    def test_stats_on_run_digest(self, tmp_path):
        digest = tmp_path / "digest.json"
        code, _text = run_cli(
            "market", "run", "--tenants", "2", "--jobs-per-tenant", "4",
            "--capacity", "30", "--digest-out", str(digest),
        )
        assert code == 0
        code, text = run_cli("market", "stats", "--digest", str(digest))
        assert code == 0
        assert "Token market (pooled)" in text
        assert "t00:" in text

    def test_stats_on_sweep_digest(self, tmp_path):
        code, _text = run_cli(
            "experiment", "market", "--scale", "smoke",
            "--results-dir", str(tmp_path),
        )
        assert code == 0
        code, text = run_cli(
            "market", "stats", "--digest", str(tmp_path / "exp_market.json")
        )
        assert code == 0
        assert "market sweep" in text
        assert "pooled" in text and "split" in text

    def test_missing_digest_exits_one(self, tmp_path):
        code, text = run_cli(
            "market", "stats", "--digest", str(tmp_path / "nope.json")
        )
        assert code == 1
        assert "cannot read market digest" in text

    def test_non_market_digest_exits_one(self, tmp_path):
        other = tmp_path / "other.json"
        other.write_text('{"hello": 1}', encoding="utf-8")
        code, text = run_cli("market", "stats", "--digest", str(other))
        assert code == 1
        assert "not a market digest" in text
