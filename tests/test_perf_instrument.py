"""Unit tests for the perf collector (repro.perf.instrument)."""

import pytest

from repro.perf import instrument
from repro.perf.instrument import (
    NULL,
    NullCollector,
    PerfCollector,
    PerfError,
    collecting,
    install,
    render_snapshot,
)


class TestPhases:
    def test_nested_phases_record_slash_paths(self):
        perf = PerfCollector()
        with perf.phase("run"):
            with perf.phase("simulate"):
                pass
            with perf.phase("report"):
                pass
        phases = perf.snapshot()["phases"]
        assert set(phases) == {"run", "run/simulate", "run/report"}
        assert phases["run"]["count"] == 1
        assert phases["run"]["seconds"] >= (
            phases["run/simulate"]["seconds"] + phases["run/report"]["seconds"]
        )

    def test_reentering_same_phase_accumulates(self):
        perf = PerfCollector()
        for _ in range(3):
            with perf.phase("tick"):
                pass
        info = perf.snapshot()["phases"]["tick"]
        assert info["count"] == 3
        assert info["seconds"] >= 0.0

    def test_top_level_phases_excludes_nested(self):
        perf = PerfCollector()
        with perf.phase("load"):
            pass
        with perf.phase("run"):
            with perf.phase("inner"):
                pass
        phases = perf.snapshot()["phases"]
        assert list(phases) == ["load", "run", "run/inner"]
        assert [name for name in phases if "/" not in name] == ["load", "run"]

    def test_phase_rejects_empty_and_slashed_names(self):
        perf = PerfCollector()
        with pytest.raises(PerfError):
            perf.phase("")
        with pytest.raises(PerfError):
            perf.phase("a/b")

    def test_mismatched_exit_raises(self):
        perf = PerfCollector()
        outer = perf.phase("outer")
        inner = perf.phase("inner")
        outer.__enter__()
        inner.__enter__()
        with pytest.raises(PerfError):
            outer.__exit__(None, None, None)

    def test_phase_closes_on_exception(self):
        perf = PerfCollector()
        with pytest.raises(RuntimeError):
            with perf.phase("doomed"):
                raise RuntimeError("boom")
        assert perf.snapshot()["phases"]["doomed"]["count"] == 1
        # The stack unwound: a new top-level phase is top-level again.
        with perf.phase("next"):
            pass
        assert "next" in perf.snapshot()["phases"]


class TestScalars:
    def test_counters_accumulate(self):
        perf = PerfCollector()
        perf.count("events")
        perf.count("events", 9.0)
        assert perf.snapshot()["counters"]["events"] == 10.0

    def test_maxima_keep_high_water_mark(self):
        perf = PerfCollector()
        for value in (3, 11, 7):
            perf.maximum("heap", value)
        assert perf.snapshot()["maxima"]["heap"] == 11

    def test_timer_percentiles_and_extremes(self):
        perf = PerfCollector()
        for ms in range(1, 101):  # 1ms .. 100ms
            perf.record("lat", ms / 1000.0)
        t = perf.snapshot()["timers"]["lat"]
        assert t["count"] == 100
        assert t["min_seconds"] == pytest.approx(0.001)
        assert t["max_seconds"] == pytest.approx(0.100)
        assert t["p50_seconds"] == pytest.approx(0.050)
        assert t["p95_seconds"] == pytest.approx(0.095)
        assert t["sum_seconds"] == pytest.approx(sum(range(1, 101)) / 1000.0)

    def test_timer_reservoir_bounds_samples_not_stats(self, monkeypatch):
        monkeypatch.setattr(instrument, "TIMER_RESERVOIR", 8)
        perf = PerfCollector()
        for i in range(100):
            perf.record("lat", float(i))
        t = perf.snapshot()["timers"]["lat"]
        assert t["count"] == 100           # exact even past the reservoir
        assert t["max_seconds"] == 99.0    # extremes exact too
        assert t["p95_seconds"] <= 7.0     # percentiles from first 8 samples

    def test_snapshot_keys_sorted(self):
        perf = PerfCollector()
        for name in ("zeta", "alpha", "mid"):
            perf.count(name)
            perf.record(name, 0.001)
        snap = perf.snapshot()
        assert list(snap["counters"]) == sorted(snap["counters"])
        assert list(snap["timers"]) == sorted(snap["timers"])


class TestInstallAndNull:
    def test_default_collector_is_shared_null(self):
        assert instrument.COLLECTOR is NULL
        assert NULL.enabled is False

    def test_null_collector_is_total_noop(self):
        null = NullCollector()
        with null.phase("anything"):
            null.count("x")
            null.maximum("x", 5)
            null.record("x", 0.1)
        assert null.snapshot() == {
            "phases": {}, "timers": {}, "counters": {}, "maxima": {}
        }

    def test_install_returns_previous_and_none_disables(self):
        perf = PerfCollector()
        previous = install(perf)
        try:
            assert previous is NULL
            assert instrument.COLLECTOR is perf
        finally:
            assert install(None) is perf
        assert instrument.COLLECTOR is NULL

    def test_collecting_restores_on_exception(self):
        with pytest.raises(ValueError):
            with collecting() as perf:
                assert instrument.COLLECTOR is perf
                raise ValueError("boom")
        assert instrument.COLLECTOR is NULL

    def test_collecting_accepts_existing_collector(self):
        perf = PerfCollector()
        with collecting(perf) as active:
            assert active is perf
            instrument.COLLECTOR.count("hit")
        assert perf.snapshot()["counters"]["hit"] == 1.0


class TestRendering:
    def test_render_empty_snapshot(self):
        assert render_snapshot(NULL.snapshot()) == "perf: nothing collected\n"

    def test_render_includes_percentages_and_sum_line(self):
        perf = PerfCollector()
        with perf.phase("simulate"):
            pass
        perf.count("events", 42)
        perf.maximum("heap", 7)
        perf.record("tick", 0.002)
        text = render_snapshot(perf.snapshot(), wall_seconds=1.0)
        assert "phase breakdown (total wall 1.000s):" in text
        assert "simulate" in text
        assert "% of wall)" in text
        assert "timers:" in text and "tick" in text
        assert "counters:" in text and "events" in text
        assert "maxima:" in text and "heap" in text

    def test_render_without_wall_omits_percentages(self):
        perf = PerfCollector()
        with perf.phase("run"):
            pass
        text = render_snapshot(perf.snapshot())
        assert "%" not in text
