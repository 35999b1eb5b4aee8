"""Tests for the content-addressed on-disk model cache.

The contract: a cache hit answers every query *identically* to the build
it replaced, a corrupted entry degrades to a rebuild (never a crash), and
a warm cache means model construction runs zero simulations.
"""

import json

import numpy as np
import pytest

from repro import cache as model_cache
from repro.core.cpa import CpaError, CpaTable
from repro.core.progress import totalwork

from tests.test_parallel import stochastic_profile
from tests.test_persist import MALFORMED_SHAPES, break_table


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(model_cache.CACHE_DIR_ENV, str(tmp_path))
    monkeypatch.delenv(model_cache.CACHE_TOGGLE_ENV, raising=False)
    return tmp_path


BUILD_KWARGS = dict(
    allocations=(2, 4, 8), reps=3, num_bins=20, sample_dt=2.0
)


def build_via_cache(profile, seed=42, **overrides):
    kwargs = {**BUILD_KWARGS, **overrides}
    return model_cache.get_or_build_table(
        profile,
        totalwork(profile),
        indicator_kind="totalwork",
        seed=seed,
        **kwargs,
    )


class TestKeying:
    def test_key_is_stable(self):
        profile = stochastic_profile()
        args = dict(
            profile=profile, indicator_kind="totalwork", allocations=(2, 4),
            reps=3, num_bins=20, sample_dt=2.0, seed=1,
        )
        assert model_cache.table_key(**args) == model_cache.table_key(**args)

    @pytest.mark.parametrize(
        "change",
        [
            {"indicator_kind": "fraction"},
            {"allocations": (2, 4, 8)},
            {"reps": 4},
            {"num_bins": 25},
            {"sample_dt": 3.0},
            {"seed": 2},
        ],
    )
    def test_any_input_change_changes_key(self, change):
        profile = stochastic_profile()
        base = dict(
            profile=profile, indicator_kind="totalwork", allocations=(2, 4),
            reps=3, num_bins=20, sample_dt=2.0, seed=1,
        )
        assert model_cache.table_key(**base) != model_cache.table_key(
            **{**base, **change}
        )

    def test_profile_fingerprint_sees_content(self):
        p1 = stochastic_profile()
        p2 = stochastic_profile()
        assert model_cache.profile_fingerprint(p1) == (
            model_cache.profile_fingerprint(p2)
        )


class TestRoundTrip:
    def test_hit_answers_identically(self, cache_dir):
        profile = stochastic_profile()
        built = build_via_cache(profile)
        cached = build_via_cache(profile)
        for q in (0.1, 0.5, 0.6, 0.9):
            for progress in (0.0, 0.25, 0.5, 0.99):
                for a in (2, 3, 4, 8, 100):
                    assert built.remaining(progress, a, q=q) == (
                        cached.remaining(progress, a, q=q)
                    )
        for threshold in (0.0, 5.0, 50.0):
            assert built.exceedance(0.3, 4, threshold) == (
                cached.exceedance(0.3, 4, threshold)
            )

    def test_entry_and_stats_files_are_the_documented_text(self, cache_dir):
        """The bytes are the format: a store written by another commit of
        the same schema version is a warm store."""
        from repro import persist

        table = build_via_cache(stochastic_profile())
        (entry,) = model_cache.default_cache().entries()
        assert entry.read_text("utf-8") == json.dumps({
            "schema": model_cache.SCHEMA_VERSION,
            "metadata": {"indicator": "totalwork", "reps": 3, "seed": 42},
            "table": persist.table_to_dict(table, precision=None),
        })
        assert (cache_dir / "_stats.json").read_text("utf-8") == (
            '{"misses": 1, "stores": 1}'
        )
        assert sorted(p.name for p in cache_dir.iterdir()) == sorted(
            [entry.name, "_stats.json"]
        )

    def test_warm_cache_runs_zero_simulations(self, cache_dir, monkeypatch):
        profile = stochastic_profile()
        build_via_cache(profile)

        def boom(*_args, **_kwargs):
            raise AssertionError("simulate_job ran on a warm cache")

        import repro.core.cpa as cpa_mod

        monkeypatch.setattr(cpa_mod, "simulate_job", boom)
        table = build_via_cache(profile)
        assert isinstance(table, CpaTable)

    def test_disabled_via_env(self, cache_dir, monkeypatch):
        monkeypatch.setenv(model_cache.CACHE_TOGGLE_ENV, "0")
        profile = stochastic_profile()
        build_via_cache(profile)
        store = model_cache.default_cache()
        assert store.entries() == []

    def test_use_cache_false_bypasses(self, cache_dir):
        profile = stochastic_profile()
        model_cache.get_or_build_table(
            profile,
            totalwork(profile),
            indicator_kind="totalwork",
            seed=1,
            use_cache=False,
            **BUILD_KWARGS,
        )
        assert model_cache.default_cache().entries() == []


    def test_bad_sample_dt_is_the_builds_error(self, cache_dir):
        """``get_or_build_table`` has no table to find for a step that
        cannot be built: ``CpaTable.build`` rejects it, nothing is stored."""
        with pytest.raises(CpaError, match="sample_dt must be finite and > 0, got 0"):
            build_via_cache(stochastic_profile(), sample_dt=0)
        assert model_cache.default_cache().entries() == []


class TestCorruption:
    def test_corrupt_entry_warns_and_rebuilds(self, cache_dir):
        profile = stochastic_profile()
        built = build_via_cache(profile)
        (entry,) = model_cache.default_cache().entries()
        entry.write_text("{ not json", encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            rebuilt = build_via_cache(profile)
        assert rebuilt.remaining(0.5, 4) == built.remaining(0.5, 4)
        # The bad file was replaced by a fresh store.
        (entry_after,) = model_cache.default_cache().entries()
        json.loads(entry_after.read_text(encoding="utf-8"))

    @pytest.mark.parametrize("shape", MALFORMED_SHAPES)
    def test_malformed_table_entry_is_dropped(self, cache_dir, shape):
        """An entry that parses but holds a table no query could read is
        corrupt like any other: warned by name, dropped, rebuilt."""
        profile = stochastic_profile()
        built = build_via_cache(profile)
        (entry,) = model_cache.default_cache().entries()
        payload = json.loads(entry.read_text(encoding="utf-8"))
        payload["table"], message = break_table(payload["table"], shape)
        entry.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.warns(RuntimeWarning) as caught:
            rebuilt = build_via_cache(profile)
        (warning,) = caught
        assert str(warning.message) == (
            f"dropping corrupt C(p, a) cache entry {entry.name}: {message}"
        )
        assert rebuilt.remaining(0.5, 4) == built.remaining(0.5, 4)
        assert model_cache.default_cache().stats()["corrupt"] == 1

    def test_schema_mismatch_is_a_miss(self, cache_dir):
        profile = stochastic_profile()
        build_via_cache(profile)
        (entry,) = model_cache.default_cache().entries()
        payload = json.loads(entry.read_text(encoding="utf-8"))
        payload["schema"] = -1
        entry.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="schema"):
            table = build_via_cache(profile)
        assert isinstance(table, CpaTable)


class TestStats:
    def test_counters_accumulate(self, cache_dir):
        profile = stochastic_profile()
        build_via_cache(profile)   # miss + store
        build_via_cache(profile)   # hit
        stats = model_cache.default_cache().stats()
        assert stats["entries"] == 1
        assert stats["misses"] == 1
        assert stats["stores"] == 1
        assert stats["hits"] == 1
        assert stats["bytes"] > 0

    def test_clear_removes_everything(self, cache_dir):
        profile = stochastic_profile()
        build_via_cache(profile)
        store = model_cache.default_cache()
        assert store.clear() == 1
        assert store.entries() == []
        assert store.stats()["hits"] == 0


class TestCli:
    def test_cache_stats_and_clear(self, cache_dir):
        import io

        from repro.cli import main

        profile = stochastic_profile()
        build_via_cache(profile)
        out = io.StringIO()
        assert main(["cache", "stats"], out=out) == 0
        text = out.getvalue()
        assert "entries: 1" in text
        assert "stores: 1" in text
        out = io.StringIO()
        assert main(["cache", "clear"], out=out) == 0
        assert "removed 1" in out.getvalue()


class TestTrainedJobWarmPath:
    def test_trained_job_zero_simulations_when_warm(
        self, cache_dir, monkeypatch
    ):
        from repro.experiments import scenarios

        scenarios.clear_trained_cache()
        first = scenarios.trained_job("A", seed=5, scale=scenarios.SMOKE)
        scenarios.clear_trained_cache()

        calls = {"n": 0}
        import repro.core.cpa as cpa_mod

        real = cpa_mod.simulate_job

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(cpa_mod, "simulate_job", counting)
        second = scenarios.trained_job("A", seed=5, scale=scenarios.SMOKE)
        assert calls["n"] == 0
        assert second.short_deadline == first.short_deadline
        assert np.array_equal(
            second.table._columns[second.table.allocations[0]].bins[0],
            first.table._columns[first.table.allocations[0]].bins[0],
        )
        scenarios.clear_trained_cache()


class TestPrune:
    def _fill(self, n=3):
        """n distinct entries with strictly increasing mtimes."""
        import os
        import time

        store = model_cache.default_cache()
        profile = stochastic_profile()
        paths = []
        for i in range(n):
            build_via_cache(profile, seed=100 + i)
            newest = max(store.entries(), key=lambda p: p.stat().st_mtime_ns)
            # Spread mtimes so LRU order is unambiguous even on coarse
            # filesystem clocks.
            stamp = time.time() - (n - i) * 60
            os.utime(newest, (stamp, stamp))
            paths.append(newest)
        return store, paths

    def test_prune_evicts_oldest_first(self, cache_dir):
        store, paths = self._fill(3)
        keep = paths[-1].stat().st_size
        removed, freed = store.prune(max_bytes=keep)
        assert removed == 2
        assert freed > 0
        assert store.entries() == [paths[-1]]

    def test_prune_is_a_noop_when_under_budget(self, cache_dir):
        store, _paths = self._fill(2)
        removed, freed = store.prune(max_bytes=10**9)
        assert (removed, freed) == (0, 0)
        assert len(store.entries()) == 2

    def test_prune_zero_clears_entries(self, cache_dir):
        store, _paths = self._fill(2)
        removed, _freed = store.prune(max_bytes=0)
        assert removed == 2
        assert store.entries() == []

    def test_prune_counts_in_stats(self, cache_dir):
        store, _paths = self._fill(2)
        store.prune(max_bytes=0)
        assert store.stats()["pruned"] == 2

    def test_negative_budget_rejected(self, cache_dir):
        with pytest.raises(model_cache.CacheError, match="max_bytes"):
            model_cache.default_cache().prune(max_bytes=-1)

    def test_cli_prune_and_stats_total_size(self, cache_dir):
        import io

        from repro.cli import main

        store, _paths = self._fill(2)
        out = io.StringIO()
        assert main(["cache", "stats"], out=out) == 0
        assert "total size:" in out.getvalue()
        out = io.StringIO()
        assert main(["cache", "prune", "--max-bytes", "0"], out=out) == 0
        text = out.getvalue()
        assert "pruned 2 cached model(s)" in text
        assert store.entries() == []
        out = io.StringIO()
        assert main(["cache", "stats"], out=out) == 0
        assert "pruned: 2" in out.getvalue()
