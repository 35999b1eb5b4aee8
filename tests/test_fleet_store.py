"""Tests for the cross-run profile store.

The contract mirrors the C(p, a) cache: appends are atomic and strictly
ordered, a load returns exactly what was stored (fingerprint-verified),
and a corrupt generation degrades to a warning + drop — the lineage
self-heals from the next run, never crashes.
"""

import json

import pytest

from repro import persist
from repro.cache import profile_fingerprint
from repro.fleet.store import (
    STORE_DIR_ENV,
    FleetError,
    ProfileStore,
    default_root,
)
from repro.jobs.dag import Edge, EdgeType, JobGraph, Stage
from repro.jobs.profiles import JobProfile, StageProfile
from repro.simkit.distributions import Constant, Empirical


def small_graph():
    return JobGraph(
        "g",
        [Stage("map", 4), Stage("reduce", 2)],
        [Edge("map", "reduce", EdgeType.ALL_TO_ALL)],
    )


def profile_with_map_runtimes(graph, values):
    return JobProfile(
        graph,
        {
            "map": StageProfile(
                "map",
                runtime=Empirical(values),
                queue_obs=Constant(2.0),
            ),
            "reduce": StageProfile(
                "reduce",
                runtime=Empirical([30.0, 32.0, 28.0, 31.0]),
                queue_obs=Constant(4.0),
            ),
        },
    )


@pytest.fixture
def store(tmp_path):
    return ProfileStore(tmp_path)


@pytest.fixture
def graph():
    return small_graph()


class TestAppendAndLoad:
    def test_generations_are_sequential(self, store, graph):
        for i in range(3):
            gen = store.append(
                "A", profile_with_map_runtimes(graph, [10.0 + i] * 8)
            )
            assert gen.number == i
        assert [g.number for g in store.generations("A")] == [0, 1, 2]
        assert store.latest("A").number == 2

    def test_round_trip_preserves_content(self, store, graph):
        profile = profile_with_map_runtimes(graph, [10.0, 12.0, 11.0, 13.0])
        gen = store.append("A", profile, metadata={"day": 3})
        loaded = store.load_profile("A", graph=graph)
        assert loaded.stage("map").runtime.mean() == pytest.approx(
            profile.stage("map").runtime.mean()
        )
        assert profile_fingerprint(loaded) == gen.fingerprint
        assert gen.metadata == {"day": 3}

    def test_entry_file_is_the_documented_text(self, store, graph):
        """The bytes are the format: a lineage written by another commit
        of the same schema version still loads."""
        profile = profile_with_map_runtimes(graph, [10.0, 12.0])
        gen = store.append("A", profile, metadata={"day": 3})
        assert gen.path == store.root / "A" / "gen-000000.json"
        assert gen.path.read_text("utf-8") == json.dumps({
            "schema": 1,
            "template": "A",
            "generation": 0,
            "fingerprint": profile_fingerprint(profile),
            "profile": persist.profile_to_dict(profile),
            "metadata": {"day": 3},
        })
        assert [p.name for p in gen.path.parent.iterdir()] == [gen.path.name]

    def test_load_specific_generation(self, store, graph):
        store.append("A", profile_with_map_runtimes(graph, [10.0] * 8))
        store.append("A", profile_with_map_runtimes(graph, [20.0] * 8))
        old = store.load_profile("A", 0, graph=graph)
        assert old.stage("map").runtime.mean() == pytest.approx(10.0)
        with pytest.raises(FleetError, match="no generation 9"):
            store.load_profile("A", 9)

    def test_missing_template_raises(self, store):
        with pytest.raises(FleetError, match="no generations"):
            store.load_profile("ghost")

    def test_lineage_limit_keeps_newest(self, store, graph):
        for i in range(4):
            store.append(
                "A", profile_with_map_runtimes(graph, [float(10 + i)] * 8)
            )
        lineage = store.lineage("A", limit=2, graph=graph)
        assert [p.stage("map").runtime.mean() for p in lineage] == [12.0, 13.0]

    def test_lineage_limit_zero_is_empty_and_negative_refused(self, store, graph):
        for i in range(3):
            store.append(
                "A", profile_with_map_runtimes(graph, [float(10 + i)] * 8)
            )
        assert store.lineage("A", limit=0, graph=graph) == []
        assert len(store.lineage("A", limit=5, graph=graph)) == 3
        with pytest.raises(FleetError, match="lineage limit must be >= 0, got -1"):
            store.lineage("A", limit=-1, graph=graph)

    def test_each_generation_is_decoded_once(self, store, graph, monkeypatch):
        for i in range(3):
            store.append(
                "A", profile_with_map_runtimes(graph, [float(10 + i)] * 8)
            )
        decoded = []
        decode = persist.profile_from_dict

        def counting(data, graph=None):
            decoded.append(data)
            return decode(data, graph=graph)

        monkeypatch.setattr(persist, "profile_from_dict", counting)
        lineage = store.lineage("A", limit=2, graph=graph)
        assert len(decoded) == 3
        assert [p.stage("map").runtime.mean() for p in lineage] == [11.0, 12.0]
        assert all(p.graph is graph for p in lineage)

    def test_invalid_template_name_rejected(self, store, graph):
        with pytest.raises(FleetError, match="invalid template name"):
            store.append("../evil", profile_with_map_runtimes(graph, [1.0]))


class TestCorruption:
    def _one_entry(self, store, graph):
        return store.append(
            "A", profile_with_map_runtimes(graph, [10.0, 11.0, 12.0, 13.0])
        )

    def test_truncated_entry_warns_and_drops(self, store, graph):
        gen = self._one_entry(store, graph)
        gen.path.write_text("{not json", encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="corrupt fleet-store"):
            assert store.generations("A") == []
        assert not gen.path.exists()

    def test_fingerprint_mismatch_warns_and_drops(self, store, graph):
        gen = self._one_entry(store, graph)
        payload = json.loads(gen.path.read_text(encoding="utf-8"))
        payload["fingerprint"] = "0" * 64
        gen.path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="fingerprint mismatch"):
            assert store.generations("A") == []
        assert not gen.path.exists()

    def test_schema_mismatch_warns_and_drops(self, store, graph):
        gen = self._one_entry(store, graph)
        payload = json.loads(gen.path.read_text(encoding="utf-8"))
        payload["schema"] = 999
        gen.path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="schema"):
            assert store.latest("A") is None

    def test_lineage_trusts_only_the_read_that_verified(
        self, store, graph, monkeypatch
    ):
        """Damage landing after ``generations()`` verified an entry cannot
        reach the caller: the profile comes out of that one read."""
        self._one_entry(store, graph)
        verified = store.generations

        def then_damaged(template):
            gens = verified(template)
            for gen in gens:
                gen.path.write_text("{not json", encoding="utf-8")
            return gens

        monkeypatch.setattr(store, "generations", then_damaged)
        (profile,) = store.lineage("A", graph=graph)
        assert profile.stage("map").runtime.mean() == pytest.approx(11.5)

    def test_lineage_self_heals_after_drop(self, store, graph):
        gen = self._one_entry(store, graph)
        store.append("A", profile_with_map_runtimes(graph, [20.0] * 8))
        gen.path.write_text("junk", encoding="utf-8")
        with pytest.warns(RuntimeWarning):
            survivors = store.generations("A")
        assert [g.number for g in survivors] == [1]
        # The next append continues the numbering past the survivor.
        nxt = store.append("A", profile_with_map_runtimes(graph, [21.0] * 8))
        assert nxt.number == 2


class TestStatsAndClear:
    def test_stats_counts_templates_and_bytes(self, store, graph):
        store.append("A", profile_with_map_runtimes(graph, [10.0] * 8))
        store.append("A", profile_with_map_runtimes(graph, [11.0] * 8))
        store.append("B", profile_with_map_runtimes(graph, [12.0] * 8))
        stats = store.stats()
        assert stats["templates"] == 2
        assert stats["generations"] == 3
        assert stats["bytes"] > 0
        assert stats["per_template"]["A"]["generations"] == 2

    def test_clear_one_template(self, store, graph):
        store.append("A", profile_with_map_runtimes(graph, [10.0] * 8))
        store.append("B", profile_with_map_runtimes(graph, [11.0] * 8))
        assert store.clear("A") == 1
        assert store.templates() == ["B"]

    def test_clear_all(self, store, graph):
        store.append("A", profile_with_map_runtimes(graph, [10.0] * 8))
        store.append("B", profile_with_map_runtimes(graph, [11.0] * 8))
        assert store.clear() == 2
        assert store.templates() == []


class TestDefaultRoot:
    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STORE_DIR_ENV, str(tmp_path / "fleet"))
        assert default_root() == tmp_path / "fleet"

    def test_fallback_under_home(self, monkeypatch):
        monkeypatch.delenv(STORE_DIR_ENV, raising=False)
        assert default_root().name == "fleet"
