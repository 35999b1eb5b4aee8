"""Unit tests for the JSON persistence layer."""

import json

import numpy as np
import pytest

from repro import persist
from repro.core.cpa import CpaTable
from repro.core.progress import totalwork
from repro.jobs.dag import EdgeType
from repro.simkit import distributions as dist
from tests.test_core_simulator import deterministic_profile


ALL_DISTRIBUTIONS = [
    dist.Constant(4.0),
    dist.Uniform(1.0, 2.0),
    dist.Exponential(10.0),
    dist.LogNormal(mu=1.2, sigma=0.4),
    dist.WithOutliers(dist.Constant(3.0), 0.1, 4.0),
    dist.Truncated(dist.LogNormal(1.0, 1.0), cap=20.0),
    dist.Empirical([1.0, 2.0, 3.0]),
    dist.Scaled(dist.Constant(2.0), 1.5),
]


class TestDistributionRoundTrip:
    @pytest.mark.parametrize("d", ALL_DISTRIBUTIONS, ids=lambda d: type(d).__name__)
    def test_round_trip_preserves_sampling(self, d):
        data = persist.distribution_to_dict(d)
        json.dumps(data)  # must be JSON-serializable
        restored = persist.distribution_from_dict(data)
        rng1 = np.random.default_rng(0)
        rng2 = np.random.default_rng(0)
        for _ in range(20):
            assert d.sample(rng1) == restored.sample(rng2)

    def test_unknown_kind_rejected(self):
        with pytest.raises(persist.PersistError):
            persist.distribution_from_dict({"kind": "magic"})

    def test_unknown_type_rejected(self):
        with pytest.raises(persist.PersistError):
            persist.distribution_to_dict(object())


class TestGraphRoundTrip:
    def test_round_trip(self):
        graph = deterministic_profile().graph
        restored = persist.graph_from_dict(persist.graph_to_dict(graph))
        assert restored.name == graph.name
        assert [s.num_tasks for s in restored.stages] == [
            s.num_tasks for s in graph.stages
        ]
        assert restored.edges[0].kind is EdgeType.ALL_TO_ALL
        assert restored.topological_order() == graph.topological_order()

    def test_malformed_rejected(self):
        with pytest.raises(persist.PersistError):
            persist.graph_from_dict({"name": "x"})


class TestProfileRoundTrip:
    def test_round_trip(self):
        profile = deterministic_profile(failure_prob=0.05)
        restored = persist.profile_from_dict(persist.profile_to_dict(profile))
        assert restored.stage_names == profile.stage_names
        assert restored.stage("map").failure_prob == 0.05
        assert restored.total_work_seconds() == pytest.approx(
            profile.total_work_seconds()
        )

    def test_malformed_rejected(self):
        with pytest.raises(persist.PersistError):
            persist.profile_from_dict({"graph": persist.graph_to_dict(
                deterministic_profile().graph), "stages": {"map": {}}})


class TestTableRoundTrip:
    def make_table(self):
        profile = deterministic_profile()
        return CpaTable.build(
            profile, totalwork(profile), np.random.default_rng(0),
            allocations=(2, 4, 8), reps=3, num_bins=10, sample_dt=2.0,
        )

    def test_round_trip_queries_match(self):
        table = self.make_table()
        restored = persist.table_from_dict(persist.table_to_dict(table))
        assert restored.allocations == table.allocations
        for p in (0.0, 0.4, 0.9):
            for a in (2, 3, 8):
                assert restored.remaining(p, a, q=0.8) == pytest.approx(
                    table.remaining(p, a, q=0.8), abs=0.02
                )

    def test_precision_rounding(self):
        table = self.make_table()
        data = persist.table_to_dict(table, precision=0)
        restored = persist.table_from_dict(data)
        assert restored.remaining(0.0, 4, q=0.5) == pytest.approx(
            table.remaining(0.0, 4, q=0.5), abs=1.0
        )


class TestBundle:
    def test_round_trip(self, tmp_path):
        profile = deterministic_profile()
        table = CpaTable.build(
            profile, totalwork(profile), np.random.default_rng(0),
            allocations=(2, 4), reps=2, num_bins=10,
        )
        path = tmp_path / "bundle.json"
        persist.save_bundle(
            path, graph=profile.graph, profile=profile, table=table,
            metadata={"trained_at": "2026-07-04"},
        )
        graph, restored_profile, restored_table = persist.load_bundle(path)
        assert graph.name == profile.graph.name
        assert restored_table is not None
        assert restored_table.allocations == [2, 4]

    def test_bundle_without_table(self, tmp_path):
        profile = deterministic_profile()
        path = tmp_path / "bundle.json"
        persist.save_bundle(path, graph=profile.graph, profile=profile)
        _graph, _profile, table = persist.load_bundle(path)
        assert table is None

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps({"format_version": 999}))
        with pytest.raises(persist.PersistError, match="version"):
            persist.load_bundle(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "bundle.json"
        path.write_text("not json{{{")
        with pytest.raises(persist.PersistError, match="JSON"):
            persist.load_bundle(path)

    def test_loaded_bundle_drives_control_loop(self, tmp_path):
        """End-to-end: a bundle saved by a training process can run the
        control loop in a fresh one."""
        from repro.core.control import ControlConfig
        from repro.core.policies import JockeyPolicy
        from repro.core.progress import totalwork_with_q
        from repro.core.utility import deadline_utility

        profile = deterministic_profile()
        table = CpaTable.build(
            profile, totalwork(profile), np.random.default_rng(0),
            allocations=(2, 4, 8), reps=3, num_bins=10,
        )
        path = tmp_path / "bundle.json"
        persist.save_bundle(path, graph=profile.graph, profile=profile, table=table)

        graph, loaded_profile, loaded_table = persist.load_bundle(path)
        policy = JockeyPolicy(
            loaded_table,
            totalwork_with_q(loaded_profile),
            deadline_utility(60.0),
            ControlConfig(min_tokens=1, max_tokens=8, allocation_step=1),
            profile=loaded_profile,
        )
        assert policy.initial_allocation() >= 2


class TestBundleFromDict:
    """The one bundle decoder, under ``load_bundle`` and the live service's
    inline upload: whatever is wrong is a PersistError naming the field."""

    @pytest.fixture(scope="class")
    def payload(self, tmp_path_factory):
        profile = deterministic_profile()
        table = CpaTable.build(
            profile, totalwork(profile), np.random.default_rng(0),
            allocations=(2, 4), reps=2, num_bins=10,
        )
        path = tmp_path_factory.mktemp("bundle") / "bundle.json"
        persist.save_bundle(
            path, graph=profile.graph, profile=profile, table=table
        )
        return json.loads(path.read_text(encoding="utf-8"))

    def test_decodes_what_save_bundle_wrote(self, payload):
        graph, profile, table = persist.bundle_from_dict(payload)
        assert profile.graph is graph
        assert table.allocations == [2, 4]
        assert persist.bundle_from_dict(dict(payload, table=None))[2] is None

    @pytest.mark.parametrize("broken, names", [
        ([1, 2], "JSON object, got list"),
        ("bundle", "JSON object, got str"),
        ({"format_version": 1}, "no 'graph' field"),
        ({"format_version": 2}, "version 2"),
        ({}, "version None"),
    ])
    def test_envelope_errors(self, broken, names):
        with pytest.raises(persist.PersistError, match=names):
            persist.bundle_from_dict(broken)

    @pytest.mark.parametrize("field, value", [
        ("graph", 42),
        ("graph", {"name": "g", "stages": [], "edges": [{"src": 1}]}),
        ("profile", []),
        ("profile", {"stages": {"map": {"runtime": "fast"}}}),
        ("table", {"allocations": [2], "num_bins": 10, "columns": {}}),
        ("table", {"allocations": [2], "num_bins": 10,
                   "columns": {"2": "abc"}}),
        ("table", "big"),
    ])
    def test_malformed_field_is_named(self, payload, field, value):
        with pytest.raises(persist.PersistError, match=f"'{field}'"):
            persist.bundle_from_dict(dict(payload, **{field: value}))

    def test_missing_profile_is_named(self, payload):
        del (broken := dict(payload))["profile"]
        with pytest.raises(persist.PersistError, match="no 'profile' field"):
            persist.bundle_from_dict(broken)


class TestWriteJson:
    def test_bytes_are_the_two_forms_callers_used(self, tmp_path):
        doc = {"b": [1, 2.5], "a": {"z": None, "y": "é"}}
        persist.write_json(tmp_path / "compact.json", doc)
        assert (tmp_path / "compact.json").read_text("utf-8") == json.dumps(doc)
        persist.write_json(tmp_path / "sub" / "digest.json", doc, indent=2)
        assert (tmp_path / "sub" / "digest.json").read_text("utf-8") == (
            json.dumps(doc, indent=2, sort_keys=True) + "\n"
        )

    def test_failed_dump_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "bundle.json"
        persist.write_json(path, {"generation": 1})
        with pytest.raises(TypeError):
            persist.write_json(path, {"generation": 2, "bad": object()})
        assert json.loads(path.read_text("utf-8")) == {"generation": 1}
        assert [p.name for p in tmp_path.iterdir()] == ["bundle.json"]

    def test_writer_killed_before_the_rename_keeps_the_previous_file(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "bundle.json"
        persist.write_json(path, {"generation": 1})

        def die(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(persist.os, "replace", die)
        with pytest.raises(KeyboardInterrupt):
            persist.write_json(path, {"generation": 2})
        assert json.loads(path.read_text("utf-8")) == {"generation": 1}
        assert [p.name for p in tmp_path.iterdir()] == ["bundle.json"]
