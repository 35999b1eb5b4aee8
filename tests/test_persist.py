"""Unit tests for the JSON persistence layer."""

import copy
import json
import pathlib
import re
import sys
import threading
import warnings

import numpy as np
import pytest

from repro import persist
from repro.core.cpa import CpaError, CpaTable
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


#: What a table payload can get wrong that every query would read blind.
MALFORMED_SHAPES = ("short column", "empty bin", "unsorted samples")


def break_table(payload, shape):
    """A ``table_to_dict`` payload with its first column broken one way,
    and the message ``CpaTable`` must refuse it with."""
    payload = copy.deepcopy(payload)
    a = payload["allocations"][0]
    column = payload["columns"][str(a)]
    if shape == "short column":
        del column[2:]
        needs = payload["num_bins"] + 1
        return payload, (
            f"allocation {a}: needs {needs} one-dimensional progress bins, got 2"
        )
    if shape == "empty bin":
        column[1] = []
        return payload, f"allocation {a}: progress bin 1 is empty"
    column[0] = [9.0, 1.0]
    return payload, f"allocation {a}: progress bin 0 is not in ascending order"


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

    @pytest.mark.parametrize("shape", MALFORMED_SHAPES)
    def test_malformed_table_is_refused_naming_allocation_and_bin(self, shape):
        payload, message = break_table(
            persist.table_to_dict(self.make_table()), shape
        )
        with pytest.raises(CpaError) as err:
            persist.table_from_dict(payload)
        assert str(err.value) == message


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
        ([1, 2], "bundle must be an object, got list"),
        ("bundle", "bundle must be an object, got str"),
        ({"format_version": 1}, "bundle: missing field(s) ['graph', 'profile']"),
        ({"format_version": 2}, "version 2"),
        ({}, "version None"),
    ])
    def test_envelope_errors(self, broken, names):
        with pytest.raises(persist.PersistError, match=re.escape(names)):
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
        with pytest.raises(persist.PersistError, match=f"^{field}[ .:]"):
            persist.bundle_from_dict(dict(payload, **{field: value}))

    def test_missing_profile_is_named(self, payload):
        del (broken := dict(payload))["profile"]
        with pytest.raises(persist.PersistError,
                           match=r"^bundle: missing field\(s\) \['profile'\]$"):
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

    def test_concurrent_writers_of_one_path_never_tear_it(self, tmp_path):
        """Two request threads may train one template and store one key
        (``TemplateModelStore.get``); every hit rewrites ``_stats.json``."""
        path = tmp_path / "entry.json"
        persist.write_json(path, {"writer": -1, "fill": "x" * 4096})
        failures = []
        done = threading.Event()

        def write(writer):
            try:
                for i in range(50):
                    persist.write_json(
                        path, {"writer": writer, "fill": str(i) * 4096}
                    )
            except BaseException as exc:    # noqa: BLE001 - reported below
                failures.append(exc)

        def read():
            try:
                while not done.is_set():
                    assert "writer" in json.loads(path.read_text("utf-8"))
            except BaseException as exc:    # noqa: BLE001 - reported below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            reader = threading.Thread(target=read)
            writers = [
                threading.Thread(target=write, args=(n,)) for n in range(4)
            ]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                reader.start()
                for thread in writers:
                    thread.start()
                for thread in writers:
                    thread.join(timeout=60.0)
                done.set()
                reader.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not reader.is_alive()
        assert not any(thread.is_alive() for thread in writers)
        assert failures == []
        assert [p.name for p in tmp_path.iterdir()] == ["entry.json"]


class TestReadEntry:
    """An entry answers exactly or is dropped with a warning naming it."""

    @staticmethod
    def read(path, schema=3):
        return persist.read_entry(
            path, schema, lambda payload: payload["body"],
            what=f"test entry {path.name}",
        )

    def test_returns_what_decode_returns(self, tmp_path):
        path = tmp_path / "e.json"
        persist.write_json(path, {"schema": 3, "metadata": {}, "body": [1, 2]})
        assert self.read(path) == [1, 2]
        assert path.exists()

    @pytest.mark.parametrize("text, reason", [
        ("{ not json", "Expecting property name"),
        ('{"schema": 2, "body": 1}', "schema 2 != 3"),
        ('{"schema": 3}', "'body'"),
        ("[1, 2]", "has no attribute 'get'"),
        ('{"schema": 3, "body"', "Expecting"),
    ])
    def test_damaged_entry_warns_drops_and_misses(self, tmp_path, text, reason):
        path = tmp_path / "e.json"
        path.write_text(text, encoding="utf-8")
        with pytest.warns(RuntimeWarning) as caught:
            assert self.read(path) is None
        (warning,) = caught
        assert str(warning.message).startswith(
            "dropping corrupt test entry e.json: "
        )
        assert reason in str(warning.message)
        assert not path.exists()

    def test_missing_file_is_a_warned_miss(self, tmp_path):
        with pytest.warns(RuntimeWarning, match="corrupt test entry"):
            assert self.read(tmp_path / "gone.json") is None


class TestStoreHelpers:
    def test_store_root_env_wins_over_home(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_DIR", f"  {tmp_path}  ")
        assert persist.store_root("REPRO_TEST_DIR", "leaf") == tmp_path
        monkeypatch.setenv("REPRO_TEST_DIR", " ")
        root = persist.store_root("REPRO_TEST_DIR", "leaf")
        assert root.parts[-3:] == (".cache", "repro-jockey", "leaf")

    def test_file_helpers_shrug_off_vanished_files(self, tmp_path):
        kept = tmp_path / "kept"
        kept.write_bytes(b"12345")
        gone = tmp_path / "gone"
        assert persist.file_bytes([kept, gone]) == 5
        assert persist.remove_file(kept) is True
        assert persist.remove_file(gone) is False


class TestOneOwner:
    """The decisions this module owns are made nowhere else under
    ``src/repro``: how a file is replaced, and (for the arbiter) what
    time it is."""

    SRC = pathlib.Path(persist.__file__).parent

    def test_only_persist_renames_a_tmp_file_into_place(self):
        needle = re.compile(r"\.tmp|os\.replace|\.replace\(path\)")
        offenders = [
            f"{path.relative_to(self.SRC)}:{lineno}"
            for path in sorted(self.SRC.rglob("*.py"))
            if path.name != "persist.py"
            for lineno, line in enumerate(
                path.read_text("utf-8").splitlines(), 1
            )
            if needle.search(line)
        ]
        assert offenders == []

    def test_only_persist_writes_a_text_file(self):
        """Reports, results, profiles and port files go through
        ``persist.write_text``, so an interrupted write leaves no truncated
        file, whatever its extension: no ``open(..., "w")`` and no
        ``.write_text(`` outside persist.py.  (The trace exporters stream
        to a path or an open file object and are not matched here.)"""
        needle = re.compile(
            r"""open\([^)]*,\s*["'][wax]["']|(?<!persist)\.write_text\("""
        )
        offenders = [
            f"{path.relative_to(self.SRC)}:{lineno}"
            for path in sorted(self.SRC.rglob("*.py"))
            if path.name != "persist.py"
            for lineno, line in enumerate(
                path.read_text("utf-8").splitlines(), 1
            )
            if needle.search(line)
        ]
        assert offenders == []

    def test_the_arbiter_reads_no_second_clock(self):
        server = (self.SRC / "service" / "server.py").read_text("utf-8")
        assert "time.monotonic" not in server
