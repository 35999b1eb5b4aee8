"""Unit tests for schema-stamped digests (repro.perf.digest)."""

import json

import pytest

from repro.perf.digest import (
    SCHEMA_VERSION,
    DigestError,
    host_metadata,
    peak_rss_kb,
    read_digest,
    stamp,
    write_digest,
)


class TestStamping:
    def test_stamp_adds_schema_and_host_without_mutating(self):
        payload = {"benchmark": "x"}
        stamped = stamp(payload)
        assert stamped["schema_version"] == SCHEMA_VERSION
        assert stamped["host"] == host_metadata()
        assert "schema_version" not in payload

    def test_host_metadata_shape(self):
        host = host_metadata()
        assert set(host) == {"cpu_count", "python", "platform"}
        assert host["cpu_count"] >= 1

    def test_peak_rss_is_positive_on_posix(self):
        rss = peak_rss_kb()
        assert rss is None or rss > 0

    def test_write_digest_round_trips_sorted_with_newline(self, tmp_path):
        path = tmp_path / "d.json"
        stamped = write_digest(path, {"benchmark": "x", "value": 1})
        raw = path.read_text()
        assert raw.endswith("\n")
        assert json.loads(raw) == stamped
        assert raw == json.dumps(stamped, indent=2, sort_keys=True) + "\n"
        assert read_digest(path) == stamped

    def test_read_digest_rejects_non_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("nope{")
        with pytest.raises(DigestError):
            read_digest(bad)

    def test_read_digest_rejects_non_object(self, tmp_path):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2]")
        with pytest.raises(DigestError):
            read_digest(bad)
