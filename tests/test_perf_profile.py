"""Unit tests for the cProfile wrapper (repro.perf.profile)."""

import re

import pytest

from repro.perf.profile import ProfileSession, profiling


def _burn(n: int = 20_000) -> int:
    total = 0
    for i in range(n):
        total += i * i
    return total


def _work() -> int:
    return _burn() + _burn()


class TestSessionLifecycle:
    def test_double_start_raises(self):
        session = ProfileSession()
        session.start()
        with pytest.raises(RuntimeError):
            session.start()
        session.stop()

    def test_stop_without_start_raises(self):
        with pytest.raises(RuntimeError):
            ProfileSession().stop()

    def test_exports_require_stopped_session(self):
        session = ProfileSession()
        with pytest.raises(RuntimeError):
            session.collapsed_stacks()
        session.start()
        _work()
        session.stop()
        assert session.stopped
        assert session.collapsed_stacks()


class TestCollapsedStacks:
    def test_lines_are_edges_with_integer_weights(self):
        session = ProfileSession()
        session.start()
        _work()
        session.stop()
        lines = session.collapsed_stacks().splitlines()
        assert lines, "profiled work produced no stacks"
        # Every line ends in an integer microsecond weight; frame names may
        # contain spaces (builtin method descriptors).
        assert all(
            re.match(r"^\d+$", line.rsplit(" ", 1)[1]) for line in lines
        ), lines[:5]
        assert lines == sorted(lines)
        joined = "\n".join(lines)
        # The caller;callee edge for our hot pair, with basename frames.
        assert "(_work);" in joined
        assert "(_burn)" in joined
        assert "test_perf_profile.py" in joined
        assert not any(
            line.startswith("/") for line in lines
        ), "absolute paths leaked into frame names"

    def test_profiling_contextmanager_writes_file(self, tmp_path):
        out = tmp_path / "run.folded"
        with profiling(str(out)) as session:
            _work()
        assert session.stopped
        content = out.read_text()
        assert content == session.collapsed_stacks()
        assert "(_burn)" in content


class TestTextSummary:
    def test_summary_structure_and_ordering(self):
        session = ProfileSession()
        session.start()
        _work()
        session.stop()
        text = session.text_summary(top=10)
        lines = text.splitlines()
        assert lines[0].startswith("profile: ")
        assert lines[2] == (
            f"{'cumtime':>10s} {'selftime':>10s} {'calls':>10s}  function"
        )
        assert lines[3] == "-" * 72
        rows = lines[4:]
        assert 0 < len(rows) <= 10
        cumtimes = [float(row.split()[0]) for row in rows]
        assert cumtimes == sorted(cumtimes, reverse=True)

    def test_function_totals_reports_hot_function(self):
        session = ProfileSession()
        session.start()
        _work()
        session.stop()
        # Cumulative seconds by frame name, read off the summary's rows.
        totals = {
            row.split()[3]: float(row.split()[0])
            for row in session.text_summary(top=10_000).splitlines()[4:]
        }
        burn = [v for k, v in totals.items() if "(_burn)" in k]
        work = [v for k, v in totals.items() if "(_work)" in k]
        assert burn and work
        # _work's cumulative time includes both _burn calls.
        assert work[0] >= burn[0] * 0.9
