"""Unit tests for run traces."""

import copy
import dataclasses
import math
import pickle
from dataclasses import dataclass
from typing import Optional

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.jobs.trace import (
    OUTCOME_EVICTED,
    OUTCOME_FAILED,
    OUTCOME_OK,
    OUTCOME_SUPERSEDED,
    OUTCOMES,
    RunTrace,
    TaskRecord,
    TraceError,
)


def record(stage="s", index=0, attempt=0, ready=0.0, start=1.0, end=3.0,
           outcome=OUTCOME_OK, spare=False):
    return TaskRecord(
        stage=stage, index=index, attempt=attempt,
        ready_time=ready, start_time=start, end_time=end,
        outcome=outcome, used_spare_token=spare,
    )


class TestTaskRecord:
    def test_queue_and_run_time(self):
        r = record(ready=1.0, start=4.0, end=9.0)
        assert r.queue_time == 3.0
        assert r.run_time == 5.0

    def test_succeeded_flag(self):
        assert record().succeeded
        assert not record(outcome=OUTCOME_FAILED).succeeded

    def test_monotonic_times_enforced(self):
        with pytest.raises(TraceError):
            record(ready=5.0, start=1.0)
        with pytest.raises(TraceError):
            record(start=5.0, end=1.0)

    def test_unknown_outcome(self):
        with pytest.raises(TraceError):
            record(outcome="exploded")

    def test_negative_attempt(self):
        with pytest.raises(TraceError):
            record(attempt=-1)


def finished_trace():
    trace = RunTrace(job_name="j", start_time=0.0, deadline=100.0)
    trace.add(record("map", 0, ready=0.0, start=0.0, end=10.0))
    trace.add(record("map", 1, ready=0.0, start=2.0, end=8.0, spare=True))
    trace.add(record("map", 2, attempt=0, ready=0.0, start=0.0, end=4.0,
                     outcome=OUTCOME_FAILED))
    trace.add(record("map", 2, attempt=1, ready=4.0, start=5.0, end=12.0))
    trace.add(record("reduce", 0, ready=12.0, start=14.0, end=30.0))
    trace.end_time = 30.0
    return trace


class TestRunTrace:
    def test_duration(self):
        assert finished_trace().duration == 30.0

    def test_duration_requires_finish(self):
        with pytest.raises(TraceError):
            RunTrace(job_name="j").duration

    def test_met_deadline(self):
        assert finished_trace().met_deadline()

    def test_met_deadline_requires_deadline(self):
        trace = RunTrace(job_name="j")
        trace.end_time = 1.0
        with pytest.raises(TraceError):
            trace.met_deadline()

    def test_total_cpu_counts_successes_only(self):
        # 10 + 6 + 7 + 16 (successful); failed attempt (4s) excluded.
        assert finished_trace().total_cpu_seconds() == 39.0

    def test_wasted_cpu(self):
        assert finished_trace().wasted_cpu_seconds() == 4.0

    def test_stage_runtimes(self):
        runtimes = finished_trace().stage_runtimes()
        assert sorted(runtimes["map"]) == [6.0, 7.0, 10.0]
        assert runtimes["reduce"] == [16.0]

    def test_stage_queue_times(self):
        queues = finished_trace().stage_queue_times()
        assert queues["reduce"] == [2.0]

    def test_stage_attempt_counts(self):
        counts = finished_trace().stage_attempt_counts()
        assert counts["map"] == (4, 1)
        assert counts["reduce"] == (1, 0)

    def test_spare_fraction(self):
        assert finished_trace().spare_fraction() == pytest.approx(0.25)

    def test_stage_relative_spans(self):
        spans = finished_trace().stage_relative_spans()
        assert spans["reduce"] == pytest.approx((14 / 30, 1.0))
        assert spans["map"][0] == 0.0

    def test_successful_records(self):
        assert len(finished_trace().successful_records()) == 4


class TestAllocationTimelines:
    def test_mark_allocation_deduplicates(self):
        trace = RunTrace(job_name="j")
        trace.mark_allocation(0.0, 10)
        trace.mark_allocation(5.0, 10)
        trace.mark_allocation(9.0, 20)
        assert trace.allocation_timeline == [(0.0, 10), (9.0, 20)]

    def test_allocation_seconds_integral(self):
        trace = RunTrace(job_name="j", start_time=0.0)
        trace.mark_allocation(0.0, 10)
        trace.mark_allocation(10.0, 20)
        trace.end_time = 30.0
        # 10 tokens x 10s + 20 tokens x 20s
        assert trace.allocation_seconds() == 500.0

    def test_allocation_seconds_empty(self):
        trace = RunTrace(job_name="j")
        trace.end_time = 10.0
        assert trace.allocation_seconds() == 0.0

    def test_allocation_excess_above_threshold(self):
        trace = RunTrace(job_name="j", start_time=0.0)
        trace.mark_allocation(0.0, 10)
        trace.mark_allocation(10.0, 30)
        trace.end_time = 20.0
        # threshold 15: first segment contributes 0, second (30-15)*10s.
        assert trace.allocation_excess_seconds(15) == 150.0

    def test_allocation_requires_finish(self):
        trace = RunTrace(job_name="j")
        trace.mark_allocation(0.0, 10)
        with pytest.raises(TraceError):
            trace.allocation_seconds()

    def test_mark_running_deduplicates(self):
        trace = RunTrace(job_name="j")
        trace.mark_running(0.0, 3)
        trace.mark_running(1.0, 3)
        trace.mark_running(2.0, 4)
        assert trace.running_timeline == [(0.0, 3), (2.0, 4)]


# ----------------------------------------------------------------------
# The tuple record against the frozen dataclass it replaced
# ----------------------------------------------------------------------

_OUTCOMES = (OUTCOME_OK, OUTCOME_FAILED, OUTCOME_EVICTED, OUTCOME_SUPERSEDED)


@dataclass(frozen=True)
class ReferenceTaskRecord:
    """One attempt of one task (vertex)."""

    stage: str
    index: int
    attempt: int
    ready_time: float
    start_time: float
    end_time: float
    outcome: str = OUTCOME_OK
    machine: Optional[int] = None
    used_spare_token: bool = False

    def __post_init__(self):
        if self.outcome not in _OUTCOMES:
            raise TraceError(f"unknown outcome {self.outcome!r}")
        if not self.ready_time <= self.start_time <= self.end_time:
            raise TraceError(
                f"non-monotonic times for {self.stage}[{self.index}]: "
                f"ready={self.ready_time}, start={self.start_time}, "
                f"end={self.end_time}"
            )
        if self.attempt < 0:
            raise TraceError(f"negative attempt {self.attempt}")

    @property
    def queue_time(self) -> float:
        """Seconds spent waiting between readiness and execution."""
        return self.start_time - self.ready_time

    @property
    def run_time(self) -> float:
        """Seconds spent holding a token."""
        return self.end_time - self.start_time

    @property
    def succeeded(self) -> bool:
        return self.outcome == OUTCOME_OK


FIELDS = tuple(f.name for f in dataclasses.fields(ReferenceTaskRecord))
#: Times drawn from a small pool so equal, infinite and NaN times are common.
times = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.5, math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
)
record_args = st.tuples(
    st.sampled_from(["map", "reduce", ""]),
    st.integers(-2, 5),
    st.integers(-3, 3),
    times,
    times,
    times,
    st.sampled_from(OUTCOMES + ("exploded", "OK")),
    st.one_of(st.none(), st.integers(0, 50)),
    st.booleans(),
)
#: How a record is spelled: positional or keyword, and how many of the
#: three defaulted fields are given.
spellings = st.tuples(st.booleans(), st.integers(6, 9))


def build(cls, args, spelling):
    keyword, given_count = spelling
    args = args[:given_count]
    try:
        if keyword:
            return cls(**dict(zip(FIELDS, args)))
        return cls(*args)
    except TraceError as exc:
        return exc


def same_float(a, b) -> bool:
    return a == b or (a != a and b != b)


class TestTupleRecordIsTheDataclass:
    """:class:`TaskRecord` accepts and refuses exactly what the frozen
    dataclass did, with the same message, and holds the same values under
    the same ``==`` and ``hash``."""

    @given(record_args, spellings)
    def test_same_decision_message_and_values(self, args, spelling):
        new = build(TaskRecord, args, spelling)
        old = build(ReferenceTaskRecord, args, spelling)
        if isinstance(old, TraceError):
            assert isinstance(new, TraceError)
            assert str(new) == str(old)
            return
        assert isinstance(new, TaskRecord)
        assert tuple(new) == dataclasses.astuple(old)
        for name in FIELDS:
            assert getattr(new, name) == getattr(old, name)
        assert same_float(new.queue_time, old.queue_time)
        assert same_float(new.run_time, old.run_time)
        assert new.succeeded == old.succeeded
        assert hash(new) == hash(old)
        assert repr(new) == repr(old).replace("ReferenceTaskRecord", "TaskRecord")

    @given(record_args, record_args, st.lists(st.booleans(), min_size=9, max_size=9))
    def test_same_equality_and_hash_between_records(self, first, other, take):
        second = tuple(o if t else f for f, o, t in zip(first, other, take))
        spelling = (False, 9)
        new = [build(TaskRecord, a, spelling) for a in (first, second)]
        old = [build(ReferenceTaskRecord, a, spelling) for a in (first, second)]
        if any(isinstance(r, TraceError) for r in new + old):
            return
        assert (new[0] == new[1]) == (old[0] == old[1])
        assert (new[0] != new[1]) == (old[0] != old[1])
        assert (hash(new[0]) == hash(new[1])) == (hash(old[0]) == hash(old[1]))

    @given(record_args)
    def test_round_trips_and_immutability(self, args):
        record = build(TaskRecord, args, (False, 9))
        if isinstance(record, TraceError):
            return
        assert pickle.loads(pickle.dumps(record)) == record
        assert type(pickle.loads(pickle.dumps(record))) is TaskRecord
        assert copy.deepcopy(record) == record
        with pytest.raises(AttributeError):
            record.end_time = 0.0
        with pytest.raises(AttributeError):
            record.note = "x"

    def test_replace_is_checked(self):
        with pytest.raises(TraceError, match="negative attempt -1"):
            record()._replace(attempt=-1)
        assert record()._replace(attempt=2).attempt == 2
