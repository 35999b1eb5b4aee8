"""Unit and integration tests for the repro.telemetry subsystem."""

import io
import json
import math

import pytest

from repro.telemetry import audit as audit_mod
from repro.telemetry import export, metrics, trace
from repro.telemetry.audit import TickRecord, reconstruct_allocations
from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    MetricError,
    MetricsRegistry,
    _HistogramChild,
)
from repro.telemetry.trace import NULL, TraceEvent, TraceRecorder


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------


class TestCounter:
    def test_inc_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_test_total")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(MetricError):
            reg.counter("repro_test_total").inc(-1)

    def test_labels_separate_cells(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_runtime_tasks_total", labelnames=("outcome",))
        c.labels(outcome="ok").inc(3)
        c.labels(outcome="failed").inc()
        snap = c.snapshot()
        assert snap["values"]['outcome="ok"'] == 3
        assert snap["values"]['outcome="failed"'] == 1

    def test_labels_cached_identity(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_x_total", labelnames=("a",))
        assert c.labels(a="1") is c.labels(a="1")

    def test_wrong_labels_rejected(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_x_total", labelnames=("a",))
        with pytest.raises(MetricError):
            c.labels(b="1")
        with pytest.raises(MetricError):
            c.inc()  # labelled metric has no default cell

    def test_bad_name_rejected(self):
        with pytest.raises(MetricError):
            MetricsRegistry().counter("bad name!")


class TestGauge:
    def test_set_inc_dec(self):
        g = MetricsRegistry().gauge("repro_test_gauge")
        g.set(10)
        g.inc(5)
        g.dec(2)
        assert g.value == 13


class TestHistogram:
    def test_observe_buckets_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_test_seconds", buckets=(1.0, 10.0, 100.0))
        for v in (0.5, 5.0, 50.0, 500.0):
            h.observe(v)
        snap = h.snapshot()["values"][""]
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(555.5)
        assert snap["buckets"]["1.0"] == 1
        assert snap["buckets"]["10.0"] == 2
        assert snap["buckets"]["100.0"] == 3
        assert snap["buckets"]["+Inf"] == 4

    def test_labelled_histogram(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_test_seconds", labelnames=("outcome",),
                          buckets=(1.0,))
        h.labels(outcome="ok").observe(0.5)
        assert h.snapshot()["values"]['outcome="ok"']["count"] == 1

    @pytest.mark.parametrize(
        "buckets", [DEFAULT_BUCKETS, (1.0,), (0.0, 0.0, 2.5), ()]
    )
    def test_bisected_bucket_is_the_linear_scans(self, buckets):
        """``observe`` finds its bucket by bisection; it is the bucket the
        scan ``first bound with value <= bound, else +Inf`` picks — at every
        bound, the float either side of it, and the non-finite values (NaN
        is <= nothing: the +Inf slot)."""
        values = [0.0, -1.0, math.inf, -math.inf, math.nan]
        for bound in buckets:
            values += [bound, math.nextafter(bound, -math.inf),
                       math.nextafter(bound, math.inf)]
        if buckets:
            values.append(buckets[-1] * 2 + 1)
        for value in values:
            child = _HistogramChild(tuple(buckets))
            child.observe(value)
            scan = next(
                (i for i, bound in enumerate(buckets) if value <= bound),
                len(buckets),
            )
            expected = [0] * (len(buckets) + 1)
            expected[scan] = 1
            assert child.counts == expected, value


class TestRegistry:
    def test_get_or_create_returns_same(self):
        reg = MetricsRegistry()
        assert reg.counter("repro_a_total") is reg.counter("repro_a_total")

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("repro_a_total")
        with pytest.raises(MetricError):
            reg.gauge("repro_a_total")

    def test_reset_zeroes_in_place(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_a_total", labelnames=("k",))
        child = c.labels(k="x")
        child.inc(7)
        reg.reset()
        assert child.value == 0.0  # the cached child, not a replacement
        child.inc()
        assert c.snapshot()["values"]['k="x"'] == 1

    def test_snapshot_is_json_serializable(self):
        reg = MetricsRegistry()
        reg.counter("repro_a_total").inc()
        reg.gauge("repro_b").set(2)
        reg.histogram("repro_c_seconds").observe(3.0)
        json.dumps(reg.snapshot())


# ----------------------------------------------------------------------
# Trace recorder
# ----------------------------------------------------------------------


class TestRecorder:
    def test_null_recorder_is_default_and_noop(self):
        assert trace.RECORDER is NULL
        assert not trace.RECORDER.enabled
        trace.RECORDER.emit(0.0, "anything", x=1)  # must not raise
        assert trace.RECORDER.events() == []
        assert len(trace.RECORDER) == 0

    def test_emit_and_events(self):
        rec = TraceRecorder(capacity=10)
        rec.emit(1.0, "task.start", job="j", stage="s")
        rec.emit(2.0, "task.end", job="j", stage="s")
        events = rec.events()
        assert [e.kind for e in events] == ["task.start", "task.end"]
        assert events[0].fields == {"job": "j", "stage": "s"}

    def test_ring_buffer_drops_oldest(self):
        rec = TraceRecorder(capacity=3)
        for i in range(5):
            rec.emit(float(i), "e", i=i)
        assert rec.dropped == 2
        assert [e.fields["i"] for e in rec.events()] == [2, 3, 4]

    def test_capture_installs_and_restores(self):
        assert trace.RECORDER is NULL
        with trace.capture() as rec:
            assert trace.RECORDER is rec
            assert trace.RECORDER.enabled
        assert trace.RECORDER is NULL

    def test_capture_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with trace.capture():
                raise RuntimeError("boom")
        assert trace.RECORDER is NULL

    def test_install_none_disables(self):
        prev = trace.install(TraceRecorder())
        try:
            trace.install(None)
            assert trace.RECORDER is NULL
        finally:
            trace.install(prev)

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            TraceRecorder(capacity=0)


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------


def _sample_events():
    task = {"job": "j", "stage": "map", "index": 0, "attempt": 0}
    placed = {"machine": 3, "spare": False, "duplicate": False}
    return [
        TraceEvent(1.0, "task.queued", task),
        TraceEvent(2.0, "task.start", {**task, **placed}),
        TraceEvent(9.0, "task.end",
                   {**task, "outcome": "ok", **placed, "start": 2.0, "end": 9.0}),
        TraceEvent(10.0, "control.tick", {
            "predictor": "jockey", "tick": 0, "phase": "tick", "raw": 20,
            "smoothed": 20.0, "allocation": 20, "dead_zone_triggered": False,
            "predicted_remaining": 60.0, "utility": 1.0, "progress": None,
        }),
    ]


class TestJsonl:
    def test_round_trip_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        events = _sample_events()
        assert export.write_jsonl(events, str(path)) == len(events)
        assert export.read_jsonl(str(path)) == events

    def test_round_trip_stream(self):
        buf = io.StringIO()
        events = _sample_events()
        export.write_jsonl(events, buf)
        buf.seek(0)
        assert export.read_jsonl(buf) == events

    def test_bad_line_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ts": 1.0, "kind": "sim.compact", "fields": {"pending": 0}}\n'
                        'not json\n')
        with pytest.raises(export.ExportError):
            export.read_jsonl(str(path))


class TestChromeTrace:
    def test_document_shape(self):
        doc = export.to_chrome_trace(_sample_events())
        assert "traceEvents" in doc
        json.dumps(doc)  # serializable
        phases = [e["ph"] for e in doc["traceEvents"]]
        assert "M" in phases and "i" in phases and "X" in phases

    def test_span_events_carry_duration(self):
        doc = export.to_chrome_trace(_sample_events())
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(spans) == 1
        assert spans[0]["ts"] == pytest.approx(2.0 * 1e6)
        assert spans[0]["dur"] == pytest.approx(7.0 * 1e6)

    def test_write_and_load_round_trip(self, tmp_path):
        path = tmp_path / "chrome.json"
        export.write_chrome_trace(_sample_events(), str(path))
        loaded = export.load_events(str(path))
        assert [(e.kind, e.fields) for e in loaded] == [
            (e.kind, e.fields) for e in _sample_events()
        ]

    def test_load_detects_jsonl(self, tmp_path):
        path = tmp_path / "t.jsonl"
        export.write_jsonl(_sample_events(), str(path))
        assert export.load_events(str(path)) == _sample_events()


#: A finished run's well-formed events, one of each kind the report reads.
FINISHED_RUN = [
    TraceEvent(0.0, "job.allocation", {"job": "job:A", "requested": 10, "applied": 10}),
    TraceEvent(0.0, "control.tick", {
        "predictor": "jockey", "tick": 0, "phase": "initial", "raw": 10,
        "smoothed": 10.0, "allocation": 10, "dead_zone_triggered": False,
        "predicted_remaining": 15.0, "utility": 1.0, "progress": 0.0,
    }),
    TraceEvent(12.0, "task.end", {
        "job": "job:A", "stage": "map", "index": 3, "attempt": 0,
        "outcome": "ok", "machine": 1, "spare": False, "duplicate": False,
        "start": 10.0, "end": 12.0,
    }),
    TraceEvent(20.0, "job.complete", {
        "job": "job:A", "duration": 20.0, "tasks": 1,
        "duplicates_launched": 0, "duplicates_won": 0, "deadline": 60.0,
        "start": 0.0, "end": 20.0,
    }),
]
ALLOCATION, TASK_END, COMPLETE = 0, 2, 3
_DROP = object()
#: Each probe breaks one event of FINISHED_RUN: (event, which part — its
#: "envelope" (JSONL ``ts``/``kind``, Chrome ``ts``/``name``) or its
#: "fields" — key, value; ``_DROP`` removes the key).  The error names the
#: key.
TRACE_PROBES = [
    pytest.param(COMPLETE, "fields", "deadline", True, id="deadline-true"),
    pytest.param(COMPLETE, "fields", "end", math.nan, id="end-nan"),
    pytest.param(COMPLETE, "fields", "end", math.inf, id="end-inf"),
    pytest.param(ALLOCATION, "fields", "applied", 10.7, id="applied-fraction"),
    pytest.param(ALLOCATION, "fields", "applied", "12", id="applied-string"),
    pytest.param(COMPLETE, "fields", "deadline", "60", id="deadline-string"),
    pytest.param(COMPLETE, "envelope", "ts", True, id="ts-true"),
    pytest.param(COMPLETE, "envelope", "ts", math.nan, id="ts-nan"),
    pytest.param(COMPLETE, "envelope", "kind", 5, id="kind-number"),
    pytest.param(COMPLETE, "envelope", "kind", "job.explode", id="unknown-kind"),
    pytest.param(TASK_END, "fields", "colour", "red", id="unknown-field"),
    pytest.param(TASK_END, "fields", "outcome", _DROP, id="missing-field"),
]
#: The Chrome envelope's names for the JSONL envelope's keys.
_CHROME_KEYS = {"kind": "name", "ts": "ts"}


def _broken_trace(tmp_path, fmt, which, part, key, value):
    """FINISHED_RUN written as ``fmt`` with one probe applied; returns the
    path, the broken event's position as the reader names it, and the key
    as the format names it."""
    path = tmp_path / f"t.{fmt}"
    if fmt == "jsonl":
        export.write_jsonl(FINISHED_RUN, str(path))
        records = [json.loads(line) for line in path.read_text().splitlines()]
        record, where = records[which], f"line {which + 1}"
    else:
        export.write_chrome_trace(FINISHED_RUN, str(path))
        document = json.loads(path.read_text())
        records = document["traceEvents"]
        index = [i for i, r in enumerate(records) if r["ph"] != "M"][which]
        record, where = records[index], f"traceEvents[{index}]"
        if part == "envelope":
            key = _CHROME_KEYS[key]
        else:
            part = "args"
    target = record if part == "envelope" else record[part]
    if value is _DROP:
        del target[key]
    else:
        target[key] = value
    if fmt == "jsonl":
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
    else:
        path.write_text(json.dumps(document))
    return str(path), where, key


def _cli_refuses(path):
    """``repro report`` and ``repro trace summarize`` on ``path``: both
    exit 1 with the one-line trace error, naming no Python exception."""
    from repro.cli import main

    messages = []
    for argv in (["report", path], ["trace", "summarize", path]):
        out = io.StringIO()
        assert main(argv, out=out) == 1
        text = out.getvalue()
        assert text.startswith("error: cannot read trace: ")
        assert "Traceback" not in text and "Error:" not in text
        messages.append(text)
    assert messages[0] == messages[1]
    return messages[0]


class TestTraceBoundary:
    """A malformed trace is refused where it is read, naming the event's
    position, kind, job and field, in both formats and from the CLI."""

    @pytest.mark.parametrize("fmt", ["jsonl", "chrome"])
    @pytest.mark.parametrize("which, part, key, value", TRACE_PROBES)
    def test_probe_is_refused_naming_the_offender(self, tmp_path, fmt, which, part, key, value):
        path, where, named = _broken_trace(tmp_path, fmt, which, part, key, value)
        kind = value if key == "kind" else FINISHED_RUN[which].kind
        with pytest.raises(export.ExportError) as raised:
            export.load_events(path)
        message = str(raised.value)
        assert message.startswith(f"{where} (kind {kind!r}, job 'job:A'")
        assert f"'{named}'" in message
        assert _cli_refuses(path) == f"error: cannot read trace: {message}\n"

    @pytest.mark.parametrize("change, why", [
        pytest.param(lambda doc, i: doc["traceEvents"].__setitem__(i, 5),
                     "traceEvents[{i}] must be an object, got int", id="record-not-object"),
        pytest.param(lambda doc, i: doc["traceEvents"][i].__setitem__("args", "x"),
                     "traceEvents[{i}] (kind 'job.allocation'): 'args' must be an object, "
                     "got 'x'", id="args-string"),
        pytest.param(lambda doc, i: doc["traceEvents"][i].__setitem__("ts", "0"),
                     "traceEvents[{i}] (kind 'job.allocation', job 'job:A'): 'ts' must be "
                     "a finite number, got '0'", id="ts-string"),
        pytest.param(lambda doc, i: doc.__setitem__("traceEvents", 5),
                     "{path}: 'traceEvents' must be a list, got 5", id="trace-events-number"),
    ])
    def test_chrome_document_is_refused_naming_the_offender(self, tmp_path, change, why):
        path = tmp_path / "t.json"
        export.write_chrome_trace(FINISHED_RUN, str(path))
        document = json.loads(path.read_text())
        index = [r["ph"] for r in document["traceEvents"]].index("i")
        change(document, index)
        path.write_text(json.dumps(document))
        with pytest.raises(export.ExportError) as raised:
            export.load_events(str(path))
        assert str(raised.value) == why.format(i=index, path=path)
        assert _cli_refuses(str(path)) == f"error: cannot read trace: {raised.value}\n"


class TestSummarize:
    def test_empty(self):
        assert "empty" in export.summarize([])

    def test_counts_per_kind(self):
        text = export.summarize(_sample_events())
        assert "task.end" in text
        assert "control.tick" in text
        assert "4 events" in text

    def test_gap_columns_present(self):
        text = export.summarize(_sample_events())
        assert "p50 gap" in text
        assert "p95 gap" in text

    def test_single_event_kind_has_dash_gaps(self):
        text = export.summarize(_sample_events())
        # Every sample kind has exactly one event, so no gaps exist yet.
        for line in text.splitlines():
            if line.startswith("task.end"):
                assert line.rstrip().endswith("-")

    def test_gap_percentiles_from_regular_cadence(self):
        # 11 ticks every 60s -> 10 gaps, all exactly 60.0.
        events = [
            TraceEvent(60.0 * i, "control.tick", {"tick": i})
            for i in range(11)
        ]
        text = export.summarize(events)
        line = next(
            ln for ln in text.splitlines() if ln.startswith("control.tick")
        )
        cols = line.split()
        assert cols[-2] == "60.00"  # p50 gap
        assert cols[-1] == "60.00"  # p95 gap

    def test_gap_percentiles_spread(self):
        # Nine one-second gaps plus one 100s outlier: p50 stays at the
        # cadence, p95 (nearest rank of 10 gaps) catches the straggler.
        stamps = [float(i) for i in range(10)] + [109.0]
        events = [TraceEvent(ts, "task.start", {}) for ts in stamps]
        line = next(
            ln for ln in export.summarize(events).splitlines()
            if ln.startswith("task.start")
        )
        cols = line.split()
        assert cols[-2] == "1.00"
        assert cols[-1] == "100.00"

    def test_gaps_use_sorted_timestamps(self):
        # Out-of-order delivery must not produce negative gaps.
        events = [
            TraceEvent(ts, "shuffled", {})
            for ts in (30.0, 0.0, 10.0, 20.0)
        ]
        line = next(
            ln for ln in export.summarize(events).splitlines()
            if ln.startswith("shuffled")
        )
        cols = line.split()
        assert cols[-2] == "10.00"
        assert cols[-1] == "10.00"


# ----------------------------------------------------------------------
# Control audit
# ----------------------------------------------------------------------


def _tick(i, raw, prev, alpha=0.5, min_t=1, max_t=100):
    smoothed = audit_mod.apply_hysteresis(prev, raw, alpha)
    return TickRecord(
        tick=i, phase=audit_mod.PHASE_TICK, elapsed=60.0 * i, progress=None,
        candidates=(), raw=raw, dead_zone_triggered=False,
        prev_smoothed=prev, smoothed=smoothed,
        allocation=audit_mod.quantize_allocation(smoothed, min_t, max_t),
        predicted_remaining=0.0, utility=0.0, slack=1.0,
    )


class TestControlAudit:
    def test_reconstruction_matches_records(self):
        records = []
        prev = None
        records.append(TickRecord(
            tick=0, phase=audit_mod.PHASE_INITIAL, elapsed=0.0, progress=0.0,
            candidates=(), raw=20, dead_zone_triggered=False,
            prev_smoothed=None, smoothed=20.0, allocation=20,
            predicted_remaining=0.0, utility=0.0, slack=1.0,
        ))
        prev = 20.0
        for i, raw in enumerate((70, 70, 30), start=1):
            rec = _tick(i, raw, prev)
            records.append(rec)
            prev = rec.smoothed
        replayed = reconstruct_allocations(
            records, hysteresis=0.5, min_tokens=1, max_tokens=100
        )
        assert replayed == [r.allocation for r in records]

    def test_dead_zone_filter(self):
        base = _tick(0, 10, None)
        audit = [base, TickRecord(**{**base.__dict__, "tick": 1,
                                     "dead_zone_triggered": True})]
        assert [r.tick for r in audit if r.dead_zone_triggered] == [1]


# ----------------------------------------------------------------------
# End-to-end: instrumented stack
# ----------------------------------------------------------------------


def _run_small_job():
    from repro.cluster import Cluster, ClusterConfig
    from repro.jobs.workloads import mapreduce_job
    from repro.runtime import JobManager, run_to_completion
    from repro.simkit.events import Simulator
    from repro.simkit.random import RngRegistry

    generated = mapreduce_job(num_maps=30, num_reduces=5)
    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(), rng=RngRegistry(7))
    manager = JobManager(
        cluster, generated.graph, generated.profile,
        initial_allocation=40, rng=RngRegistry(7).stream("t"),
    )
    run_to_completion(manager)
    return sim, manager


class TestEndToEnd:
    def test_task_lifecycle_events_recorded(self):
        with trace.capture(capacity=1 << 18) as rec:
            _sim, manager = _run_small_job()
        kinds = {e.kind for e in rec.events()}
        assert {"task.queued", "task.start", "task.end",
                "tokens.grant", "job.complete"} <= kinds
        ends = [e for e in rec.events() if e.kind == "task.end"]
        ok = [e for e in ends if e.fields["outcome"] == "ok"]
        # every vertex completes exactly once with outcome ok
        assert len(ok) == manager.graph.num_vertices
        for e in ok:
            assert e.fields["end"] >= e.fields["start"]

    def test_disabled_recorder_records_nothing(self):
        assert trace.RECORDER is NULL
        _run_small_job()
        assert trace.RECORDER.events() == []

    def test_task_counters_increment(self):
        reg = metrics.REGISTRY
        before = reg.counter(
            "repro_runtime_tasks_total", labelnames=("outcome",)
        ).labels(outcome="ok").value
        _sim, manager = _run_small_job()
        after = reg.counter(
            "repro_runtime_tasks_total", labelnames=("outcome",)
        ).labels(outcome="ok").value
        assert after - before >= manager.graph.num_vertices

    def test_simulator_publishes_gauges(self):
        sim, _manager = _run_small_job()
        reg = MetricsRegistry()
        sim.publish_metrics(reg)
        snap = reg.snapshot()
        assert snap["repro_simkit_events_dispatched"]["values"][""] > 0
        assert snap["repro_simkit_virtual_time_seconds"]["values"][""] > 0
        assert "repro_simkit_cancelled_pending" in snap


class TestRegistryEnabledFlag:
    def test_default_enabled_and_toggle_returns_previous(self):
        reg = MetricsRegistry()
        assert reg.enabled is True
        assert reg.set_enabled(False) is True
        assert reg.enabled is False
        assert reg.set_enabled(True) is False
        assert reg.enabled is True

    def test_disabled_registry_still_counts_explicit_calls(self):
        # The flag is advisory for hot paths; instruments keep working.
        reg = MetricsRegistry()
        counter = reg.counter("explicit_total", "d")
        reg.set_enabled(False)
        counter.inc()
        assert counter.value == 1
