"""Trace exporters: JSONL, Chrome trace-event format, and a text summary.

* :func:`write_jsonl` / :func:`read_jsonl` — lossless line-per-event
  round-trip for archival and diffing.
* :func:`to_chrome_trace` / :func:`write_chrome_trace` — the Chrome
  ``chrome://tracing`` / Perfetto trace-event format, so a whole simulated
  timeline opens in https://ui.perfetto.dev.  Events carrying both
  ``start`` and ``end`` fields become complete (``"X"``) spans; everything
  else becomes an instant.  One virtual second maps to one trace second
  (the format's ``ts`` unit is microseconds).
* :func:`summarize` — a plain-text per-kind table for quick inspection
  (``repro trace summarize <file>``).

Both readers decode every event through one decoder: its kind must be
declared in :data:`~repro.telemetry.trace.EVENTS`, and its fields go
through :func:`repro.persist.spec_fields` against that declaration, so a
malformed file is an :class:`ExportError` naming the event's position,
kind, job and field.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, IO, Iterable, List, Sequence, Union

from repro.telemetry.trace import EVENTS, OPTIONAL_FIELDS, TraceEvent

PathOrFile = Union[str, IO[str]]


class ExportError(ValueError):
    """Raised when a trace file cannot be parsed."""


#: The envelope of one JSONL line and of one Chrome trace event record.
_JSONL_RECORD = {"ts": float, "kind": str, "fields": Any}
_CHROME_RECORD = {
    "name": str, "cat": str, "ph": str, "pid": int, "tid": int,
    "ts": float, "dur": float, "s": str, "args": Any,
}
_CHROME_DOCUMENT = {"traceEvents": List[Any], "displayTimeUnit": str}


def _decode_event(record, where: str, envelope: Dict[str, Any], kind: str,
                  fields: str, scale: float = 1.0) -> TraceEvent:
    """The event a file ``record`` at position ``where`` holds, its kind
    under key ``kind``, its fields under ``fields`` and its ``ts`` divided
    by ``scale``.  The kind must be declared in :data:`EVENTS` and the
    fields must match the declaration; anything else raises
    :class:`ExportError` naming ``where``, the kind, the job (and stage)
    and the field."""
    from repro import persist  # deferred: the control loop imports telemetry

    if not isinstance(record, dict):
        raise ExportError(f"{where} must be an object, got {type(record).__name__}")
    data = record.get(fields)
    names = [f"kind {record.get(kind, '?')!r}"]
    if isinstance(data, dict):
        names += [f"{key} {data[key]!r}" for key in ("job", "stage") if key in data]
    path = f"{where} ({', '.join(names)})"
    values = persist.spec_fields(
        record, envelope, ExportError, path=path, required=("ts", kind, fields)
    )
    name, data = values[kind], values[fields]
    if not isinstance(data, dict):
        raise ExportError(f"{path}: '{fields}' must be an object, got {data!r}")
    if name not in EVENTS:
        raise ExportError(f"{path}: '{kind}' must be a declared event kind, got {name!r}")
    optional = OPTIONAL_FIELDS.get(name, ())
    return TraceEvent(values["ts"] / scale, name, persist.spec_fields(
        data, EVENTS[name], ExportError, path=path,
        required=[field for field in EVENTS[name] if field not in optional],
    ))


def _open_maybe(path_or_file: PathOrFile, mode: str):
    if hasattr(path_or_file, "write") or hasattr(path_or_file, "read"):
        return path_or_file, False
    return open(path_or_file, mode, encoding="utf-8"), True


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------


def write_jsonl(events: Iterable[TraceEvent], path_or_file: PathOrFile) -> int:
    """Write one JSON object per line; returns the number written."""
    fh, owned = _open_maybe(path_or_file, "w")
    try:
        count = 0
        for event in events:
            fh.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
            count += 1
        return count
    finally:
        if owned:
            fh.close()


def read_jsonl(path_or_file: PathOrFile) -> List[TraceEvent]:
    fh, owned = _open_maybe(path_or_file, "r")
    try:
        events = []
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ExportError(f"bad JSONL at line {lineno}: {exc}") from exc
            events.append(_decode_event(
                record, f"line {lineno}", _JSONL_RECORD, "kind", "fields"
            ))
        return events
    finally:
        if owned:
            fh.close()


# ----------------------------------------------------------------------
# Chrome trace-event format
# ----------------------------------------------------------------------

_SECONDS_TO_US = 1e6


def _track_name(event: TraceEvent) -> str:
    """Perfetto track: group task events by job/stage, the rest by layer."""
    fields = event.fields
    job = fields.get("job")
    stage = fields.get("stage")
    if job is not None and stage is not None:
        return f"{job}/{stage}"
    if job is not None:
        return str(job)
    return event.kind.split(".", 1)[0]


def to_chrome_trace(events: Sequence[TraceEvent]) -> Dict[str, object]:
    """Convert events to a ``{"traceEvents": [...]}`` document."""
    tids: Dict[str, int] = {}
    trace_events: List[Dict[str, object]] = []
    for event in events:
        track = _track_name(event)
        tid = tids.get(track)
        if tid is None:
            tid = len(tids) + 1
            tids[track] = tid
        fields = event.fields
        category = event.kind.split(".", 1)[0]
        record: Dict[str, object] = {
            "name": event.kind,
            "cat": category,
            "pid": 1,
            "tid": tid,
            "args": fields,
        }
        start = fields.get("start")
        end = fields.get("end")
        if isinstance(start, (int, float)) and isinstance(end, (int, float)) and end >= start:
            record["ph"] = "X"
            record["ts"] = start * _SECONDS_TO_US
            record["dur"] = (end - start) * _SECONDS_TO_US
        else:
            record["ph"] = "i"
            record["ts"] = event.ts * _SECONDS_TO_US
            record["s"] = "t"
        trace_events.append(record)
    metadata = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": tid,
            "args": {"name": track},
        }
        for track, tid in tids.items()
    ]
    return {"traceEvents": metadata + trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(events: Sequence[TraceEvent], path_or_file: PathOrFile) -> int:
    """Write the Chrome-trace JSON document; returns the event count."""
    document = to_chrome_trace(events)
    fh, owned = _open_maybe(path_or_file, "w")
    try:
        json.dump(document, fh)
        fh.write("\n")
    finally:
        if owned:
            fh.close()
    return len(events)


def load_events(path: str) -> List[TraceEvent]:
    """Load a trace from disk, auto-detecting JSONL vs Chrome format."""
    with open(path, "r", encoding="utf-8") as fh:
        head = fh.read(4096)
        fh.seek(0)
        stripped = head.lstrip()
        if not stripped:
            return []
        first_line = stripped.splitlines()[0]
        try:
            parsed = json.loads(first_line)
        except json.JSONDecodeError:
            parsed = None
        if isinstance(parsed, dict) and "kind" in parsed:
            return read_jsonl(fh)
        try:
            document = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ExportError(f"{path}: neither JSONL nor Chrome trace: {exc}") from exc
        if not isinstance(document, dict) or "traceEvents" not in document:
            raise ExportError(f"{path}: JSON but not a Chrome trace document")
    from repro import persist  # deferred: the control loop imports telemetry

    records = persist.spec_fields(
        document, _CHROME_DOCUMENT, ExportError, path=path, required=("traceEvents",)
    )["traceEvents"]
    # The "M" (track-name) records are the writer's own.
    return [
        _decode_event(
            record, f"traceEvents[{i}]", _CHROME_RECORD, "name", "args", _SECONDS_TO_US
        )
        for i, record in enumerate(records)
        if not (isinstance(record, dict) and record.get("ph") == "M")
    ]


# ----------------------------------------------------------------------
# Text summary
# ----------------------------------------------------------------------


def _gap_percentile(sorted_gaps: List[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted non-empty list."""
    idx = min(len(sorted_gaps) - 1, max(0, math.ceil(q * len(sorted_gaps)) - 1))
    return sorted_gaps[idx]


def summarize(events: Sequence[TraceEvent]) -> str:
    """A per-kind table — count, first/last timestamp, and p50/p95
    inter-event time gaps — plus the overall span.

    The gap columns localize hot event classes straight from a trace: a
    kind with thousands of events and a sub-second p50 gap is where the
    simulator spends its dispatches, before any profiler runs.
    """
    if not events:
        return "trace: empty (0 events)\n"
    by_kind: Dict[str, List[float]] = {}
    for event in events:
        by_kind.setdefault(event.kind, []).append(event.ts)
    lo = min(e.ts for e in events)
    hi = max(e.ts for e in events)
    lines = [
        f"trace: {len(events)} events, {len(by_kind)} kinds, "
        f"virtual span {lo:.1f}s .. {hi:.1f}s ({hi - lo:.1f}s)",
        "",
        f"{'kind':30s} {'count':>8s} {'first':>10s} {'last':>10s} "
        f"{'p50 gap':>10s} {'p95 gap':>10s}",
        "-" * 84,
    ]
    for kind in sorted(by_kind):
        stamps = sorted(by_kind[kind])
        gaps = sorted(
            b - a for a, b in zip(stamps, stamps[1:])
        )
        if gaps:
            p50 = f"{_gap_percentile(gaps, 0.50):10.2f}"
            p95 = f"{_gap_percentile(gaps, 0.95):10.2f}"
        else:
            p50 = f"{'-':>10s}"
            p95 = f"{'-':>10s}"
        lines.append(
            f"{kind:30s} {len(stamps):8d} {stamps[0]:10.1f} "
            f"{stamps[-1]:10.1f} {p50} {p95}"
        )
    return "\n".join(lines) + "\n"


__all__ = [
    "ExportError",
    "load_events",
    "read_jsonl",
    "summarize",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]
