"""Performance observatory: hot-path instrumentation, profiling, digests.

* :mod:`repro.perf.instrument` — hierarchical phase timers, counters, and
  latency recorders with near-zero cost when disabled (the same advisory
  single-attribute-check trick as the trace recorder and the metrics
  registry's ``enabled`` flag).
* :mod:`repro.perf.profile` — cProfile/pstats wrapper with collapsed-stack
  (flamegraph-ready) export and a deterministic text summary.
* :mod:`repro.perf.digest` — schema-stamped digests with host metadata
  (``repro perf run --json-out``, ``repro loadgen``).

The module-level :data:`~repro.perf.instrument.COLLECTOR` starts as the
no-op :data:`~repro.perf.instrument.NULL` collector; ``repro perf run``
installs a live :class:`PerfCollector` for the span it measures.
Instrumented seams only ever touch *wall* time — virtual time, RNG
streams, and traces are byte-identical whether collection is on or off.
"""

from repro.perf.digest import (
    SCHEMA_VERSION,
    host_metadata,
    peak_rss_kb,
    read_digest,
    stamp,
    write_digest,
)
from repro.perf.instrument import (
    NULL,
    COLLECTOR,
    NullCollector,
    PerfCollector,
    PerfError,
    collecting,
    install,
    render_snapshot,
)
from repro.perf.profile import ProfileSession, profiling

__all__ = [
    "COLLECTOR",
    "NULL",
    "NullCollector",
    "PerfCollector",
    "PerfError",
    "ProfileSession",
    "SCHEMA_VERSION",
    "collecting",
    "host_metadata",
    "install",
    "peak_rss_kb",
    "profiling",
    "read_digest",
    "render_snapshot",
    "stamp",
    "write_digest",
]
