"""Metrics registry: Counters, Gauges, and Histograms with label support.

Instruments follow the Prometheus data model but stay in-process: the
simulator is single-threaded virtual time, so there are no locks and no
scrape endpoint — a registry snapshots to a plain dict for tests, JSON
export (``repro run --metrics-out``), and experiment reports.

Naming convention (enforced loosely, documented in README):

    repro_<layer>_<name>[_total|_seconds]

e.g. ``repro_runtime_tasks_total{outcome="evicted"}`` or
``repro_simkit_pending_events``.  Modules create their instruments once at
import time against the process-wide :data:`REGISTRY`; ``reset()`` zeroes
values *in place* so those cached instruments stay valid across tests.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


class MetricError(ValueError):
    """Raised on invalid metric names, labels, or type mismatches."""


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise MetricError(f"invalid metric name {name!r}")
    return name


def _label_key(labelnames: Sequence[str], labels: Mapping[str, object]) -> Tuple[str, ...]:
    if set(labels) != set(labelnames):
        raise MetricError(
            f"labels {sorted(labels)} do not match declared {sorted(labelnames)}"
        )
    return tuple(str(labels[name]) for name in labelnames)


def _render_key(labelnames: Sequence[str], key: Tuple[str, ...]) -> str:
    if not labelnames:
        return ""
    return ",".join(f'{n}="{v}"' for n, v in zip(labelnames, key))


class _CounterChild:
    """One (metric, label-set) counter cell."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError(f"counters only go up, got {amount!r}")
        self.value += amount

    def reset(self) -> None:
        self.value = 0.0

    def snapshot(self):
        return self.value


class _GaugeChild:
    """One (metric, label-set) gauge cell."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def reset(self) -> None:
        self.value = 0.0

    def snapshot(self):
        return self.value


#: Default histogram buckets, in seconds of virtual time (task runtimes and
#: job durations both land comfortably inside this range).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0, 5000.0, 10000.0,
)


class _HistogramChild:
    """One (metric, label-set) histogram: cumulative buckets + sum/count."""

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: Tuple[float, ...]):
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)  # +1 for +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        # The first bound >= value, or the +Inf slot past the last one; NaN
        # is <= no bound, which bisection alone would file under the first.
        slot = bisect_left(self.buckets, value) if value == value else -1
        self.counts[slot] += 1

    def reset(self) -> None:
        self.counts = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0

    def snapshot(self):
        cumulative = 0
        out: Dict[str, object] = {"buckets": {}}
        for bound, n in zip(self.buckets, self.counts):
            cumulative += n
            out["buckets"][repr(bound)] = cumulative
        out["buckets"]["+Inf"] = cumulative + self.counts[-1]
        out["sum"] = self.sum
        out["count"] = self.count
        return out


_CHILD_TYPES = {
    "counter": _CounterChild,
    "gauge": _GaugeChild,
    "histogram": _HistogramChild,
}


class Metric:
    """A named instrument with zero or more label dimensions.

    With no labels, the instrument methods (``inc``/``set``/``observe``)
    apply directly; with labels, call :meth:`labels` to get (and cache) the
    per-label-set child.
    """

    def __init__(
        self,
        kind: str,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        *,
        buckets: Optional[Sequence[float]] = None,
    ):
        self.kind = kind
        self.name = _check_name(name)
        self.help = help
        self.labelnames = tuple(labelnames)
        for label in self.labelnames:
            _check_name(label)
        self._buckets = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
        if kind == "histogram" and list(self._buckets) != sorted(self._buckets):
            raise MetricError("histogram buckets must be sorted ascending")
        self._children: Dict[Tuple[str, ...], object] = {}
        if not self.labelnames:
            self._default = self._make_child()
            self._children[()] = self._default
        else:
            self._default = None

    def _make_child(self):
        if self.kind == "histogram":
            return _HistogramChild(self._buckets)
        return _CHILD_TYPES[self.kind]()

    def labels(self, **labels):
        key = _label_key(self.labelnames, labels)
        child = self._children.get(key)
        if child is None:
            child = self._make_child()
            self._children[key] = child
        return child

    def cell(self, *values: str):
        """``labels`` by position, for string values in ``labelnames``
        order: one dict read once :meth:`labels` has checked and made the
        label set, so a hot path does not re-validate it on every call."""
        child = self._children.get(values)
        if child is None:
            if len(values) != len(self.labelnames):
                raise MetricError(
                    f"{self.name!r} takes labels {self.labelnames}, "
                    f"got {len(values)} values"
                )
            child = self.labels(**dict(zip(self.labelnames, values)))
        return child

    def _require_default(self):
        if self._default is None:
            raise MetricError(
                f"{self.name!r} has labels {self.labelnames}; use .labels()"
            )
        return self._default

    # Convenience pass-throughs for label-less instruments.
    def inc(self, amount: float = 1.0) -> None:
        self._require_default().inc(amount)

    def set(self, value: float) -> None:
        self._require_default().set(value)

    def dec(self, amount: float = 1.0) -> None:
        self._require_default().dec(amount)

    def observe(self, value: float) -> None:
        self._require_default().observe(value)

    @property
    def value(self):
        return self._require_default().value

    def reset(self) -> None:
        for child in self._children.values():
            child.reset()

    def children(self) -> List[Tuple[Tuple[Tuple[str, str], ...], object]]:
        """Sorted ``((label, value), ...) -> child`` items for exporters.
        Sorting by label values (creation order varies run to run) keeps
        every export — JSON snapshot, Prometheus text — deterministic."""
        return [
            (tuple(zip(self.labelnames, key)), child)
            for key, child in sorted(self._children.items())
        ]

    def snapshot(self) -> Dict[str, object]:
        return {
            "type": self.kind,
            "help": self.help,
            "values": {
                _render_key(self.labelnames, key): child.snapshot()
                for key, child in sorted(self._children.items())
            },
        }


class MetricsRegistry:
    """Holds the process's instruments; get-or-create by name.

    ``enabled`` is an advisory flag for hot paths: instruments always
    work, but loops that would pay per-iteration ``.labels()``/``.inc()``
    dict lookups may check it once up front and skip recording entirely
    (see ``repro.core.simulator``).  It defaults to on.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}
        self.enabled = True

    def set_enabled(self, enabled: bool) -> bool:
        """Flip the advisory hot-path flag; returns the previous value."""
        previous = self.enabled
        self.enabled = bool(enabled)
        return previous

    def _get_or_create(self, kind: str, name: str, help: str,
                       labelnames: Sequence[str], **kwargs) -> Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if existing.kind != kind or existing.labelnames != tuple(labelnames):
                raise MetricError(
                    f"metric {name!r} already registered as {existing.kind} "
                    f"with labels {existing.labelnames}"
                )
            return existing
        metric = Metric(kind, name, help, labelnames, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> Metric:
        return self._get_or_create("counter", name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> Metric:
        return self._get_or_create("gauge", name, help, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Optional[Sequence[float]] = None) -> Metric:
        return self._get_or_create("histogram", name, help, labelnames,
                                   buckets=buckets)

    def get(self, name: str) -> Metric:
        try:
            return self._metrics[name]
        except KeyError:
            raise MetricError(f"unknown metric {name!r}") from None

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def reset(self) -> None:
        """Zero every value *in place* — cached children stay valid."""
        for metric in self._metrics.values():
            metric.reset()

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-serializable dump of every instrument."""
        return {name: m.snapshot() for name, m in sorted(self._metrics.items())}


#: Process-wide default registry; modules bind instruments to it at import.
REGISTRY = MetricsRegistry()


__all__ = [
    "DEFAULT_BUCKETS",
    "Metric",
    "MetricError",
    "MetricsRegistry",
    "REGISTRY",
]
