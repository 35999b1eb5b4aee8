"""Prometheus text-format exposition.

:func:`render_prometheus` renders a :class:`~repro.telemetry.metrics.MetricsRegistry`
in the Prometheus text format (version 0.0.4): ``# HELP`` / ``# TYPE``
comments, one sample per line, histograms expanded to cumulative
``_bucket{le=...}`` series plus ``_sum``/``_count``.  Output is fully
deterministic — metrics sorted by name, label sets sorted by value — so
exposition diffs are stable across runs.

The live arbiter serves that rendering on its ``/metrics``
(:mod:`repro.service.server`, ``repro serve``); a batch run writes the
same registry with ``repro run --metrics-out``.

:func:`parse_prometheus` is a strict line-grammar parser used by tests to
assert the rendering stays valid, and handy for scripted scraping.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.telemetry import metrics as _metrics

class ExpositionError(ValueError):
    """Raised when exposition text does not match the format grammar."""


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    # Integral floats render without the trailing ".0" (Prometheus style).
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.10g}"


def _label_string(pairs: Tuple[Tuple[str, str], ...]) -> str:
    if not pairs:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(value)}"' for name, value in pairs
    )
    return "{" + inner + "}"


def render_prometheus(registry: Optional[_metrics.MetricsRegistry] = None) -> str:
    """The registry in Prometheus text format 0.0.4 (deterministic)."""
    reg = registry if registry is not None else _metrics.REGISTRY
    lines: List[str] = []
    for name in reg.names():
        metric = reg.get(name)
        if metric.help:
            lines.append(f"# HELP {name} {_escape_help(metric.help)}")
        lines.append(f"# TYPE {name} {metric.kind}")
        for pairs, child in metric.children():
            if metric.kind == "histogram":
                snap = child.snapshot()
                for bound, cumulative in snap["buckets"].items():
                    bucket_pairs = pairs + (("le", bound),)
                    lines.append(
                        f"{name}_bucket{_label_string(bucket_pairs)} "
                        f"{_format_value(float(cumulative))}"
                    )
                lines.append(
                    f"{name}_sum{_label_string(pairs)} "
                    f"{_format_value(snap['sum'])}"
                )
                lines.append(
                    f"{name}_count{_label_string(pairs)} "
                    f"{_format_value(float(snap['count']))}"
                )
            else:
                lines.append(
                    f"{name}{_label_string(pairs)} {_format_value(child.value)}"
                )
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Grammar parser (strict; used to validate the rendering)
# ----------------------------------------------------------------------

_METRIC_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_HELP_RE = re.compile(rf"^# HELP ({_METRIC_NAME}) (.*)$")
_TYPE_RE = re.compile(
    rf"^# TYPE ({_METRIC_NAME}) (counter|gauge|histogram|summary|untyped)$"
)
_SAMPLE_RE = re.compile(
    rf"^({_METRIC_NAME})"
    r"(?:\{([a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\""
    r"(?:,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\")*)\})?"
    r" ([^ ]+)(?: (-?[0-9]+))?$"
)
_VALUE_RE = re.compile(
    r"^(?:[+-]?(?:[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?)|\+Inf|-Inf|NaN)$"
)


def parse_prometheus(text: str) -> Dict[str, Dict[str, float]]:
    """Parse text-format exposition; raises :class:`ExpositionError` on any
    line that violates the grammar.  Returns
    ``{sample_name: {label_string: value}}`` (label string as written,
    ``""`` for bare samples)."""
    samples: Dict[str, Dict[str, float]] = {}
    typed: Dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            if line.startswith("# HELP "):
                if not _HELP_RE.match(line):
                    raise ExpositionError(f"line {lineno}: bad HELP: {line!r}")
            elif line.startswith("# TYPE "):
                match = _TYPE_RE.match(line)
                if not match:
                    raise ExpositionError(f"line {lineno}: bad TYPE: {line!r}")
                typed[match.group(1)] = match.group(2)
            # other comments are legal and ignored
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ExpositionError(f"line {lineno}: bad sample: {line!r}")
        name, labels, value, _ts = match.groups()
        if not _VALUE_RE.match(value):
            raise ExpositionError(f"line {lineno}: bad value {value!r}")
        parsed = {
            "+Inf": float("inf"),
            "-Inf": float("-inf"),
            "NaN": float("nan"),
        }.get(value)
        samples.setdefault(name, {})[labels or ""] = (
            parsed if parsed is not None else float(value)
        )
    return samples


__all__ = [
    "ExpositionError",
    "parse_prometheus",
    "render_prometheus",
]
