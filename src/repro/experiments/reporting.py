"""Plain-text rendering of experiment outputs.

Every experiment driver returns an :class:`ExperimentReport` whose
``render()`` prints the same rows/series the paper's table or figure shows,
so the output can be compared side-by-side with the publication.
:func:`write_results` is the one place a report becomes a file.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import persist
from repro.experiments.metrics import Claim, verdict


def format_cell(value) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 100:
            return f"{value:.0f}"
        return f"{value:.2f}".rstrip("0").rstrip(".")
    return str(value)


def ascii_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """A boxless, aligned text table."""
    cells = [[format_cell(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}: {row}"
            )
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append("  ".join(c.rjust(widths[i]) for i, c in enumerate(row)))
    return "\n".join(lines)


@dataclass
class ExperimentReport:
    """A regenerated table/figure: identification, rows, and commentary."""

    experiment_id: str            # e.g. "table1", "fig4"
    title: str
    headers: List[str] = field(default_factory=list)
    rows: List[List] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: Free-form extra sections appended after the main table.
    extra_sections: List[str] = field(default_factory=list)
    #: Machine-readable twin of the report (the sweep drivers set it):
    #: deterministic for a given seed/scale at any worker count.
    digest: Optional[Dict] = None
    #: ``(claim, (wins, losses))`` per claim judged on this report's runs,
    #: rendered as a verdict section; ``repro experiment`` pools them.
    tallies: List[Tuple[Claim, Tuple[int, int]]] = field(default_factory=list)

    def add_row(self, *cells) -> None:
        self.rows.append(list(cells))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def add_section(self, text: str) -> None:
        self.extra_sections.append(text)

    def render(self) -> str:
        parts = [f"== {self.experiment_id}: {self.title} =="]
        if self.headers:
            parts.append(ascii_table(self.headers, self.rows))
        parts.extend(self.extra_sections)
        if self.tallies:
            parts.append("claims (exact paired sign test, one-sided 5% each "
                         "way; ties dropped):\n" + claims_table(self.tallies))
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n".join(parts)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


def write_results(reports: Sequence[ExperimentReport], out_dir) -> List[pathlib.Path]:
    """Write each report's rendering to ``out_dir/<experiment_id>.txt``
    (``+`` in an id becomes ``_``) and, for a report that carries a digest,
    ``out_dir/exp_<experiment_id>.json``; returns the paths written."""
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for report in reports:
        name = report.experiment_id.replace("+", "_")
        if report.digest is None:
            path = out_dir / f"{name}.txt"
            persist.write_text(path, report.render() + "\n")
        else:
            path = out_dir / f"exp_{name}.json"
            persist.write_json(path, report.digest, indent=2)
        written.append(path)
    return written


def claims_table(tallies: Sequence[Tuple[Claim, Tuple[int, int]]]) -> str:
    """One verdict row per claim; tallies of one claim (several seed
    roots) pool by addition."""
    pooled: Dict[Claim, Tuple[int, int]] = {}
    for claim, (wins, losses) in tallies:
        w, l = pooled.get(claim, (0, 0))
        pooled[claim] = (w + wins, l + losses)
    rows = []
    for claim, (wins, losses) in pooled.items():
        v = verdict(wins, losses)
        rows.append([claim.name, claim.paper, v.reading, wins + losses, f"{wins}-{losses}",
                     f"[{v.low:.2f}, {v.high:.2f}]", f"{v.p:.2g}"])
    return ascii_table(
        ["claim", "paper", "verdict", "n", "for-against", "90% interval", "p"], rows
    )


def scorecard_section(
    cards: Sequence,
    *,
    caption: str = "Prediction scorecards (predicted vs realized remaining time)",
) -> str:
    """Render :class:`~repro.telemetry.scorecard.Scorecard`\\ s as an extra
    report section (empty string when there are none, so callers can
    ``add_section`` unconditionally only after checking)."""
    from repro.telemetry.scorecard import SCORECARD_HEADERS, scorecard_rows

    cards = [c for c in cards if c.ticks]
    if not cards:
        return ""
    return caption + ":\n" + ascii_table(list(SCORECARD_HEADERS), scorecard_rows(cards))


def policy_scorecards(results: Sequence, kinds: Sequence[str]) -> List:
    """One pooled scorecard per adaptive policy kind: every run's audit-trail
    predictions joined against that run's realized remaining time."""
    from repro.telemetry import scorecard as tscorecard

    cards = []
    for kind in kinds:
        per_run = [
            tscorecard.from_audit(r.audit_records, r.trace.duration, name=kind)
            for r in results
            if r.metrics.policy == kind and r.audit_records
        ]
        if per_run:
            cards.append(tscorecard.merge(kind, per_run))
    return cards


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """A coarse text sparkline for time series (Fig. 6/7 renderings)."""
    if not values:
        return ""
    blocks = " ▁▂▃▄▅▆▇█"
    lo, hi = min(values), max(values)
    span = hi - lo or 1.0
    if len(values) > width:
        step = len(values) / width
        values = [values[int(i * step)] for i in range(width)]
    return "".join(blocks[1 + int((v - lo) / span * (len(blocks) - 2))] for v in values)


__all__ = [
    "ExperimentReport",
    "ascii_table",
    "claims_table",
    "format_cell",
    "scorecard_section",
    "sparkline",
    "write_results",
]
