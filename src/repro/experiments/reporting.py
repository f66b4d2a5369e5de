"""Plain-text reporting utilities shared by all experiments.

Every experiment runner produces an :class:`ExperimentReport` — a titled
table plus free-form notes — which renders to aligned monospace text.
The goal is that ``python -m repro.experiments <name>`` prints the same
rows/series the corresponding table or figure of the paper reports, so
the two can be compared side by side.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence


def format_cell(value: object) -> str:
    """Render a table cell: floats get 3 decimals, everything else ``str``."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Format rows as an aligned plain-text table with a header rule."""
    rendered_rows = [[format_cell(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(cell))
            else:
                widths.append(len(cell))
    def line(cells: Sequence[str]) -> str:
        padded = [cell.ljust(widths[index]) for index, cell in enumerate(cells)]
        return "  ".join(padded).rstrip()
    rule = "  ".join("-" * width for width in widths)
    body = [line(list(headers)), rule]
    body.extend(line(row) for row in rendered_rows)
    return "\n".join(body)


def ascii_bar(value: float, maximum: float, width: int = 40) -> str:
    """A proportional bar of ``#`` characters (used for text histograms)."""
    if maximum <= 0:
        return ""
    filled = int(round(width * value / maximum))
    return "#" * max(0, min(width, filled))


def histogram_rows(
    values: Sequence[float],
    bin_edges: Sequence[float],
) -> List[List[object]]:
    """Bucket ``values`` into ``[edge_i, edge_{i+1})`` bins and render bar rows.

    A value below the first edge or at or above the last counts in a
    ``[-inf, first)`` or ``[last, inf)`` row, shown only when non-empty.
    Returns rows of ``[range label, count, bar]``.
    """
    if len(bin_edges) < 2:
        raise ValueError("need at least two bin edges")
    edges = [float("-inf"), *bin_edges, float("inf")]
    counts = [0] * (len(edges) - 1)
    for value in values:
        counts[bisect_right(edges, value) - 1] += 1
    maximum = max(counts)
    rows: List[List[object]] = []
    for index, count in enumerate(counts):
        if count or 0 < index < len(counts) - 1:
            label = f"[{edges[index]:g}, {edges[index + 1]:g})"
            rows.append([label, count, ascii_bar(count, maximum)])
    return rows


@dataclass
class ExperimentReport:
    """The output of one experiment runner."""

    experiment: str
    title: str
    headers: Sequence[str]
    rows: List[Sequence[object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: Free-form key/value summary (e.g. average speedups), also rendered.
    summary: Dict[str, object] = field(default_factory=dict)

    def render(self) -> str:
        """Render the report as plain text."""
        parts = [f"== {self.experiment}: {self.title} =="]
        if self.rows:
            parts.append(format_table(self.headers, self.rows))
        if self.summary:
            parts.append("")
            parts.append("Summary:")
            for key, value in self.summary.items():
                parts.append(f"  {key}: {format_cell(value)}")
        if self.notes:
            parts.append("")
            for note in self.notes:
                parts.append(f"note: {note}")
        return "\n".join(parts)

    def as_dict(self) -> Dict[str, object]:
        """A JSON-friendly representation of the report."""
        return {
            "experiment": self.experiment,
            "title": self.title,
            "headers": list(self.headers),
            "rows": [list(row) for row in self.rows],
            "summary": dict(self.summary),
            "notes": list(self.notes),
        }
