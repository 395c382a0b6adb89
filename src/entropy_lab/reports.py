"""Report assembly and rendering for the command line front end.

One command produces one Report: a JSON-ready document plus a tabular view
(header and rows) and human-oriented summary lines.  All three output
formats are derived from the same numbers; floats render at 17 significant
digits in csv and shortest round-trip form in json, so both are lossless
and byte-stable across runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from ._errors import ValidationError

LN2 = math.log(2.0)

__all__ = ["LN2", "Report", "fmt", "convert_units"]


def fmt(value) -> str:
    """Render one cell: floats at 17 significant digits, the rest via str."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return str(value)
    if isinstance(value, int):
        return str(value)
    return format(value, ".17g")


def convert_units(value: float, units: str) -> float:
    """Entropy unit conversion at the presentation boundary (nats internally)."""
    if units == "nats":
        return value
    if units == "bits":
        return value / LN2
    raise ValidationError(f"unknown units {units!r}")


@dataclass
class Report:
    """Rendered-format-agnostic command output."""

    doc: dict
    columns: list = field(default_factory=list)
    rows: list = field(default_factory=list)
    summary: list = field(default_factory=list)

    def render(self, format: str) -> str:
        if format == "json":
            return json.dumps(self.doc, indent=2, allow_nan=False) + "\n"
        if format == "csv":
            lines = [",".join(self.columns)]
            lines += [",".join(fmt(cell) for cell in row) for row in self.rows]
            return "\n".join(lines) + "\n"
        if format == "table":
            return self._table()
        raise ValidationError(f"unknown format {format!r}")

    def _table(self) -> str:
        lines = list(self.summary)
        if self.rows:
            if lines:
                lines.append("")
            cells = [[fmt(c) for c in row] for row in self.rows]
            header = [str(c) for c in self.columns]
            widths = [
                max(len(header[j]), *(len(r[j]) for r in cells)) if cells else len(header[j])
                for j in range(len(header))
            ]
            lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
            for r in cells:
                lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
        return "\n".join(lines) + "\n"
