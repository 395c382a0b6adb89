"""Report assembly and rendering for the command line front end.

One command produces one Report: a JSON-ready document plus a tabular view
(header and rows) and human-oriented summary lines.  All three output
formats are derived from the same numbers; floats render at 17 significant
digits in csv and shortest round-trip form in json, so both are lossless
and byte-stable across runs.  JSON is the C encoder's compact output laid
out exactly as ``json.dumps(doc, indent=2, allow_nan=False)`` lays it out:
the standard library falls back to its pure-Python encoder whenever
``indent`` is set, which steps a generator once per list item.
"""

from __future__ import annotations

import functools
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


_SCALARS = frozenset({str, int, float, bool, type(None)})


@functools.cache
def _encoder(inner: str) -> json.JSONEncoder:
    """The C encoder, with items separated by a new line indented to ``inner``."""
    return json.JSONEncoder(allow_nan=False, separators=(",\n" + inner, ": "))


def _json(value, indent: str) -> str:
    """``json.dumps(value, indent=2, allow_nan=False)`` for a value nested at ``indent``.

    Each container is encoded in one C call, its nested containers replaced
    by the one-character placeholder 0, and its brackets moved onto lines of
    their own.  The encoder escapes every control character, so a raw new
    line occurs only in the item separator; splitting on it gives the items,
    and each placeholder is replaced by its container, rendered one level in.
    """
    is_dict = isinstance(value, dict)
    if not (is_dict or isinstance(value, (list, tuple))):
        return _encoder(indent).encode(value)
    if not value:
        return "{}" if is_dict else "[]"
    inner = indent + "  "
    encoder = _encoder(inner)
    children = value.values() if is_dict else value
    if _SCALARS.issuperset(map(type, children)):
        text = encoder.encode(value)
        return f"{text[0]}\n{inner}{text[1:-1]}\n{indent}{text[-1]}"
    nested = {i: child for i, child in enumerate(children) if type(child) not in _SCALARS}
    flat = [0 if i in nested else child for i, child in enumerate(children)]
    text = encoder.encode(dict(zip(value, flat)) if is_dict else flat)
    items = text[1:-1].split(",\n" + inner)
    for i, child in nested.items():
        items[i] = items[i][:-1] + _json(child, inner)
    return f"{text[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{text[-1]}"


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
            return _json(self.doc, "") + "\n"
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
