"""Plain-text rendering of experiment data for the command line.

Keeps the formatting logic out of :mod:`repro.cli`: a list of dict rows
becomes a fixed-width text table, and a dict of named series becomes a short
listing.  No plotting libraries are required anywhere in the package.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence


def format_value(value: object, precision: int = 3) -> str:
    """Format one cell: floats rounded, booleans as Y/N, everything else str()."""
    if isinstance(value, bool):
        return "Y" if value else "N"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e5 or abs(value) < 1e-3:
            return f"{value:.2e}"
        return f"{value:.{precision}f}".rstrip("0").rstrip(".")
    return str(value)


def render_table(rows: Sequence[Mapping[str, object]], columns: Optional[Sequence[str]] = None,
                 max_rows: Optional[int] = None, precision: int = 3) -> str:
    """Render a list of dict rows as a fixed-width text table."""
    rows = list(rows)
    if not rows:
        return "(empty table)"
    if columns is None:
        columns = list(rows[0].keys())
    display_rows = rows if max_rows is None else rows[:max_rows]
    cells = [[format_value(r.get(col, ""), precision) for col in columns] for r in display_rows]
    widths = [max(len(col), *(len(row[i]) for row in cells)) if cells else len(col)
              for i, col in enumerate(columns)]
    header = " | ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    sep = "-+-".join("-" * w for w in widths)
    body = "\n".join(" | ".join(row[i].ljust(widths[i]) for i in range(len(columns)))
                     for row in cells)
    footer = ""
    if max_rows is not None and len(rows) > max_rows:
        footer = f"\n... ({len(rows) - max_rows} more rows)"
    return f"{header}\n{sep}\n{body}{footer}"


def render_series(series: Mapping[str, Mapping[str, float]], precision: int = 4) -> str:
    """Render a dict of named value-maps (e.g. power breakdowns) as text."""
    lines: List[str] = []
    for name, values in series.items():
        lines.append(f"{name}:")
        for key, value in values.items():
            lines.append(f"  {key:<32s} {format_value(float(value), precision)}")
    return "\n".join(lines)


def summarize_experiment(exp_id: str, data: object, max_rows: int = 12) -> str:
    """One-block summary of an experiment result for bench output / reports."""
    header = f"== {exp_id} =="
    if isinstance(data, Mapping):
        return f"{header}\n{render_series(data)}"
    if isinstance(data, Sequence) and data and isinstance(data[0], Mapping):
        return f"{header}\n{render_table(data, max_rows=max_rows)}"
    return f"{header}\n{data!r}"
