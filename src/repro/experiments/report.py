"""Plain-text rendering helpers shared by the experiment modules.

The paper's tables and figures are regenerated as aligned text tables (and,
where useful, CSV strings): the artifacts' render stages and the ``bench``
and ``sweep`` commands print them, and ``reproduce-all`` writes them to
``results/<name>.txt`` and embeds them in ``results/index.html``.
"""

from __future__ import annotations

import io
from typing import Dict, Iterable, List, Mapping, Sequence


def format_percentage(value: float, decimals: int = 1) -> str:
    """Render a fraction as a percentage string (0.183 -> '18.3%')."""
    return f"{value * 100:.{decimals}f}%"


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Sequence[str] | None = None,
    title: str | None = None,
) -> str:
    """Render a list of dict rows as an aligned monospace table."""
    if not rows:
        return (title + "\n" if title else "") + "(no data)"
    if columns is None:
        columns = list(rows[0].keys())

    def cell(row: Mapping[str, object], col: str) -> str:
        value = row.get(col, "")
        if isinstance(value, float):
            return f"{value:.4g}"
        return str(value)

    widths = {col: len(col) for col in columns}
    for row in rows:
        for col in columns:
            widths[col] = max(widths[col], len(cell(row, col)))

    out = io.StringIO()
    if title:
        out.write(title + "\n")
    header = "  ".join(col.ljust(widths[col]) for col in columns)
    out.write(header + "\n")
    out.write("-" * len(header) + "\n")
    for row in rows:
        out.write("  ".join(cell(row, col).ljust(widths[col]) for col in columns) + "\n")
    return out.getvalue()


def format_csv(rows: Sequence[Mapping[str, object]], columns: Sequence[str] | None = None) -> str:
    """Render rows as a CSV string (no external dependencies)."""
    if not rows:
        return ""
    if columns is None:
        columns = list(rows[0].keys())
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(str(row.get(col, "")) for col in columns))
    return "\n".join(lines) + "\n"


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of positive values (used for overhead summaries)."""
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    product = 1.0
    for v in values:
        product *= v
    return product ** (1.0 / len(values))


def arithmetic_mean(values: Iterable[float]) -> float:
    values = list(values)
    if not values:
        return 0.0
    return sum(values) / len(values)


__all__ = [
    "format_table",
    "format_csv",
    "format_percentage",
    "geometric_mean",
    "arithmetic_mean",
]
