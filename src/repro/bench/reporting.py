"""Plain-text and markdown rendering of experiment result rows.

The harness returns experiments as lists of flat dictionaries so that they
are trivial to post-process; these helpers render them the way the paper
presents them (one row per dataset / parameter value, one column per
algorithm or phase).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Any

__all__ = ["format_value", "format_table", "format_markdown_table", "rows_to_csv"]


def format_value(value: Any, precision: int = 4) -> str:
    """Human-friendly scalar formatting (floats rounded, None blank)."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3g}"
        return f"{value:.{precision}g}"
    return str(value)


def _columns_of(rows: Sequence[Mapping[str, Any]]) -> list[str]:
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    return columns


def format_table(rows: Sequence[Mapping[str, Any]], title: str | None = None) -> str:
    """Fixed-width table (what the CLI prints)."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    columns = _columns_of(rows)
    rendered = [[format_value(row.get(column)) for column in columns] for row in rows]
    widths = [
        max(len(column), *(len(line[i]) for line in rendered))
        for i, column in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(column.ljust(widths[i]) for i, column in enumerate(columns))
    lines.append(header)
    lines.append("  ".join("-" * widths[i] for i in range(len(columns))))
    for line in rendered:
        lines.append("  ".join(line[i].ljust(widths[i]) for i in range(len(columns))))
    return "\n".join(lines)


def format_markdown_table(rows: Sequence[Mapping[str, Any]], title: str | None = None) -> str:
    """GitHub-flavoured markdown table (what ``all --output FILE`` writes)."""
    if not rows:
        return f"### {title}\n\n(no rows)\n" if title else "(no rows)\n"
    columns = _columns_of(rows)
    lines = []
    if title:
        lines.append(f"### {title}")
        lines.append("")
    lines.append("| " + " | ".join(columns) + " |")
    lines.append("|" + "|".join(["---"] * len(columns)) + "|")
    for row in rows:
        lines.append("| " + " | ".join(format_value(row.get(column)) for column in columns) + " |")
    lines.append("")
    return "\n".join(lines)


def rows_to_csv(rows: Sequence[Mapping[str, Any]]) -> str:
    """Comma-separated rendering for downstream plotting tools."""
    if not rows:
        return ""
    columns = _columns_of(rows)
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(format_value(row.get(column)) for column in columns))
    return "\n".join(lines) + "\n"
