"""Plain-text table rendering for experiment output.

Every experiment renders its paper-vs-measured comparison through these
helpers, so REPORT.md (``repro report``) and ``repro table1|table2|table3|
fig9`` read like the paper's tables.
"""

from __future__ import annotations

from typing import Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    title: str | None = None,
) -> str:
    """Render an aligned ASCII table."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[col]) for row in cells) for col in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    rule = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(rule)
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def sci(value: float, digits: int = 2) -> str:
    """Scientific notation like the paper's tables (e.g. ``1.51E+10``)."""
    return f"{value:.{digits}E}"


def pct(value: float, digits: int = 2) -> str:
    """Percentage with fixed decimals (e.g. ``0.094%``)."""
    return f"{100 * value:.{digits}f}%"


def ratio(value: float, digits: int = 3) -> str:
    return f"{value:.{digits}f}"
