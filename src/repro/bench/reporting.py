"""Plain-text reporting helpers for the experiment harness.

Every experiment produces a list of row dictionaries; these helpers render
them as aligned ASCII tables (the "figure series" the paper plots) and
persist them under ``results/`` so the documentation can reference stable
artifacts.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping, Optional, Sequence


def _format_value(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e5 or (abs(value) < 1e-3 and value != 0):
            return f"{value:.3e}"
        return f"{value:,.3f}".rstrip("0").rstrip(".")
    return str(value)


def format_table(rows: Sequence[Mapping[str, object]],
                 columns: Optional[Sequence[str]] = None,
                 title: Optional[str] = None) -> str:
    """Render rows as an aligned ASCII table.

    When ``columns`` is not given, they derive from the first row's keys,
    skipping container-valued entries (dicts/lists such as attached metric
    snapshots) that would wreck the column alignment; the JSON side of
    :func:`save_rows` still carries them in full.
    """
    if not rows:
        return f"{title or 'table'}: (no rows)"
    if columns is None:
        columns = [key for key, value in rows[0].items()
                   if not isinstance(value, (dict, list, tuple))]
    rendered = [[_format_value(row.get(col, "")) for col in columns] for row in rows]
    widths = [max(len(col), *(len(r[i]) for r in rendered))
              for i, col in enumerate(columns)]
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    lines.append(header)
    lines.append("-+-".join("-" * w for w in widths))
    for row in rendered:
        lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def save_rows(rows: Sequence[Mapping[str, object]], path: str | Path, *,
              columns: Optional[Sequence[str]] = None,
              title: Optional[str] = None) -> Path:
    """Write both the ASCII table and a JSON dump of ``rows`` next to each other."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(format_table(rows, columns, title) + "\n", encoding="utf-8")
    json_path = path.with_suffix(".json")
    json_path.write_text(json.dumps(list(rows), indent=2, default=str),
                         encoding="utf-8")
    return path

