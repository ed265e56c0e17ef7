"""ASCII report formatting for experiment output.

Every experiment returns a :class:`Report`: a title, commentary lines, and
one or more tables.  The `__main__` CLI prints them; EXPERIMENTS.md embeds
them.  :func:`write_snapshot` writes an experiment's JSON trajectory file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass
class Table:
    """One formatted table."""

    headers: list[str]
    rows: list[list[object]]
    title: str = ""

    def render(self) -> str:
        """Render with aligned columns."""
        cells = [[_fmt(c) for c in row] for row in self.rows]
        widths = [
            max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
            for i, h in enumerate(self.headers)
        ]
        lines = []
        if self.title:
            lines.append(self.title)
        lines.append("  ".join(h.ljust(w) for h, w in zip(self.headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in cells:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)


@dataclass
class Report:
    """One experiment's output."""

    experiment: str
    title: str
    tables: list[Table] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def render(self) -> str:
        """Full printable report."""
        parts = [f"== {self.experiment}: {self.title} =="]
        for note in self.notes:
            parts.append(f"   {note}")
        for table in self.tables:
            parts.append("")
            parts.append(table.render())
        return "\n".join(parts)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def write_snapshot(name: str, quick: bool, doc: dict) -> str:
    """Write ``doc`` as the experiment's JSON snapshot; returns the path.

    A full run writes the tracked trajectory file ``BENCH_<name>.json``;
    a ``quick`` run writes the untracked sibling ``BENCH_<name>.quick.json``,
    so a smoke run never replaces the committed numbers.
    """
    path = f"BENCH_{name}.quick.json" if quick else f"BENCH_{name}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
