"""ASCII table rendering for benchmark reports.

Every benchmark regenerates a paper table or figure as rows of text; this
module gives them one consistent renderer so EXPERIMENTS.md artifacts and
bench stdout line up column for column.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Union

Cell = Union[str, int, float]


def _format_cell(value: Cell) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


class Table:
    """A simple left/right-aligned ASCII table.

    >>> t = Table(["chip", "TDP (W)"])
    >>> t.add_row(["TPUv4i", 175])
    >>> print(t.render())  # doctest: +NORMALIZE_WHITESPACE
    chip   | TDP (W)
    -------+--------
    TPUv4i |     175
    """

    def __init__(self, headers: Sequence[str], title: str = "") -> None:
        if not headers:
            raise ValueError("a table needs at least one column")
        self.title = title
        self.headers = [str(h) for h in headers]
        self.rows: List[List[str]] = []

    def add_row(self, cells: Iterable[Cell]) -> None:
        row = [_format_cell(c) for c in cells]
        if len(row) != len(self.headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(self.headers)} columns"
            )
        self.rows.append(row)

    def _column_widths(self) -> List[int]:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        return widths

    def render(self) -> str:
        """Render the table; first column left-aligned, the rest right-aligned."""
        widths = self._column_widths()

        def fmt_row(cells: Sequence[str]) -> str:
            parts = [cells[0].ljust(widths[0])]
            parts.extend(cell.rjust(w) for cell, w in zip(cells[1:], widths[1:]))
            return " | ".join(parts)

        lines: List[str] = []
        if self.title:
            lines.append(self.title)
        lines.append(fmt_row(self.headers))
        lines.append("-+-".join("-" * w for w in widths))
        lines.extend(fmt_row(row) for row in self.rows)
        return "\n".join(lines)


def bar_chart(labels: Sequence[str], values: Sequence[float], width: int = 40,
              title: str = "", unit: str = "") -> str:
    """Render a horizontal ASCII bar chart (used by figure benchmarks).

    The longest bar spans ``width`` characters; values must be non-negative.
    """
    if len(labels) != len(values):
        raise ValueError("labels and values must have the same length")
    if any(v < 0 for v in values):
        raise ValueError("bar_chart requires non-negative values")
    peak = max(values) if values else 0.0
    label_w = max((len(l) for l in labels), default=0)
    lines: List[str] = [title] if title else []
    for label, value in zip(labels, values):
        bar_len = int(round(width * value / peak)) if peak > 0 else 0
        suffix = f" {value:.4g}{(' ' + unit) if unit else ''}"
        lines.append(f"{label.ljust(label_w)} | {'#' * bar_len}{suffix}")
    return "\n".join(lines)
