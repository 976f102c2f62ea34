"""Shared infrastructure for the experiment harness.

Each experiment module exposes ``run(quick=True, seeds=...) ->
ExperimentResult``; ``repro experiment`` and ``generate_report`` run
them and print the same rows the paper's evaluation would tabulate (see
DESIGN.md's experiment index).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from repro.sim import Scenario

__all__ = ["ExperimentResult", "SeedRecord"]


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3g}"
        return f"{value:.4g}"
    return str(value)


class SeedRecord(NamedTuple):
    """One seed's measurements, by name, with the scenario that ran them,
    so a table that measures outside the simulator still averages its
    seeds with :func:`~repro.sim.sweep_points`."""

    scenario: Scenario
    values: dict[str, float]


@dataclass
class ExperimentResult:
    """A printable experiment outcome: one table plus prose notes."""

    exp_id: str
    title: str
    columns: list[str]
    rows: list[list] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *values) -> None:
        """Append one table row (must match the column count)."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append(list(values))

    def add_note(self, note: str) -> None:
        """Append a prose note rendered under the table."""
        self.notes.append(note)

    def to_text(self) -> str:
        """Aligned plain-text rendering."""
        cells = [[_fmt(c) for c in row] for row in self.rows]
        widths = [
            max(len(self.columns[i]), *(len(r[i]) for r in cells)) if cells else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        lines = [f"== {self.exp_id}: {self.title} =="]
        header = "  ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        lines.append(header)
        lines.append("-" * len(header))
        for row in cells:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"  * {note}")
        return "\n".join(lines)

    def print(self) -> None:  # pragma: no cover - console convenience
        """Print the rendered table to stdout."""
        print(self.to_text())
