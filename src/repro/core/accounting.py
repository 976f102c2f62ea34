"""Overhead ledger: keeps each step's handoff count table and derives the
paper's normalized quantities phi_k, gamma_k, phi, gamma (packets per
node per second) as sums over those tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.events import EventKind
from repro.core.handoff import (
    ABANDONED, COLUMNS, EVENTS, MIG_ENTRIES, MIG_PACKETS, RECOVERED, REG_PACKETS,
    REORG_ENTRIES, REORG_PACKETS, RETRANSMITTED, STALE, HandoffReport,
)

__all__ = ["OverheadLedger"]

_REORG_KINDS = tuple(EventKind)[1:]


@dataclass
class OverheadLedger:
    """Every metered step's counts over a simulation run.

    Parameters
    ----------
    n_nodes:
        Population size |V| (for per-node normalization).
    """

    n_nodes: int
    elapsed: float = 0.0
    recovery_time_total: float = 0.0
    tables: list[np.ndarray] = field(default_factory=list)
    """Each metered step's ``HandoffReport.counts`` (column x level)."""
    flats: list[np.ndarray] = field(default_factory=list)
    """Each metered step's ``HandoffReport.flat`` (level-free counts)."""

    def __post_init__(self):
        if self.n_nodes <= 0:
            raise ValueError("node count must be positive")

    def record(self, report: HandoffReport, dt: float) -> None:
        """Append one step's report."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.elapsed += dt
        self.tables.append(report.counts)
        self.flats.append(report.flat)
        self.recovery_time_total += report.recovery_time_total

    def table(self) -> np.ndarray:
        """The per-level counts summed over the run (column x level)."""
        width = max((t.shape[1] for t in self.tables), default=0)
        total = np.zeros((COLUMNS, width), dtype=np.int64)
        for t in self.tables:
            total[:, :t.shape[1]] += t
        return total

    def flat(self) -> np.ndarray:
        """The level-free counts summed over the run."""
        return sum(self.flats, np.zeros(STALE + 1, dtype=np.int64))

    @property
    def stale_series(self) -> list[int]:
        """Outstanding stale entries after each metered step (all zeros
        when the run had no fault injection)."""
        return [int(f[STALE]) for f in self.flats]

    # -- normalized quantities -------------------------------------------------

    def _rate(self, total) -> float:
        if self.elapsed <= 0:
            return 0.0
        return int(total) / (self.n_nodes * self.elapsed)

    def _per_level(self, column: int, present: int) -> dict[int, float]:
        """Rates of ``column`` at the levels where ``present`` counted."""
        table = self.table()
        levels = table[present].nonzero()[0].tolist()
        return {k: self._rate(table[column, k]) for k in levels}

    def phi_k(self) -> dict[int, float]:
        """Per-level migration handoff packets per node per second."""
        return self._per_level(MIG_PACKETS, MIG_ENTRIES)

    def gamma_k(self) -> dict[int, float]:
        """Per-level reorganization handoff packets per node per second."""
        return self._per_level(REORG_PACKETS, REORG_ENTRIES)

    @property
    def phi(self) -> float:
        """Total migration handoff rate — Eq. (6c)."""
        return self._rate(self.table()[MIG_PACKETS].sum())

    @property
    def gamma(self) -> float:
        """Total reorganization handoff rate — Eq. (11)."""
        return self._rate(self.table()[REORG_PACKETS].sum())

    @property
    def handoff_rate(self) -> float:
        """phi + gamma: the paper's headline Theta(log^2 |V|) quantity."""
        return self.phi + self.gamma

    @property
    def registration_rate(self) -> float:
        """Registration packets per node per second (the Theta(log|V|)
        component of [17], metered for EXP-T10)."""
        return self._rate(self.table()[REG_PACKETS].sum())

    # -- fault/degradation quantities (EXP-A10) --------------------------------

    @property
    def retransmission_rate(self) -> float:
        """Retransmitted control packets per node per second — the
        channel's inflation of the lossless charge."""
        return self._rate(self.flat()[RETRANSMITTED])

    @property
    def abandonment_rate(self) -> float:
        """Abandoned LM entry transfers per node per second (each one
        leaves a stale location server until recovery)."""
        return self._rate(self.flat()[ABANDONED])

    @property
    def mean_recovery_time(self) -> float:
        """Mean seconds from a transfer's abandonment to the step its
        retry finally landed (0 when nothing recovered)."""
        recovered = int(self.flat()[RECOVERED])
        if recovered == 0:
            return 0.0
        return self.recovery_time_total / recovered

    def f_k(self) -> dict[int, float]:
        """Measured level-k migration event frequency per node per second
        (Eq. 8's f_k)."""
        return self._per_level(EVENTS, EVENTS)

    def reorg_event_rates(self) -> dict[tuple[EventKind, int], float]:
        """Per (kind, level) reorganization event rates, level-major."""
        events = self.table()[EVENTS + 1:]
        levels, kinds = (a.tolist() for a in events.T.nonzero())
        return {
            (_REORG_KINDS[kind], level): self._rate(events[kind, level])
            for level, kind in zip(levels, kinds)
        }

    def reorg_event_breakdown(self) -> dict[str, dict[str, float]]:
        """Per-kind (i)-(vii) totals summed over levels.

        Answers Section 5's taxonomy question directly — *which* event
        type dominates gamma.  Keys are the roman-numeral
        :class:`EventKind` values (JSON-safe for manifests and sweep
        reports); each entry carries the raw count and the per-node
        per-second rate.
        """
        counts = self.table()[EVENTS + 1:].sum(axis=1).tolist()
        return {
            kind.value: {"count": count, "rate": self._rate(count)}
            for kind, count in zip(_REORG_KINDS, counts) if count
        }
