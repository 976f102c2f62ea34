"""ALCA election-state tracking as a collector."""

from __future__ import annotations

from repro.clustering.state import StateTracker
from repro.sim.collectors.base import Collector

__all__ = ["StateCollector"]


class StateCollector(Collector):
    """Tracks per-level ALCA state occupancies (the p_j estimates of
    Eqs. 15-22), observing every level of the baseline and of each
    metered step in one stacked pass."""

    name = "states"
    phase = "diff"

    def __init__(self):
        self._tracker = StateTracker()

    def _observe(self, hierarchy) -> None:
        # Only the top level carries no election.
        self._tracker.observe([lvl.election for lvl in hierarchy.levels
                               if lvl.election is not None])

    def on_start(self, snap) -> None:
        """Observe the baseline election states."""
        self._observe(snap.hierarchy)

    def on_step(self, snap) -> None:
        """Observe this step's election states."""
        self._observe(snap.hierarchy)

    def finalize(self, elapsed: float) -> dict:
        """Contribute ``state_stats`` (levels with samples only)."""
        tracker = self._tracker
        return {"state_stats": tracker.stats() if tracker.samples else {}}
