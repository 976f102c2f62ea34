"""Per-level hierarchy series (sizes, link events, address changes)."""

from __future__ import annotations

import numpy as np

from repro.sim.collectors.base import Collector
from repro.sim.metrics import LevelSeries

__all__ = ["LevelSeriesCollector"]


class LevelSeriesCollector(Collector):
    """Accumulates the per-level series behind g'_k and staleness.

    Per step: reads each level's link events (and the drift subset
    between persisting nodes) and each level's address changes off the
    step's :class:`~repro.core.events.HierarchyDiff` (``snap.report.diff``,
    the one hierarchy diff the handoff meter already made), and records
    level sizes and edge counts.
    """

    name = "levels"
    phase = "diff"

    def __init__(self):
        self.series = LevelSeries()

    def on_step(self, snap) -> None:
        """Accumulate link events, shapes and address changes."""
        diff = snap.report.diff
        links = diff.link_changes.tolist()
        drift = diff.drift_changes.tolist()
        for k in range(1, len(links)):
            self.series.add_link_events(k, links[k], drift[k])
        hierarchy = snap.hierarchy
        for lvl in hierarchy.levels:
            self.series.record_level(lvl.k, lvl.n_nodes, lvl.n_edges)
        top = min(snap.prev_hierarchy.num_levels, hierarchy.num_levels)
        moved = np.bincount(diff.mig_level, minlength=top + 1).tolist()
        for k in range(1, top + 1):
            self.series.add_address_changes(k, moved[k])

    def finalize(self, elapsed: float) -> dict:
        """Contribute ``level_series`` to the result."""
        return {"level_series": self.series}
