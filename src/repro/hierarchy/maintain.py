"""Stateful hierarchy maintenance (sticky elections across steps).

Pairs one :class:`~repro.clustering.alca.AlcaMaintainer` with each
hierarchy level and rebuilds the multi-level snapshot from the current
physical topology while *preserving affiliations* wherever the LCC
rules allow.  Produces ordinary :class:`ClusteredHierarchy` snapshots,
so the handoff engine and every downstream consumer work unchanged —
only the election dynamics differ from the memoryless
:func:`~repro.hierarchy.levels.build_hierarchy` path.
"""

from __future__ import annotations

from repro.clustering.alca import AlcaMaintainer
from repro.clustering.lca import Election
from repro.hierarchy.levels import (
    ClusteredHierarchy,
    check_link_model,
    recurse_levels,
)

__all__ = ["HierarchyMaintainer"]


class HierarchyMaintainer:
    """Maintains an L-level clustered hierarchy across topology updates.

    Parameters
    ----------
    max_levels:
        Hierarchy depth cap (None = recurse until no shrink).
    level_mode:
        "radio" (geometric level links; requires positions and r0 on
        every update) or "contraction".
    r0:
        Level-0 transmission radius for radio mode.
    """

    def __init__(self, max_levels: int | None = None,
                 level_mode: str = "radio", r0: float | None = None):
        check_link_model(level_mode, r0)
        self.max_levels = max_levels
        self.level_mode = level_mode
        self.r0 = r0
        self._maintainers: list[AlcaMaintainer] = []

    def _elect(self, k: int, ids, edges) -> Election:
        while len(self._maintainers) <= k:
            self._maintainers.append(AlcaMaintainer())
        return self._maintainers[k].update(ids, edges)

    def update(self, node_ids, edges, positions=None) -> ClusteredHierarchy:
        """Advance all levels to the new physical topology."""
        return recurse_levels(
            node_ids, edges, self._elect, max_levels=self.max_levels,
            level_mode=self.level_mode, positions=positions, r0=self.r0,
        )
