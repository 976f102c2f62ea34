"""Flat (non-hierarchical) shortest-path routing baseline.

Every node knows a route to every other node — the O(|V|) routing-table
regime that hierarchical routing is designed to escape (Kleinrock &
Kamoun [7]).  Used as the comparison baseline for EXP-T9 and as the
ground-truth hop count for the forwarding fabric's stretch tests.
"""

from __future__ import annotations

import numpy as np

from repro.graphs import CompactGraph, bfs_distances

__all__ = ["FlatRouter"]


class FlatRouter:
    """Link-state shortest-path routing over the physical graph.

    BFS results are cached per source, so repeated queries from the same
    node (common in handoff metering) cost O(1) after the first.
    """

    def __init__(self, g: CompactGraph):
        self.g = g
        self._dist_cache: dict[int, np.ndarray] = {}

    def distances_from(self, s: int) -> np.ndarray:
        """Hop distances from ``s`` to every node (-1 = unreachable)."""
        cached = self._dist_cache.get(s)
        if cached is None:
            cached = bfs_distances(self.g, s)
            self._dist_cache[s] = cached
        return cached

    def hop_count(self, s: int, d: int) -> int:
        """Shortest-path hop count; -1 if unreachable."""
        si, di = self.g.index_of(s), self.g.index_of(d)
        if si == di:
            return 0
        return int(self.distances_from(s)[di])

    def clear_cache(self) -> None:
        """Drop all cached BFS results (after a topology change)."""
        self._dist_cache.clear()
