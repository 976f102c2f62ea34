"""Hierarchical map / routing table size accounting (Section 2.1).

Under strict hierarchical routing every node keeps an O(log|V|)
"hierarchical map": routes to the level-0 nodes of its level-1 cluster,
and, for each level k, routes to the level-k clusters of its level-(k+1)
cluster.  With arity alpha = Theta(1) per level and L = Theta(log|V|)
levels this totals Theta(alpha * log |V|) entries versus |V| - 1 for flat
routing — the Kleinrock-Kamoun saving that EXP-T9 measures.
"""

from __future__ import annotations

import numpy as np

from repro.hierarchy.levels import ClusteredHierarchy

__all__ = ["hierarchical_table_sizes", "flat_table_size"]


def flat_table_size(n: int) -> int:
    """Entries in a flat routing table: one per other node."""
    if n <= 0:
        raise ValueError("node count must be positive")
    return n - 1


def hierarchical_table_sizes(h: ClusteredHierarchy) -> np.ndarray:
    """Hierarchical map size for every node (aligned with the level-0
    node_ids), computed in one vectorized pass per level."""
    n = h.n
    sizes = np.zeros(n, dtype=np.int64)
    if h.num_levels == 0:
        return sizes
    # Level-1 cluster population for each node.
    anc1 = h.ancestry(1)
    _, inverse, counts = np.unique(anc1, return_inverse=True, return_counts=True)
    sizes += counts[inverse] - 1
    # Sibling counts at each level k >= 1.
    for k in range(1, h.num_levels):
        clusters = h.clusters(k + 1)
        sibling_count = {parent: len(members) for parent, members in clusters.items()}
        anck1 = h.ancestry(k + 1)
        lookup = np.vectorize(lambda p: sibling_count[int(p)], otypes=[np.int64])
        sizes += lookup(anck1) - 1
    return sizes
