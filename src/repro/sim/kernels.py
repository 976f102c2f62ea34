"""Vectorized per-step simulator kernels.

The metered loop spends its time diffing consecutive hierarchy
snapshots; done naively (Python sets of ``(u, v)`` tuples, pure-Python
BFS) the object churn dominates the NumPy/cKDTree work.  This module
keeps every per-step comparison in int64 array land:

* level edges are encoded as scalar keys ``u * n + v`` (the same
  canonical encoding :mod:`repro.radio.linkevents` uses for f_0), so a
  level diff is two ``np.isin`` calls on unique arrays;
* drift counting (changed links whose endpoints persist at the level)
  decodes the changed keys and masks them against the persistent node
  set — no Python-level membership tests;
* the largest-component fraction runs through
  ``scipy.sparse.csgraph.connected_components`` on the
  :class:`~repro.graphs.CompactGraph`'s cached CSR adjacency.

Each kernel is equivalence-tested against the original pure-Python
implementation in ``tests/sim/test_kernels.py``.
"""

from __future__ import annotations

import numpy as np

from repro.graphs import CompactGraph
from repro.hierarchy.levels import ClusteredHierarchy
from repro.radio.unit_disk import encode_edges

__all__ = [
    "EMPTY_KEYS",
    "EMPTY_IDS",
    "level_edge_keys",
    "diff_keys",
    "count_drift",
    "giant_fraction",
]

EMPTY_KEYS = np.empty(0, dtype=np.int64)
EMPTY_IDS = np.empty(0, dtype=np.int64)


def level_edge_keys(
    h: ClusteredHierarchy, n: int
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Per level k >= 1: (encoded edge-key array, node-ID array).

    Keys use the base-``n`` encoding of :func:`repro.radio.unit_disk.
    encode_edges` (level node IDs are physical IDs, so they fit).  Both
    arrays are sorted and unique — the form the diff kernels assume.
    """
    return {
        lvl.k: (np.sort(encode_edges(lvl.edges, n)), lvl.node_ids)
        for lvl in h.levels
        if lvl.k >= 1
    }


def diff_keys(before: np.ndarray, after: np.ndarray) -> np.ndarray:
    """Symmetric difference of two unique edge-key arrays.

    Equivalent to ``set(before) ^ set(after)`` on decoded tuples: the
    link state change events of one step at one level.
    """
    if before.size == 0:
        return after
    if after.size == 0:
        return before
    return np.concatenate(
        [
            before[~np.isin(before, after, assume_unique=True)],
            after[~np.isin(after, before, assume_unique=True)],
        ]
    )


def count_drift(
    changed_keys: np.ndarray,
    n: int,
    nodes_before: np.ndarray,
    nodes_after: np.ndarray,
) -> int:
    """Count changed links whose *both* endpoints persist at the level.

    These are the Section 5.3.1 'cluster migration' link events; the
    remainder of a level diff is election/rejection churn.
    """
    if changed_keys.size == 0:
        return 0
    persistent = np.intersect1d(nodes_before, nodes_after, assume_unique=True)
    if persistent.size == 0:
        return 0
    u = changed_keys // n
    v = changed_keys % n
    return int((np.isin(u, persistent) & np.isin(v, persistent)).sum())


def giant_fraction(g: CompactGraph) -> float:
    """Largest connected-component fraction, from the graph's cached
    (scipy C-level) component labels."""
    if g.n == 0:
        return 0.0
    return float(np.bincount(g.components()).max()) / g.n
