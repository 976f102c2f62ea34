"""Unit-disk transmission model (Section 1.2 of the paper).

A bidirectional link exists between u and v iff their Euclidean distance
is at most the transmission radius ``r_tx``.  Neighbor discovery is the
single hottest operation of the simulator, so edges are computed with a
``scipy.spatial.cKDTree`` (O(n log n); built unbalanced, which halves the
build and leaves the pair set as it is), put in canonical order by one
sort of their scalar keys (:func:`encode_edges`) and exposed as a raw
``(m, 2)`` int array; graph algorithms run on
:class:`~repro.graphs.CompactGraph`.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from repro.geometry.points import as_points


def unit_disk_edges(positions, r_tx: float) -> np.ndarray:
    """Edge array of the unit-disk graph.

    Returns an ``(m, 2)`` int64 array of node-index pairs with
    ``u < v`` for every row, sorted lexicographically — a canonical form
    that makes snapshot diffs (link events) cheap.
    """
    pts = as_points(positions)
    if r_tx <= 0:
        raise ValueError("transmission radius must be positive")
    if pts.shape[0] < 2:
        return np.empty((0, 2), dtype=np.int64)
    # Sliding-midpoint splits, no node shrinking: the tree's shape never
    # changes the pairs found, and the key sort below fixes their order.
    tree = cKDTree(pts, balanced_tree=False, compact_nodes=False)
    # query_pairs returns each pair once with i < j (its documented
    # contract, asserted in tests/radio/test_unit_disk.py), so the rows
    # need no sorting and the scalar keys order them lexicographically.
    n = pts.shape[0]
    keys = encode_edges(tree.query_pairs(r_tx, output_type="ndarray"), n)
    keys.sort()
    return decode_edges(keys, n)


def encode_edges(edges: np.ndarray, n: int) -> np.ndarray:
    """Encode canonical edges as scalar keys ``u * n + v`` for set diffs."""
    e = np.asarray(edges, dtype=np.int64)
    if e.size == 0:
        return np.empty(0, dtype=np.int64)
    return e[:, 0] * np.int64(n) + e[:, 1]


def decode_edges(keys: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`encode_edges`."""
    k = np.asarray(keys, dtype=np.int64)
    if k.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    out = np.empty((k.size, 2), dtype=np.int64)
    u, v = out[:, 0], out[:, 1]
    np.floor_divide(k, n, out=u)
    np.multiply(u, n, out=v)
    np.subtract(k, v, out=v)
    return out
