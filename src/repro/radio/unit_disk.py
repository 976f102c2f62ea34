"""Unit-disk transmission model (Section 1.2 of the paper).

A bidirectional link exists between u and v iff their Euclidean distance
is at most the transmission radius ``r_tx``.  Neighbor discovery is the
single hottest operation of the simulator, so edges are computed with a
``scipy.spatial.cKDTree`` (O(n log n); built unbalanced, which halves the
build and leaves the pair set as it is), put in canonical order by one
sort of their scalar keys (:func:`encode_edges`) and exposed as a raw
``(m, 2)`` int array; the NetworkX view is built lazily only where graph
algorithms need it — and ``networkx`` itself is imported there, not at
module top: no simulation path builds the view, and the import is ~90 ms
of every CLI start.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
from scipy.spatial import cKDTree

from repro.geometry.points import as_points

if TYPE_CHECKING:
    import networkx as nx


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


def edges_to_graph(n: int, edges: np.ndarray, positions=None) -> nx.Graph:
    """NetworkX view of an edge array over nodes ``0..n-1``.

    Isolated nodes are preserved.  If ``positions`` is given, each node
    gets a ``pos`` attribute (tuple) for plotting and geographic lookups.
    """
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(map(tuple, np.asarray(edges, dtype=np.int64)))
    if positions is not None:
        pts = as_points(positions)
        if pts.shape[0] != n:
            raise ValueError("positions length must equal node count")
        nx.set_node_attributes(g, {i: tuple(pts[i]) for i in range(n)}, "pos")
    return g


def unit_disk_graph(positions, r_tx: float) -> nx.Graph:
    """Convenience wrapper: positions -> NetworkX unit-disk graph."""
    pts = as_points(positions)
    return edges_to_graph(pts.shape[0], unit_disk_edges(pts, r_tx), pts)


def degree_counts(n: int, edges: np.ndarray) -> np.ndarray:
    """Per-node degree vector from an edge array."""
    deg = np.zeros(n, dtype=np.int64)
    if len(edges):
        e = np.asarray(edges, dtype=np.int64)
        np.add.at(deg, e[:, 0], 1)
        np.add.at(deg, e[:, 1], 1)
    return deg


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
