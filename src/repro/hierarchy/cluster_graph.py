"""Level-(k+1) topology from a level-k partition (edge contraction).

The paper defines E_{k+1} implicitly: two level-(k+1) nodes (clusterheads)
are linked iff their level-k clusters are adjacent, i.e. some level-k link
crosses between the two clusters.  This module contracts a canonical edge
array by a membership map in O(m log m).
"""

from __future__ import annotations

import numpy as np

from repro.graphs import id_array, is_canonical

__all__ = ["canonical_edges", "contract_edges"]


def canonical_edges(edges) -> np.ndarray:
    """Canonicalize an ID-pair edge array: per-row sorted, lexsorted rows,
    duplicates and self-loops removed, as int32 (an ID outside int32
    raises ``ValueError``).  An int32 array that already is canonical
    comes back as a read-only view of the input, not a copy — the caller
    must not overwrite that buffer while the result is in use."""
    e = id_array(edges, "edge endpoint").reshape(-1, 2)
    if e.size == 0:
        return np.empty((0, 2), dtype=np.int32)
    if is_canonical(e[:, 0], e[:, 1]):
        # Already canonical (the unit-disk builder's output).
        e.flags.writeable = False
        return e
    lo = np.minimum(e[:, 0], e[:, 1])
    hi = np.maximum(e[:, 0], e[:, 1])
    if int(lo.min()) < 0:  # pragma: no cover - exotic id ranges
        e = np.stack([lo, hi], axis=1)
        return np.unique(e[lo != hi], axis=0)
    # Rows as int64 scalar keys: sorting keys sorts rows lexicographically.
    big = int(hi.max()) + 1
    keys = lo.astype(np.int64)
    keys *= big
    keys += hi
    keys = keys[lo != hi]
    # Sort and drop repeats (several times faster than np.unique's hash
    # pass on int64 keys).
    keys.sort()
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keys = keys[first]
    out = np.empty((keys.size, 2), dtype=np.int32)
    np.floor_divide(keys, big, out=out[:, 0], casting="unsafe")
    np.remainder(keys, big, out=out[:, 1], casting="unsafe")
    return out


def contract_edges(edges, node_ids: np.ndarray, member_of: np.ndarray) -> np.ndarray:
    """Contract level-k edges into the level-(k+1) cluster graph.

    Parameters
    ----------
    edges:
        ``(m, 2)`` level-k edges as ID pairs.
    node_ids:
        Sorted level-k node IDs.
    member_of:
        Cluster affiliation aligned with ``node_ids`` (head IDs).

    Returns
    -------
    Canonical ``(m', 2)`` array of head-ID pairs: one edge per adjacent
    cluster pair.
    """
    e = id_array(edges, "edge endpoint").reshape(-1, 2)
    if e.size == 0:
        return np.empty((0, 2), dtype=np.int32)
    ui = np.searchsorted(node_ids, e[:, 0])
    vi = np.searchsorted(node_ids, e[:, 1])
    if (
        np.any(ui >= node_ids.size)
        or np.any(vi >= node_ids.size)
        or np.any(node_ids[ui] != e[:, 0])
        or np.any(node_ids[vi] != e[:, 1])
    ):
        raise ValueError("edges reference ids not in node_ids")
    heads = np.stack([member_of[ui], member_of[vi]], axis=1)
    return canonical_edges(heads)
