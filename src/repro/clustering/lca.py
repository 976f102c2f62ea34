"""Linked Cluster Algorithm (LCA) election — Section 2.2 of the paper.

The election rule: a node ``v`` is *elected* clusterhead by a node ``u``
iff ``v``'s ID is the largest in the closed neighborhood of ``u`` (``u``
itself included).  The clusterhead set is the image of this "elected
head" map — which covers both cases of Fig. 1: node 97 (largest in its
own neighborhood, elects itself) and node 68 (not largest in its own
neighborhood, but largest in node 63's).

Cluster affiliation: a clusterhead anchors its own cluster; every other
node joins the cluster of the head it elected.  This yields a partition
of the node set where every member is within one hop of its head.

The paper applies this rule recursively on the level-k topology with the
same IDs (asynchronous LCA / ALCA); recursion lives in
:mod:`repro.hierarchy`.  Here we implement one level, vectorized: the
kernel is a few ``np.maximum.at`` / ``np.add.at`` scatter ops over the
edge array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs import IdIndex, id_array, sorted_unique_ids

__all__ = ["Election", "elect"]


@dataclass(frozen=True)
class Election:
    """Result of one LCA election round on a single level.

    All per-node arrays are aligned with ``node_ids`` (which is sorted)
    and, as :func:`elect` builds them, int32 like every ID and row
    array of a step.

    Attributes
    ----------
    node_ids:
        Sorted unique node IDs participating at this level.
    elected_head:
        For each node ``u``, the ID with maximum value in ``u``'s closed
        neighborhood — the head ``u`` *elects* (possibly ``u`` itself).
    member_of:
        Cluster affiliation: the node's own ID if it is a clusterhead,
        otherwise ``elected_head``.  Defines the cluster partition.
    elector_count:
        Number of *neighbors* that elected this node (self-election not
        counted) — the ALCA state of Fig. 3.
    clusterheads:
        Sorted IDs of elected clusterheads (image of ``elected_head``).
    """

    node_ids: np.ndarray
    elected_head: np.ndarray
    member_of: np.ndarray
    elector_count: np.ndarray
    clusterheads: np.ndarray

    # -- mapping helpers -----------------------------------------------------

    def index_of(self, ids) -> np.ndarray:
        """Positions of ``ids`` within ``node_ids`` (must all be present)."""
        ids_arr = np.asarray(ids, dtype=np.int64)
        idx = np.searchsorted(self.node_ids, ids_arr)
        if np.any(idx >= len(self.node_ids)) or np.any(
            self.node_ids[np.minimum(idx, len(self.node_ids) - 1)] != ids_arr
        ):
            raise KeyError("some ids are not nodes of this level")
        return idx

    def head_of(self, v: int) -> int:
        """Cluster affiliation of node ``v`` (its own ID for heads)."""
        return int(self.member_of[self.index_of([v])[0]])

    def is_clusterhead(self, v: int) -> bool:
        """Whether ``v`` was elected clusterhead this round."""
        i = np.searchsorted(self.clusterheads, v)
        return i < len(self.clusterheads) and self.clusterheads[i] == v

    def state_of(self, v: int) -> int:
        """ALCA state of ``v``: how many neighbors elected it (Fig. 3)."""
        return int(self.elector_count[self.index_of([v])[0]])

    def clusters(self) -> dict[int, np.ndarray]:
        """Partition ``{head_id: sorted member ids (head included)}``."""
        order = np.argsort(self.member_of, kind="stable")
        heads, starts = np.unique(self.member_of[order], return_index=True)
        groups = np.split(self.node_ids[order], starts[1:])
        return {int(h): np.sort(g) for h, g in zip(heads, groups)}

    @property
    def n_clusters(self) -> int:
        return int(len(self.clusterheads))


def elect(node_ids, edges) -> Election:
    """Run one LCA election on the level graph ``(node_ids, edges)``.

    Parameters
    ----------
    node_ids:
        Array or iterable of unique integer node IDs (any int32 values;
        the election compares them numerically, as in ID-based
        clustering).  An ID outside int32 raises ``ValueError``.
    edges:
        ``(m, 2)`` array of undirected edges given as ID pairs.  Edges
        must reference IDs present in ``node_ids``; self-loops are
        rejected.  An int32 array is read as it is, not copied.

    Returns
    -------
    Election

    Notes
    -----
    Complexity is O(n + m) for sorted IDs from a compact range — a
    table lookup of the edge endpoints plus scatter passes over the edge
    array; unsorted IDs add one sort, sparse ones a search per endpoint.
    """
    ids = sorted_unique_ids(node_ids)
    if ids.size == 0:
        raise ValueError("election requires at least one node")
    e = id_array(edges, "edge endpoint").reshape(-1, 2)
    if e.size and np.any(e[:, 0] == e[:, 1]):
        raise ValueError("self-loops are not valid links")

    # Compact indices for scatter ops.
    if e.size:
        index = IdIndex(ids)
        ui = index.rows(e[:, 0])
        vi = index.rows(e[:, 1])
        if ui.min() < 0 or vi.min() < 0:
            raise ValueError("edges reference ids not in node_ids")
    else:
        ui = vi = np.empty(0, dtype=np.int32)

    # elected_head[u] = max ID over the closed neighborhood of u; the
    # IDs are sorted, so that is the largest row.
    elected_row = np.arange(ids.size, dtype=np.int32)
    if e.size:
        np.maximum.at(elected_row, ui, vi)
        np.maximum.at(elected_row, vi, ui)
    elected = ids.take(elected_row)

    is_head = np.zeros(ids.size, dtype=bool)
    is_head[elected_row] = True
    clusterheads = ids[is_head]

    # Affiliation: clusterheads anchor their own cluster.
    member_of = np.where(is_head, ids, elected)

    # ALCA state: number of neighbors that elected this node.
    # (``ufunc.at`` runs its fast loop only when the values have the
    # array's dtype: an int32 one, not a Python int, which is int64.)
    elector_count = np.zeros(ids.size, dtype=np.int32)
    if e.size:
        one = np.int32(1)
        np.add.at(elector_count, vi[elected_row.take(ui) == vi], one)
        np.add.at(elector_count, ui[elected_row.take(vi) == ui], one)

    return Election(
        node_ids=ids,
        elected_head=elected,
        member_of=member_of,
        elector_count=elector_count,
        clusterheads=clusterheads,
    )
