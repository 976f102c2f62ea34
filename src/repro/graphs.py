"""Shared lightweight graph kernels (adjacency lists + BFS).

Both the hierarchy statistics (h_k estimation) and the routing layer need
many unweighted shortest-path queries per simulation step.  NetworkX is
convenient but allocates heavily; this module keeps a compact
adjacency-list representation (a list of sorted int arrays) and a plain
deque BFS, which profiling shows is the fastest pure-Python option at the
simulator's graph sizes (hundreds to a few thousands of nodes).
"""

from __future__ import annotations

from collections import deque

import numpy as np

__all__ = [
    "CompactGraph",
    "bfs_distances",
    "multi_source_bfs",
    "bfs_path",
    "bfs_tree_path",
]


class CompactGraph:
    """Immutable adjacency-list graph over arbitrary integer IDs.

    IDs are mapped to compact indices once at construction; all queries
    accept and return original IDs.
    """

    def __init__(self, node_ids, edges):
        self.node_ids = np.unique(np.asarray(list(node_ids), dtype=np.int64))
        e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        n = self.node_ids.size
        if e.size:
            ui = np.searchsorted(self.node_ids, e[:, 0])
            vi = np.searchsorted(self.node_ids, e[:, 1])
            if (
                np.any(ui >= n)
                or np.any(vi >= n)
                or np.any(self.node_ids[np.minimum(ui, n - 1)] != e[:, 0])
                or np.any(self.node_ids[np.minimum(vi, n - 1)] != e[:, 1])
            ):
                raise ValueError("edges reference ids not in node_ids")
        else:
            ui = vi = np.empty(0, dtype=np.int64)
        # CSR-style neighbor lists, built without a Python loop: duplicate
        # each undirected edge into both directions, sort by source.
        src = np.concatenate([ui, vi])
        dst = np.concatenate([vi, ui])
        order = np.argsort(src, kind="stable")
        self._nbr = dst[order]
        counts = np.bincount(src, minlength=n)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        self._offsets = offsets
        self._sparse = None  # lazy scipy CSR for C-level BFS

    @property
    def n(self) -> int:
        return int(self.node_ids.size)

    def index_of(self, v: int) -> int:
        """Compact index of node ID ``v`` (KeyError if absent)."""
        i = int(np.searchsorted(self.node_ids, v))
        if i >= self.n or self.node_ids[i] != v:
            raise KeyError(f"unknown node id {v}")
        return i

    def neighbors_idx(self, i: int) -> np.ndarray:
        """Neighbor *indices* of node index ``i``."""
        return self._nbr[self._offsets[i] : self._offsets[i + 1]]

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbor IDs of node ID ``v``."""
        return self.node_ids[self.neighbors_idx(self.index_of(v))]

    def degree(self, v: int) -> int:
        """Number of neighbors of node ID ``v``."""
        i = self.index_of(v)
        return int(self._offsets[i + 1] - self._offsets[i])

    def sparse(self):
        """Lazily-built ``scipy.sparse.csr_matrix`` adjacency view."""
        if self._sparse is None:
            from scipy.sparse import csr_matrix

            data = np.ones(self._nbr.size, dtype=np.int8)
            self._sparse = csr_matrix(
                (data, self._nbr, self._offsets), shape=(self.n, self.n)
            )
        return self._sparse


def multi_source_bfs(g: CompactGraph, sources) -> np.ndarray:
    """Hop distances from every node ID in ``sources``: row ``i`` is the
    distance from ``sources[i]`` to every node, -1 if unreachable.

    One scipy unweighted-Dijkstra call for the whole batch, so the graph
    is validated and converted once rather than once per source.
    """
    from scipy.sparse.csgraph import dijkstra

    idx = [g.index_of(int(s)) for s in sources]
    if not idx:
        return np.empty((0, g.n), dtype=np.int64)
    d = dijkstra(g.sparse(), directed=False, unweighted=True, indices=idx)
    return np.where(np.isinf(d), -1, d).astype(np.int64)


def bfs_distances(g: CompactGraph, source: int, restrict_idx=None) -> np.ndarray:
    """Hop distance from ``source`` (ID) to every node; -1 if unreachable.

    ``restrict_idx``: optional boolean mask over node indices; traversal
    only visits allowed nodes (used for intra-cluster routing).

    Unrestricted queries run through scipy's C-level unweighted Dijkstra
    (single-source BFS); masked queries use the pure-Python traversal.
    """
    if restrict_idx is None:
        return multi_source_bfs(g, [source])[0]
    s = g.index_of(source)
    dist = np.full(g.n, -1, dtype=np.int64)
    if not restrict_idx[s]:
        return dist
    dist[s] = 0
    q = deque([s])
    offsets, nbr = g._offsets, g._nbr
    while q:
        u = q.popleft()
        du = dist[u] + 1
        for w in nbr[offsets[u] : offsets[u + 1]]:
            if dist[w] < 0 and (restrict_idx is None or restrict_idx[w]):
                dist[w] = du
                q.append(w)
    return dist


def bfs_path(g: CompactGraph, source: int, target: int, restrict_idx=None) -> list[int] | None:
    """Shortest path (list of IDs, inclusive) or None if unreachable."""
    s = g.index_of(source)
    t = g.index_of(target)
    if s == t:
        return [int(source)]
    if restrict_idx is not None and (not restrict_idx[s] or not restrict_idx[t]):
        return None
    parent = np.full(g.n, -2, dtype=np.int64)
    parent[s] = -1
    q = deque([s])
    offsets, nbr = g._offsets, g._nbr
    found = False
    while q and not found:
        u = q.popleft()
        for w in nbr[offsets[u] : offsets[u + 1]]:
            if parent[w] == -2 and (restrict_idx is None or restrict_idx[w]):
                parent[w] = u
                if w == t:
                    found = True
                    break
                q.append(w)
    if not found:
        return None
    path_idx = [t]
    while path_idx[-1] != s:
        path_idx.append(int(parent[path_idx[-1]]))
    path_idx.reverse()
    return [int(g.node_ids[i]) for i in path_idx]


def bfs_tree_path(parent: np.ndarray, g: CompactGraph, target: int) -> list[int] | None:
    """Extract a path from a parent array produced by a prior full BFS.

    ``parent`` uses -1 for the source and -2 for unreached nodes.
    """
    t = g.index_of(target)
    if parent[t] == -2:
        return None
    path_idx = [t]
    while parent[path_idx[-1]] != -1:
        path_idx.append(int(parent[path_idx[-1]]))
    path_idx.reverse()
    return [int(g.node_ids[i]) for i in path_idx]
