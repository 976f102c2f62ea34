"""Reference oracle for the forwarding fabric: eager deque-BFS floods.

:class:`~repro.routing.forwarding.ForwardingFabric` builds every flood
with the batched, level-synchronous CSR kernels and materializes tables
lazily.  This module is the original construction it must reproduce bit
for bit: one pure-Python deque BFS per routing target set, every table
built eagerly at construction.  The equivalence suite
(``test_bfs_kernels.py``) compares against it.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.graphs import CompactGraph
from repro.routing.forwarding import ForwardingFabric, ForwardingTable

__all__ = ["deque_next_hop", "ReferenceFabric"]


def deque_next_hop(
    g: CompactGraph,
    targets: np.ndarray,
    restrict_mask: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The original pure-Python deque BFS.

    For every node index: neighbor index on a shortest path toward the
    nearest target (-1 for targets themselves / unreachable), plus the
    hop distance.  With ``restrict_mask`` the flood stays inside the
    allowed node set (sources exempt), confining sibling-cluster routes
    to the shared parent cluster so descent is monotone.
    """
    next_hop = np.full(g.n, -1, dtype=np.int64)
    dist = np.full(g.n, -1, dtype=np.int64)
    q = deque()
    for t in np.asarray(targets, dtype=np.int64).reshape(-1):
        ti = int(np.searchsorted(g.node_ids, t))
        dist[ti] = 0
        q.append(ti)
    while q:
        u = q.popleft()
        for w in g.neighbors_idx(u):
            if dist[w] < 0 and (restrict_mask is None or restrict_mask[w]):
                dist[w] = dist[u] + 1
                next_hop[w] = u
                q.append(w)
    return next_hop, dist


class ReferenceFabric(ForwardingFabric):
    """A :class:`ForwardingFabric` whose every flood is a deque BFS and
    whose tables are all built at construction.

    ``forward()`` is inherited; only its floods (``_single_flood``) run
    through the oracle, so the sticky-segment logic is shared while the
    next-hop fields it follows are computed independently.
    """

    def __init__(self, h, g0: CompactGraph):
        super().__init__(h, g0)
        self._build_reference()

    def _single_flood(self, targets: np.ndarray) -> np.ndarray:
        return deque_next_hop(self.g0, targets)[0]

    def _next_hop(self, targets: np.ndarray,
                  restrict_mask: np.ndarray | None = None) -> np.ndarray:
        return deque_next_hop(self.g0, targets, restrict_mask)[0]

    def _build_reference(self) -> None:
        h, ids = self.h, self.g0.node_ids
        intra: dict[int, dict[int, int]] = {int(v): {} for v in ids}
        clusters: dict[int, dict[tuple[int, int], int]] = {int(v): {} for v in ids}

        # Intra level-1 routes: per member target, next hops for its
        # cluster peers.
        if h.num_levels >= 1:
            anc1 = h.ancestry(1)
            for c1 in np.unique(anc1):
                members = ids[anc1 == c1]
                for target in members.tolist():
                    nh = self._next_hop(np.array([target]))
                    for m in members.tolist():
                        if m == target:
                            continue
                        mi = self._id2idx[m]
                        if nh[mi] >= 0:
                            intra[m][target] = int(ids[nh[mi]])

        # Sibling cluster routes at each level.
        for k in range(1, h.num_levels + 1):
            anck = h.ancestry(k)
            parent_level = min(k + 1, h.num_levels)
            anc_parent = h.ancestry(parent_level) if k < h.num_levels else None
            for ck in np.unique(anck):
                target_members = ids[anck == ck]
                # Confine routes toward a sibling cluster to the shared
                # parent's membership; fall back to unrestricted routes
                # for carriers the confined flood missed (parent subgraph
                # disconnected).
                if k < h.num_levels:
                    parent = h.cluster_of(int(target_members[0]), parent_level)
                    parent_mask = anc_parent == parent
                    carriers = ids[parent_mask & (anck != ck)]
                    nh = self._next_hop(target_members, restrict_mask=parent_mask)
                    confined = True
                else:
                    carriers = ids[anck != ck]
                    nh = self._next_hop(target_members)
                    confined = False
                for v in carriers.tolist():
                    vi = self._id2idx[v]
                    hop = nh[vi]
                    if hop < 0 and confined:
                        hop = self._flood_toward(k, int(ck))[vi]
                    if hop >= 0:
                        clusters[v][(k, int(ck))] = int(ids[hop])

        self._tables = {
            int(v): ForwardingTable(node=int(v), intra=intra[int(v)],
                                    clusters=clusters[int(v)])
            for v in ids
        }

    def table_sizes(self) -> np.ndarray:
        return np.array([self._tables[int(v)].size for v in self.g0.node_ids])
