"""Strict hierarchical routing (Section 2.1, after Steenstrup [14]).

Forwarding decisions use only the destination's hierarchical address and
each node's O(log|V|) hierarchical map.  Packets are *not* forced through
clusterheads: the route descends the hierarchy — at the lowest level m
where source and destination share a cluster, the packet follows a
shortest path over the level-(m-1) cluster graph, crossing between
adjacent clusters at *gateway* node pairs (a physical link whose
endpoints lie in the two clusters), and recursing inside each cluster.

The router produces actual level-0 node paths, so the handoff meter can
charge real hop counts, and EXP-T2 can compare hierarchical path lengths
(h_k = Theta(sqrt(c_k))) against flat shortest paths.
"""

from __future__ import annotations

import numpy as np

from repro.graphs import CompactGraph, bfs_path
from repro.hierarchy.levels import ClusteredHierarchy

__all__ = ["HierarchicalRouter"]


class HierarchicalRouter:
    """Routes over a hierarchy snapshot.

    Parameters
    ----------
    hierarchy:
        The clustered hierarchy snapshot.
    g0:
        Compact view of the physical (level-0) graph; node IDs must match
        ``hierarchy.levels[0].node_ids``.

    Every segment is confined to the cluster it runs in — physical hops
    to the cluster's members, cluster-graph hops to the siblings of the
    shared parent — falling back to an unrestricted BFS when the
    confined search fails (strictness with a liveness escape hatch).
    """

    def __init__(self, hierarchy: ClusteredHierarchy, g0: CompactGraph):
        if not np.array_equal(hierarchy.levels[0].node_ids, g0.node_ids):
            raise ValueError("hierarchy and graph node sets differ")
        self.h = hierarchy
        self.g0 = g0
        self._level_graphs: dict[int, CompactGraph] = {}
        self._gateways: dict[int, dict[tuple[int, int], tuple[int, int]]] = {}

    # -- caches ---------------------------------------------------------------

    def _level_graph(self, k: int) -> CompactGraph:
        g = self._level_graphs.get(k)
        if g is None:
            lvl = self.h.levels[k]
            g = CompactGraph(lvl.node_ids, lvl.edges)
            self._level_graphs[k] = g
        return g

    def _gateway_table(self, k: int) -> dict[tuple[int, int], tuple[int, int]]:
        """For level k >= 1: boundary physical edges between each pair of
        adjacent level-k clusters.  ``table[(ci, cj)] = (a, b)`` with
        ``a`` in ci and ``b`` in cj, chosen deterministically (smallest
        edge in canonical order)."""
        table = self._gateways.get(k)
        if table is not None:
            return table
        table = {}
        anc = self.h.ancestry(k)
        base_ids = self.h.levels[0].node_ids
        edges = self.h.levels[0].edges
        if edges.size:
            ui = np.searchsorted(base_ids, edges[:, 0])
            vi = np.searchsorted(base_ids, edges[:, 1])
            cu = anc[ui]
            cv = anc[vi]
            crossing = cu != cv
            for a, b, ca, cb in zip(
                edges[crossing, 0].tolist(),
                edges[crossing, 1].tolist(),
                cu[crossing].tolist(),
                cv[crossing].tolist(),
            ):
                if (ca, cb) not in table:
                    table[(ca, cb)] = (a, b)
                if (cb, ca) not in table:
                    table[(cb, ca)] = (b, a)
        self._gateways[k] = table
        return table

    def _members_mask(self, k: int, cluster_id: int) -> np.ndarray:
        return self.h.ancestry(k) == cluster_id

    # -- routing ----------------------------------------------------------------

    def common_level(self, s: int, d: int) -> int:
        """Lowest level m with cluster_of(s, m) == cluster_of(d, m).

        Returns ``num_levels + 1`` when the two nodes never share a
        cluster (disconnected hierarchy).
        """
        for m in range(self.h.num_levels + 1):
            if self.h.cluster_of(s, m) == self.h.cluster_of(d, m):
                return m
        return self.h.num_levels + 1

    def path(self, s: int, d: int) -> list[int] | None:
        """Full hierarchical route from ``s`` to ``d`` as level-0 IDs.

        Nodes that share no real cluster (capped hierarchies leave
        several top-level clusters) are routed at the *virtual global
        level*: the top-level cluster graph spans the network, mirroring
        the paper's single whole-network top cluster.  Returns None only
        when no route exists at all (different components).
        """
        if s == d:
            return [int(s)]
        m = self.common_level(s, d)
        if m > self.h.num_levels:
            m = self.h.num_levels + 1
        return self._route_within(int(s), int(d), m)

    def hop_count(self, s: int, d: int) -> int:
        """Hops along the hierarchical route; -1 if unreachable."""
        p = self.path(s, d)
        return len(p) - 1 if p is not None else -1

    # -- internals ---------------------------------------------------------------

    def _intra_bfs(self, s: int, d: int, k: int) -> list[int] | None:
        """Physical BFS between two nodes of the same level-k cluster."""
        if k <= self.h.num_levels:
            mask = self._members_mask(k, self.h.cluster_of(s, k))
            p = bfs_path(self.g0, s, d, restrict_idx=mask)
            if p is not None:
                return p
        return bfs_path(self.g0, s, d)

    def _route_within(self, s: int, d: int, m: int) -> list[int] | None:
        """Route two physical nodes sharing a level-m cluster."""
        if s == d:
            return [s]
        if m <= 1:
            return self._intra_bfs(s, d, max(m, 1))
        cs = self.h.cluster_of(s, m - 1)
        cd = self.h.cluster_of(d, m - 1)
        if cs == cd:
            return self._route_within(s, d, m - 1)

        level_g = self._level_graph(m - 1)
        cpath = None
        if m <= self.h.num_levels:
            # Confine the cluster-graph search to siblings within the
            # shared level-m cluster.  At the virtual global level there
            # is no parent to confine to.
            parent = self.h.cluster_of(s, m)
            sibling_ids = self.h.clusters(m)[parent]
            mask = np.isin(level_g.node_ids, sibling_ids)
            cpath = bfs_path(level_g, cs, cd, restrict_idx=mask)
        if cpath is None:
            cpath = bfs_path(level_g, cs, cd)
        if cpath is None:
            # Hierarchy says they share a cluster but the cluster graph
            # is stale/inconsistent; fall back to flat routing.
            return bfs_path(self.g0, s, d)

        gateways = self._gateway_table(m - 1)
        full = [s]
        cur = s
        for ci, cj in zip(cpath, cpath[1:]):
            gw = gateways.get((ci, cj))
            if gw is None:
                return bfs_path(self.g0, s, d)
            a, b = gw
            seg = self._route_within(cur, a, m - 1)
            if seg is None:
                return bfs_path(self.g0, s, d)
            full.extend(seg[1:])
            if full[-1] != b:
                full.append(b)
            cur = b
        seg = self._route_within(cur, d, m - 1)
        if seg is None:
            return bfs_path(self.g0, s, d)
        full.extend(seg[1:])
        return full
