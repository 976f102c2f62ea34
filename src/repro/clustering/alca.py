"""Event-driven ALCA maintenance with election hysteresis.

The per-snapshot election of :func:`repro.clustering.lca.elect` is
*memoryless*: a node's head changes whenever the max-ID of its closed
neighborhood changes, which makes high-level clusterheads churn faster
than the paper's Fig. 3 birth-death idealization (see EXPERIMENTS.md,
deviation 1).  Deployed cluster protocols add stickiness — the
"least cluster change" (LCC) discipline of Chiang et al., which the
asynchronous-LCA literature folds into ALCA maintenance:

1. **Affiliation stickiness.**  A member keeps its current clusterhead
   as long as that head remains within one hop and keeps its head role.
2. **Forced re-election.**  A node whose head became invalid joins the
   highest-ID *existing* head in range; only if none is in range does
   it trigger a fresh LCA election in its closed neighborhood
   (promoting the local max).
3. **Head contention.**  When two heads become one-hop neighbors, the
   lower-ID head abdicates (the only rule that demotes a head), and its
   members re-affiliate by rule 2.

The result is a valid 1-hop clustering (every member adjacent to its
head) whose *changes* are driven by necessity, not by snapshot noise —
the state machine then matches Fig. 3's critical-transition picture
much more closely.  :class:`AlcaMaintainer` keeps the per-node head
state across topology updates and emits snapshots in the same
:class:`~repro.clustering.lca.Election` form as the memoryless path, so
the whole hierarchy/handoff stack is agnostic to the election mode.
"""

from __future__ import annotations

import numpy as np

from repro.clustering.lca import Election
from repro.graphs import id_array, sorted_unique_ids

__all__ = ["AlcaMaintainer", "adjacency"]


def adjacency(node_ids, edges) -> tuple[np.ndarray, dict[int, set[int]]]:
    """``(ids, adj)`` of one level's topology for a stateful elector:
    the sorted unique IDs and each ID's neighbour set.  Rejects an empty
    level, self-loops and edges to IDs outside ``node_ids``."""
    ids = sorted_unique_ids(node_ids)
    if ids.size == 0:
        raise ValueError("maintenance requires at least one node")
    adj: dict[int, set[int]] = {v: set() for v in ids.tolist()}
    for a, b in id_array(edges, "edge endpoint").reshape(-1, 2).tolist():
        if a == b:
            raise ValueError("self-loops are not valid links")
        if a not in adj or b not in adj:
            raise ValueError("edges reference ids not in node_ids")
        adj[a].add(b)
        adj[b].add(a)
    return ids, adj


class AlcaMaintainer:
    """Stateful one-level ALCA/LCC maintenance.

    The participating node set may change between updates (at hierarchy
    level k >= 1 the nodes are the level-(k-1) heads, which churn);
    state is kept for surviving nodes and new arrivals elect by rule 2.
    """

    def __init__(self):
        # node id -> current head id (head nodes map to themselves).
        self._head: dict[int, int] = {}

    @property
    def head_map(self) -> dict[int, int]:
        """Current affiliation map (copy)."""
        return dict(self._head)

    # -- update -------------------------------------------------------------------

    def update(self, node_ids, edges) -> Election:
        """Advance the clustering to the new topology; return a snapshot.

        Parameters
        ----------
        node_ids:
            Sorted unique IDs participating at this level now.
        edges:
            Canonical ``(m, 2)`` ID-pair array for the current topology.
        """
        ids, adj = adjacency(node_ids, edges)

        # Drop state of departed nodes; forget affiliations whose head
        # left the level.
        head = {v: h for v, h in self._head.items()
                if v in adj and h in adj}

        def is_head(x: int) -> bool:
            return head.get(x) == x

        # Rule 3: head contention.  When two heads become adjacent the
        # lower-ID one abdicates *if* all of its dependent members can
        # reach another head (the least-cluster-change reading —
        # otherwise abdication would just force a fresh election that
        # re-promotes it).  Ascending order resolves cascades
        # deterministically.
        members_of: dict[int, list[int]] = {}
        for v, h in head.items():
            if v != h:
                members_of.setdefault(h, []).append(v)
        for h in sorted(x for x in adj if is_head(x)):
            if not is_head(h):
                continue
            bigger = [w for w in adj[h] if is_head(w) and w > h]
            if not bigger:
                continue
            covered = all(
                any(is_head(w) and w != h for w in adj[m])
                for m in members_of.get(h, [])
            )
            if covered:
                head[h] = max(bigger)
                for m in members_of.get(h, []):
                    alt = [w for w in adj[m] if is_head(w)]
                    if alt:
                        head[m] = max(alt)

        # Rule 2 (new arrivals): pure LCA election — a node with no
        # history elects the max of its closed neighborhood, promoting
        # it if needed.  On a fresh maintainer this reproduces the
        # one-shot LCA exactly.
        for v in sorted(adj):
            if v in head:
                continue
            winner = max([v] + list(adj[v]))
            if head.get(winner) != winner:
                head[winner] = winner
            head[v] = winner

        # Rule 1 + forced re-election: a surviving member keeps its head
        # while the head is in range and still a head; otherwise it
        # joins the largest in-range head, falling back to a fresh LCA
        # election.
        for v in sorted(adj):
            h = head[v]
            if (h == v and is_head(v)) or (h in adj[v] and is_head(h)):
                continue
            in_range_heads = [w for w in adj[v] if is_head(w)]
            if in_range_heads:
                head[v] = max(in_range_heads)
            else:
                winner = max([v] + list(adj[v]))
                head[winner] = winner
                if winner != v:
                    head[v] = winner

        # Fresh elections only promote, so every member's head is still
        # an adjacent head; verify the invariant defensively.
        for v in adj:
            h = head[v]
            assert h == v or (h in adj[v] and head[h] == h), (v, h)

        self._head = head
        return self._snapshot(ids)

    # -- snapshot -----------------------------------------------------------------

    def _snapshot(self, ids: np.ndarray) -> Election:
        head = self._head
        member_of = id_array([head[v] for v in ids.tolist()])
        clusterheads = np.unique(member_of)
        elector_count = np.zeros(ids.size, dtype=np.int32)
        index = {int(v): i for i, v in enumerate(ids.tolist())}
        for v in ids.tolist():
            h = head[int(v)]
            if h != v:
                elector_count[index[h]] += 1
        return Election(
            node_ids=ids,
            elected_head=member_of.copy(),
            member_of=member_of,
            elector_count=elector_count,
            clusterheads=clusterheads,
        )
