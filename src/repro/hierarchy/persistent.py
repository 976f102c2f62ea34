"""Cluster-identity persistence — the structural fix for gamma.

EXPERIMENTS.md traces the measured super-polylog growth of gamma to one
modeling decision the paper inherits from Fig. 1: *clusters are named by
their clusterhead's ID*.  Every head replacement then renames the
cluster, which renames an address component for Theta(c_k) members and
re-keys their hashed LM servers — reorganization handoff that has
nothing to do with actual cluster geometry.

This module decouples the two: a cluster is an entity with a stable
*cluster ID (cid)* allocated at birth; the head is a replaceable role.
A cid dies only when its cluster dissolves (absorbed by a neighbor or
emptied) — head handover keeps the cid, so ancestry, addresses, and the
CHLM hash keys all survive it.

Maintenance rules per level (mirroring the LCC discipline of
:mod:`repro.clustering.alca`, but role-based):

1. **Handover.**  If a cluster's head leaves the level (its own
   lower-level cluster died), the surviving member with the largest ID
   takes over; the cid persists.
2. **Stickiness.**  A member stays while adjacent to its cluster's
   head; otherwise it rehomes to an adjacent head, or founds a new
   cluster (fresh cid) when none is in range.
3. **Merge.**  When two heads become adjacent, the *younger* (larger
   cid) cluster dissolves if all of its members can rehome; its cid
   dies (a genuine reorganization event).  Seniority rules throughout —
   rehoming prefers the oldest cid in range — because preferring young
   identities makes members chase freshly founded clusters and thrashes
   the very identities persistence is meant to stabilize.

The emitted snapshots reuse the :class:`~repro.clustering.lca.Election`
container with ``member_of`` holding cids, so the whole hierarchy /
handoff / routing stack runs unchanged on persistent identities.
EXP-A5 measures the effect on gamma.
"""

from __future__ import annotations

import numpy as np

from repro.clustering.alca import adjacency
from repro.clustering.lca import Election
from repro.graphs import id_array

__all__ = ["PersistentLevelMaintainer"]


class PersistentLevelMaintainer:
    """Stateful cluster maintenance for one level, with stable cids.

    Parameters
    ----------
    cid_start:
        First cid this level allocates.  Levels use disjoint ranges so a
        cid never collides with a physical node ID or another level's
        cids (cids also serve as node IDs one level up).
    """

    def __init__(self, cid_start: int):
        self._m2c: dict[int, int] = {}  # lower id -> cid
        self._head: dict[int, int] = {}  # cid -> lower id (the head role)
        self._next_cid = int(cid_start)

    def _new_cid(self) -> int:
        cid = self._next_cid
        self._next_cid += 1
        return cid

    def update(self, node_ids, edges) -> Election:
        """Advance this level's clustering to the new topology."""
        ids, adj = adjacency(node_ids, edges)
        m2c = {v: c for v, c in self._m2c.items() if v in adj}
        members_of: dict[int, set[int]] = {}
        for v, c in m2c.items():
            members_of.setdefault(c, set()).add(v)

        # Rule 1: head handover / cluster death.
        head: dict[int, int] = {}
        for cid, h in self._head.items():
            members = members_of.get(cid, set())
            if not members:
                continue  # cluster emptied: cid dies
            if h in members:
                head[cid] = h
            else:
                head[cid] = max(members)  # handover, cid persists

        # Head node -> the cid it heads (a node heads at most one), kept
        # in step with `head` below, so a node finds the heads in range
        # among its own neighbors instead of scanning every cluster.
        headed = {h: cid for cid, h in head.items()}

        def heads_in_range(v: int) -> list[int]:
            return [headed[u] for u in adj[v] if u in headed]

        # Rule 2: stickiness / rehoming for surviving members.  Rehoming
        # prefers the *oldest* (smallest) cid in range: seniority is the
        # stable choice — preferring young cids makes members chase every
        # freshly founded cluster and thrashes identities.
        for v in sorted(adj):
            cid = m2c.get(v)
            if cid is not None and cid in head:
                h = head[cid]
                if h == v or h in adj[v]:
                    continue
            near = heads_in_range(v)
            if near:
                m2c[v] = min(near)
            else:
                new = self._new_cid()
                head[new] = v
                headed[v] = new
                m2c[v] = new

        # New arrivals: same seniority rule.
        for v in sorted(adj):
            if v in m2c:
                continue
            near = heads_in_range(v)
            if near:
                m2c[v] = min(near)
            else:
                new = self._new_cid()
                head[new] = v
                headed[v] = new
                m2c[v] = new

        # Rule 3: merges — the *younger* (larger) cid dissolves into an
        # adjacent senior cluster when every member can rehome.  Youngest
        # first, so cascades retire the newest identities.
        members_of = {}
        for v, c in m2c.items():
            members_of.setdefault(c, set()).add(v)
        for cid in sorted(head, reverse=True):
            if cid not in head:
                continue
            h = head[cid]
            senior_rivals = {
                c for c in heads_in_range(h)
                if c != cid and c in head and c < cid
            }
            if not senior_rivals:
                continue
            movable = all(
                any(c != cid and c in head for c in heads_in_range(m))
                for m in members_of.get(cid, set())
            )
            if not movable:
                continue
            for m in sorted(members_of.get(cid, set())):
                near = [c for c in heads_in_range(m) if c != cid and c in head]
                m2c[m] = min(near)
                members_of.setdefault(m2c[m], set()).add(m)
            del head[cid]
            del headed[h]
            members_of.pop(cid, None)

        self._m2c = m2c
        self._head = head
        return self._snapshot(ids)

    def _snapshot(self, ids: np.ndarray) -> Election:
        member_of = id_array([self._m2c[v] for v in ids.tolist()],
                             "cluster ID")
        cids = np.unique(member_of)
        # Fig.-3-style state: the head's elector count is its membership
        # size minus itself; non-heads are 0.  (States are per lower-level
        # id so the array aligns with node_ids.)
        elector_count = np.zeros(ids.size, dtype=np.int32)
        sizes: dict[int, int] = {}
        for c in member_of.tolist():
            sizes[c] = sizes.get(c, 0) + 1
        index = {int(v): i for i, v in enumerate(ids.tolist())}
        for cid, h in self._head.items():
            if h in index:
                elector_count[index[h]] = sizes.get(cid, 1) - 1
        return Election(
            node_ids=ids,
            elected_head=member_of.copy(),
            member_of=member_of,
            elector_count=elector_count,
            clusterheads=cids,
        )

    def head_of_cid(self, cid: int) -> int | None:
        """Current head (lower-level ID) of a cid, or None if dead."""
        return self._head.get(int(cid))
