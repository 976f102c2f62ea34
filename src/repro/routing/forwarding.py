"""Distributed hop-by-hop forwarding with per-node hierarchical maps.

Section 2.1 of the paper: "packet forwarding decisions are made solely
on the hierarchical address of the destination node and every node has a
O(log|V|) hierarchical map".  This module *builds each node's map* and
forwards packets one hop at a time, each node consulting only

* its routes to the level-0 members of its level-1 cluster, and
* for each level k, its next hop toward every sibling level-k cluster
  of its level-(k+1) cluster,

which is exactly the O(alpha * L) state EXP-T9 counts.  The tests check
that hop-by-hop forwarding terminates without livelock and delivers
wherever a flat shortest path exists — the operational proof that the
hierarchical address alone suffices.

Construction
------------
Every next hop comes from a multi-source BFS flood per routing target
set, run through the batched CSR kernels
(:mod:`repro.routing.bfs_kernels`): one *labeled* flood per cluster
instead of one traversal per member.  Tables materialize **lazily per
node**: ``forward()`` only ever touches the ``_flood_toward`` arrays, so
delivery-only workloads never pay full table construction; ``table()``
assembles one node's map on demand; ``table_sizes()`` forces everything
(batching all remaining floods).  The tables and ``forward()`` paths are
bit-identical to an eager deque-BFS build, the test oracle in
``tests/routing/fabric_oracle.py``.  A fabric serves one topology
snapshot: callers that follow a moving network build one per snapshot.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.graphs import CompactGraph
from repro.hierarchy.levels import ClusteredHierarchy
from repro.routing.bfs_kernels import labeled_next_hop, single_next_hop

__all__ = [
    "ForwardingTable",
    "ForwardingFabric",
    "ForwardResult",
    "FloodRecord",
    "L0_CACHE_ENTRIES",
    "NH_CACHE_ENTRIES",
]

L0_CACHE_ENTRIES = 256
"""LRU bound on cached level-0 per-destination floods, so long message
workloads keep O(bound · n) flood state."""

NH_CACHE_ENTRIES = 256
"""LRU bound on cached cluster-level (k >= 1) unrestricted floods.
Distinct (level, cluster-id) targets accumulate across a long
mixed-level message stream, so these need the same bound as level 0."""


@dataclass(frozen=True)
class ForwardingTable:
    """One node's hierarchical map.

    ``intra[dest_id]`` — next hop toward a level-0 member of the node's
    level-1 cluster.
    ``clusters[(k, cluster_id)]`` — next hop toward a sibling level-k
    cluster (an adjacent physical node on a shortest path to the nearest
    member of that cluster).
    """

    node: int
    intra: dict[int, int]
    clusters: dict[tuple[int, int], int]

    @property
    def size(self) -> int:
        """Number of entries (the EXP-T9 quantity)."""
        return len(self.intra) + len(self.clusters)


@dataclass(frozen=True)
class ForwardResult:
    """Outcome of one hop-by-hop delivery attempt."""

    delivered: bool
    path: list[int]
    reason: str = ""

    @property
    def hops(self) -> int:
        return len(self.path) - 1


@dataclass
class FloodRecord:
    """One batched flood: a labeled next-hop row per target set.

    Three kinds, keyed in ``ForwardingFabric._records``:

    * ``("intra", c1)`` — label per level-0 member of level-1 cluster
      ``c1`` (single-source rows, unrestricted).
    * ``("sib", k, parent)`` — label per level-k child cluster of
      ``parent``, sources = the child's members, confined to the
      parent's membership mask.
    * ``("top",)`` — label per top-level cluster, unrestricted.
    """

    label_ids: np.ndarray  # (rows,) member IDs (intra) or cluster IDs
    next_hop: np.ndarray  # (rows, n) neighbor index or -1
    mask: np.ndarray | None = None  # (n,) bool confinement (sib only)


class ForwardingFabric:
    """Builds all nodes' tables for one hierarchy snapshot and forwards
    packets across them.

    Next hops are derived from per-target-set BFS trees: for every
    routing target (a level-1 peer, or a sibling cluster's member set) a
    multi-source BFS labels each node's neighbor toward the target —
    equivalent to each node learning distances from a link-state flood
    scoped to its cluster, as hierarchical link-state protocols do.
    """

    def __init__(self, h: ClusteredHierarchy, g0: CompactGraph):
        if not np.array_equal(h.levels[0].node_ids, g0.node_ids):
            raise ValueError("hierarchy and graph node sets differ")
        self.h = h
        self.g0 = g0
        self._ids = g0.node_ids
        # id -> compact index, built once; forward() and the kernels use
        # it instead of per-hop searchsorted lookups.
        self._id2idx = {int(v): i for i, v in enumerate(self._ids)}
        self._anc = [h.ancestry(k) for k in range(h.num_levels + 1)]
        self._tables: dict[int, ForwardingTable] = {}
        self._records: dict[tuple, FloodRecord] = {}
        # Unrestricted next-hop floods consulted by forward() (and the
        # disconnected-parent fallback): cluster-level entries are
        # bounded by the cluster count; level-0 per-destination entries
        # live in a separate LRU so message workloads stay bounded.
        self._nh_cache: OrderedDict[tuple[int, int], np.ndarray] = OrderedDict()
        self._l0_cache: OrderedDict[int, np.ndarray] = OrderedDict()

    # -- construction: lazy flood records ------------------------------------------

    def _members_idx(self, k: int, ck: int) -> np.ndarray:
        """Indices of physical nodes whose level-k ancestor is ``ck``."""
        return np.flatnonzero(self._anc[k] == ck)

    def _flood_record(self, key: tuple) -> FloodRecord:
        rec = self._records.get(key)
        if rec is None:
            rec = self._records[key] = self._build_record(key)
        return rec

    def _build_record(self, key: tuple) -> FloodRecord:
        """Run one record's floods in one labeled kernel call."""
        n = self.g0.n
        if key[0] == "intra":
            members = self._members_idx(1, key[1])
            labels = np.arange(members.size, dtype=np.int64)
            # Scoped flood: only cluster peers ever read these rows, so
            # each flood stops once its whole member set is discovered.
            needed = np.zeros(members.size * n, dtype=bool)
            needed[(labels[:, None] * n + members[None, :]).ravel()] = True
            nh, _ = labeled_next_hop(self.g0, members, labels, members.size,
                                     needed=needed)
            return FloodRecord(label_ids=self._ids[members], next_hop=nh)
        if key[0] == "sib":
            k, mask = key[1], self._anc[key[1] + 1] == key[2]
            label_ids = np.unique(self._anc[k][mask])
        else:  # ("top",)
            k, mask = self.h.num_levels, None
            label_ids = np.unique(self._anc[k])
        sources_per = [np.flatnonzero(self._anc[k] == ck) for ck in label_ids]
        sources = (np.concatenate(sources_per) if sources_per
                   else np.empty(0, dtype=np.int64))
        labels = np.repeat(np.arange(label_ids.size, dtype=np.int64),
                           [s.size for s in sources_per])
        nh, _ = labeled_next_hop(self.g0, sources, labels, label_ids.size,
                                 restrict_mask=mask)
        return FloodRecord(label_ids=label_ids, next_hop=nh, mask=mask)

    def _assemble(self, v: int) -> ForwardingTable:
        h, ids = self.h, self._ids
        vi = self._id2idx[v]
        num_levels = h.num_levels
        intra: dict[int, int] = {}
        if num_levels >= 1:
            rec = self._flood_record(("intra", int(self._anc[1][vi])))
            hops = rec.next_hop[:, vi]
            for j, t in enumerate(rec.label_ids.tolist()):
                if t != v and hops[j] >= 0:
                    intra[t] = int(ids[hops[j]])
        clusters: dict[tuple[int, int], int] = {}
        for k in range(1, num_levels + 1):
            own = int(self._anc[k][vi])
            if k < num_levels:
                rec = self._flood_record(("sib", k, int(self._anc[k + 1][vi])))
                confined = True
            else:
                rec = self._flood_record(("top",))
                confined = False
            hops = rec.next_hop[:, vi]
            for j, ck in enumerate(rec.label_ids.tolist()):
                if ck == own:
                    continue
                hop = int(hops[j])
                if hop < 0 and confined:
                    # Parent subgraph disconnected at v: fall back to the
                    # unrestricted flood toward the sibling cluster.
                    hop = int(self._flood_toward(k, ck)[vi])
                if hop >= 0:
                    clusters[(k, ck)] = int(ids[hop])
        return ForwardingTable(node=int(v), intra=intra, clusters=clusters)

    def _force_all(self) -> None:
        """Materialize every flood record (batched per kind/level).

        Records already built are not recomputed; the missing ones are
        folded into one labeled kernel call per kind/level.
        """
        if self.h.num_levels == 0:
            return
        intra_keys = [("intra", int(c)) for c in np.unique(self._anc[1]).tolist()]
        missing = [k for k in intra_keys if k not in self._records]
        if missing:
            groups = [self._members_idx(1, key[1]) for key in missing]
            sources = np.concatenate(groups)
            n = self.g0.n
            needed = np.zeros(sources.size * n, dtype=bool)
            start = 0
            for idx in groups:
                labs = np.arange(start, start + idx.size, dtype=np.int64)
                needed[(labs[:, None] * n + idx[None, :]).ravel()] = True
                start += idx.size
            nh, _ = labeled_next_hop(
                self.g0, sources, np.arange(sources.size, dtype=np.int64),
                sources.size, needed=needed)
            start = 0
            for key, idx in zip(missing, groups):
                end = start + idx.size
                self._records[key] = FloodRecord(
                    label_ids=self._ids[idx], next_hop=nh[start:end])
                start = end
        for key in intra_keys:
            self._flood_record(key)
        for k in range(1, self.h.num_levels):
            sib_keys = [("sib", k, int(p))
                        for p in np.unique(self._anc[k + 1]).tolist()]
            missing = [key for key in sib_keys if key not in self._records]
            if missing:
                self._batch_sibs(k, missing)
            for key in sib_keys:
                self._flood_record(key)
        self._flood_record(("top",))
        self._batch_fallbacks()

    def _batch_sibs(self, k: int, keys: list[tuple]) -> None:
        """Build several parents' sibling records in one labeled flood,
        confining each label to its own parent via a per-label mask."""
        anck, ancp = self._anc[k], self._anc[k + 1]
        per_parent: list[tuple[tuple, np.ndarray, np.ndarray]] = []
        sources, labels, masks = [], [], []
        lab = 0
        for key in keys:
            pmask = ancp == key[2]
            label_ids = np.unique(anck[pmask])
            per_parent.append((key, label_ids, pmask))
            for ck in label_ids.tolist():
                idx = np.flatnonzero(anck == ck)
                sources.append(idx)
                labels.append(np.full(idx.size, lab, dtype=np.int64))
                masks.append(pmask)
                lab += 1
        nh, _ = labeled_next_hop(
            self.g0, np.concatenate(sources), np.concatenate(labels), lab,
            restrict_mask=np.array(masks))
        start = 0
        for key, label_ids, pmask in per_parent:
            end = start + label_ids.size
            self._records[key] = FloodRecord(
                label_ids=label_ids, next_hop=nh[start:end], mask=pmask)
            start = end

    def _batch_fallbacks(self) -> None:
        """Precompute (in one labeled flood per level) the unrestricted
        floods that sibling-record assembly will fall back to wherever a
        confined flood missed carriers (disconnected parent subgraphs)."""
        need: dict[int, list[int]] = {}
        for key, rec in self._records.items():
            if key[0] != "sib":
                continue
            k = key[1]
            anck = self._anc[k]
            for j, ck in enumerate(rec.label_ids.tolist()):
                if (k, ck) in self._nh_cache:
                    continue
                carriers = rec.mask & (anck != ck)
                if np.any(rec.next_hop[j][carriers] < 0):
                    need.setdefault(k, []).append(ck)
        for k, cks in need.items():
            groups = [self._members_idx(k, ck) for ck in cks]
            sources = np.concatenate(groups)
            labels = np.repeat(np.arange(len(cks), dtype=np.int64),
                               [g.size for g in groups])
            nh, _ = labeled_next_hop(self.g0, sources, labels, len(cks))
            for j, ck in enumerate(cks):
                self._nh_cache[(k, ck)] = nh[j]
        self._trim_nh_cache()

    # -- queries --------------------------------------------------------------------

    def table(self, v: int) -> ForwardingTable:
        """The hierarchical map of node ``v`` (built on first use)."""
        v = int(v)
        t = self._tables.get(v)
        if t is None:
            if v not in self._id2idx:
                raise KeyError(v)
            t = self._assemble(v)
            self._tables[v] = t
        return t

    def table_sizes(self) -> np.ndarray:
        """Per-node map sizes (the EXP-T9 distribution); forces full
        construction."""
        self._force_all()
        # Count entries straight off the flood records — no per-node
        # dict assembly (tables themselves stay lazy).
        sizes = np.zeros(self._ids.size, dtype=np.int64)
        num_levels = self.h.num_levels
        if num_levels == 0:
            return sizes
        for key, rec in self._records.items():
            if key[0] == "intra":
                cols = np.searchsorted(self._ids, rec.label_ids)
                # Source rows are -1 at their own column, so a member's
                # self-target never counts.
                sizes[cols] += (rec.next_hop[:, cols] >= 0).sum(axis=0)
            elif key[0] == "sib":
                k = key[1]
                anck = self._anc[k]
                cols = np.flatnonzero(rec.mask)
                eff = rec.next_hop[:, cols]
                for j, ck in enumerate(rec.label_ids.tolist()):
                    # Same predicate as _batch_fallbacks; the LRU may
                    # have evicted the entry, so recompute on miss.
                    carriers = rec.mask & (anck != ck)
                    if np.any(rec.next_hop[j][carriers] < 0):
                        fallback = self._nh_lookup(k, ck)
                        eff[j] = np.where(eff[j] < 0, fallback[cols], eff[j])
                own = rec.label_ids[:, None] == self._anc[k][cols][None, :]
                sizes[cols] += ((eff >= 0) & ~own).sum(axis=0)
            else:  # top
                own = rec.label_ids[:, None] == self._anc[num_levels][None, :]
                sizes += ((rec.next_hop >= 0) & ~own).sum(axis=0)
        return sizes

    # -- forwarding -----------------------------------------------------------------

    def _single_flood(self, targets: np.ndarray) -> np.ndarray:
        return single_next_hop(self.g0, targets)[0]

    def _flood_toward(self, k: int, ck: int) -> np.ndarray:
        """Unrestricted next-hop array toward the members of cluster
        (k, ck) — or toward node ``ck`` itself for k=0 — cached per
        target set (level 0 in a bounded LRU)."""
        k, ck = int(k), int(ck)
        if k == 0:
            nh = self._l0_cache.get(ck)
            if nh is None:
                nh = self._single_flood(np.array([ck], dtype=np.int64))
                self._l0_cache[ck] = nh
                self._trim_l0_cache()
            else:
                self._l0_cache.move_to_end(ck)
            return nh
        return self._nh_lookup(k, ck)

    def _trim_l0_cache(self) -> None:
        while len(self._l0_cache) > L0_CACHE_ENTRIES:
            self._l0_cache.popitem(last=False)

    def _trim_nh_cache(self) -> None:
        while len(self._nh_cache) > NH_CACHE_ENTRIES:
            self._nh_cache.popitem(last=False)

    def _nh_lookup(self, k: int, ck: int) -> np.ndarray:
        """Cached unrestricted flood toward cluster (k, ck), recomputed
        on an LRU miss — eviction is a cost, never a behavior change."""
        nh = self._nh_cache.get((k, ck))
        if nh is None:
            nh = self._single_flood(self.h.members0(k, ck))
            self._nh_cache[(k, ck)] = nh
            self._trim_nh_cache()
        else:
            self._nh_cache.move_to_end((k, ck))
        return nh

    def _target(self, at_idx: int, address: tuple[int, ...]) -> tuple[int, int]:
        """Current routing target from the destination address: the
        highest diverging cluster component, or (0, dest) for intra
        level-1 delivery."""
        num_levels = self.h.num_levels
        for k in range(num_levels, 0, -1):
            dest_ck = address[num_levels - k]
            if self._anc[k][at_idx] != dest_ck:
                return (k, int(dest_ck))
        return (0, int(address[-1]))

    def forward(self, s: int, d: int, ttl: int | None = None,
                address: tuple[int, ...] | None = None) -> ForwardResult:
        """Deliver a packet from ``s`` to ``d`` hop by hop.

        The packet header carries the destination's hierarchical address
        plus the *current segment target* (k, ck) — the cluster the
        packet is descending into.  The target is chosen from the
        current node's map (highest diverging address component) and
        stays in the header until the packet enters that cluster; relay
        nodes outside the target's carrier set forward using the
        target-cluster flood state (gateway cooperation).  Within a
        segment the BFS distance to the target strictly decreases, and
        across segments the divergence level strictly decreases, so
        delivery provably terminates wherever the graph is connected (segments
        are individually loop-free; descent may re-cross a relay between
        segments).
        """
        h = self.h
        if address is None:
            address = h.address(d)
        else:
            if address[-1] != d:
                raise ValueError("address must terminate in the destination id")
            # A supplied (possibly stale) address may disagree with the
            # current hierarchy depth; align it at the bottom, padding the
            # top with its highest component.
            want = h.num_levels + 1
            if len(address) > want:
                address = address[-want:]
            elif len(address) < want:
                address = (address[0],) * (want - len(address)) + tuple(address)
        limit = ttl if ttl is not None else 4 * self.g0.n
        ids = self._ids
        d = int(d)
        at = int(s)
        at_idx = self._id2idx[at]
        path = [at]
        hops = 0
        while hops < limit:
            if at == d:
                return ForwardResult(delivered=True, path=path)
            k, ck = self._target(at_idx, address)
            if k == 0:
                # Final segment: same level-1 cluster as the destination.
                # Sticky like every other segment — the shortest path may
                # briefly exit the cluster (clusters need not be
                # geographically contiguous), and relays honor the
                # packet's target instead of re-deriving their own.
                nh = self._flood_toward(0, d)
                while hops < limit and at != d:
                    hop_idx = nh[at_idx]
                    if hop_idx < 0:
                        return ForwardResult(delivered=False, path=path,
                                             reason=f"no route at {at}")
                    at_idx = int(hop_idx)
                    at = int(ids[at_idx])
                    path.append(at)
                    hops += 1
                continue
            # Descend into cluster (k, ck): sticky segment.  All hops in
            # a segment follow one flood's next-hop field, so the BFS
            # distance to the target set strictly decreases (mixing the
            # confined per-node routes in would break the monotonicity
            # argument when parent clusters are not contiguous).
            nh = self._flood_toward(k, ck)
            anck = self._anc[k]
            while hops < limit and anck[at_idx] != ck:
                hop_idx = nh[at_idx]
                if hop_idx < 0:
                    return ForwardResult(delivered=False, path=path,
                                         reason=f"no route at {at}")
                at_idx = int(hop_idx)
                at = int(ids[at_idx])
                path.append(at)
                hops += 1
        return ForwardResult(delivered=(at == d), path=path, reason="ttl")
