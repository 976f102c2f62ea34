"""Cross-step reuse of forwarding flood state.

Section 2.1's maintenance argument: link state changes are *scoped* —
a level-0 link event is flooded only within the clusters whose routes it
can affect, so steady-state overhead per node stays O(alpha * L) instead
of O(n).  :class:`FabricCache` is the computational mirror of that
scoping: instead of rebuilding every flood from scratch each simulator
step, it consumes the step's :class:`~repro.radio.linkevents.LinkDiff`,
diffs the two snapshots' ancestries for the changed clusters, and
invalidates only the flood rows those events can actually touch.

Invalidation rules (all conservative — reused rows are provably
bit-identical to a fresh build, ``tests/routing/test_fabric_cache.py``):

* a cluster is **dirty** at level k when any node's level-k ancestor
  changed between the two hierarchy snapshots (old and new cluster both
  count);
* an ``("intra", c1)`` record is dropped when ``c1`` is dirty at level 1
  (member set changed); otherwise rows are kept per the link-event rules
  of :func:`~repro.routing.bfs_kernels.flood_rows_safe` — and because
  intra floods are *scoped* (early-stopped once the cluster is covered),
  events far from the cluster read distance -1/-1 and leave its rows
  untouched, exactly the paper's locality;
* a ``("sib", k, parent)`` record is dropped when ``parent`` is dirty at
  level k+1 (the confining mask changed) or its child label set changed;
  surviving rows go stale when their child cluster is dirty at level k
  or the mask-aware event rules say so;
* the ``("top",)`` record behaves like a sib record without a mask;
* cached unrestricted floods (``_nh_cache`` cluster entries and the
  level-0 LRU) are kept only when their target set is clean and every
  event passes the row-safety rules.

Surviving records transfer *ownership* to the new fabric (arrays are
spliced in place when stale rows are recomputed), so the previous fabric
must not be used after ``update()``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.graphs import CompactGraph
from repro.hierarchy.levels import ClusteredHierarchy
from repro.radio.linkevents import LinkDiff
from repro.routing.bfs_kernels import flood_rows_safe
from repro.routing.forwarding import ForwardingFabric

__all__ = ["FabricCache", "FabricCacheStats", "MASS_INVALIDATE_FRACTION"]

MASS_INVALIDATE_FRACTION = 1.0
"""Link-event budget before incremental carry is abandoned: when a
step's diff carries more than this fraction of the node count in
up/down events (a mass crash, a dense partition severing or healing at
once), nearly every flood row fails the safety rules anyway — the
per-record scan costs more than the rebuild it avoids, so the cache
rebuilds from scratch instead.  Carry is *correct* at any diff size (the
rules are conservative); this is purely a cost cutoff."""


@dataclass
class FabricCacheStats:
    """Reuse accounting across ``update()`` calls."""

    updates: int = 0
    full_rebuilds: int = 0
    mass_invalidations: int = 0
    explicit_invalidations: int = 0
    records_reused: int = 0
    records_dropped: int = 0
    rows_reused: int = 0
    rows_stale: int = 0
    floods_reused: int = 0
    floods_dropped: int = 0

    def as_dict(self) -> dict[str, int]:
        """Counters as a plain dict (for experiment notes / telemetry)."""
        return {k: int(v) for k, v in self.__dict__.items()}


@dataclass
class FabricCache:
    """Maintains a :class:`ForwardingFabric` across topology snapshots.

    ``update(h, g, diff)`` returns the fabric for the new snapshot,
    reusing every flood record of the previous one that the step's link
    events and cluster changes provably left bit-identical.  Passing
    ``diff=None`` (or changing the node set / hierarchy depth) forces a
    full rebuild.
    """

    fabric: ForwardingFabric | None = None
    stats: FabricCacheStats = field(default_factory=FabricCacheStats)
    _h: ClusteredHierarchy | None = field(default=None, repr=False)

    def invalidate(self) -> None:
        """Drop all cached flood state; the next ``update()`` rebuilds.

        Call when topology changed through a channel the link diff does
        not describe (e.g. restoring external state).  Safe at any time
        — a rebuild is always bit-identical to a carry."""
        if self.fabric is not None or self._h is not None:
            self.stats.explicit_invalidations += 1
        self.fabric = None
        self._h = None

    def update(self, h: ClusteredHierarchy, g: CompactGraph,
               diff: LinkDiff | None = None) -> ForwardingFabric:
        """Advance to a new snapshot; returns its forwarding fabric.

        Reuses every flood record the step's link events and cluster
        changes provably left bit-identical; the previous fabric must
        not be used afterwards (array ownership transfers).  Oversized
        diffs (see :data:`MASS_INVALIDATE_FRACTION`) rebuild from scratch.
        """
        prev, prev_h = self.fabric, self._h
        self.stats.updates += 1
        massive = (
            diff is not None
            and len(diff.ups) + len(diff.downs)
            > MASS_INVALIDATE_FRACTION * g.node_ids.size
        )
        if massive and prev is not None:
            self.stats.mass_invalidations += 1
        fresh = (
            prev is None or prev_h is None or diff is None or massive
            or not np.array_equal(prev.g0.node_ids, g.node_ids)
            or prev_h.num_levels != h.num_levels
        )
        if fresh:
            self.stats.full_rebuilds += 1
            fab = ForwardingFabric(h, g)
        else:
            fab = ForwardingFabric(
                h, g, _inherited=self._carry(prev, prev_h, h, g, diff))
        self.fabric, self._h = fab, h
        return fab

    def _carry(self, prev: ForwardingFabric, h_old: ClusteredHierarchy,
               h_new: ClusteredHierarchy, g: CompactGraph,
               diff: LinkDiff) -> dict:
        ids = g.node_ids
        num_levels = h_new.num_levels
        anc_new = [h_new.ancestry(k) for k in range(num_levels + 1)]
        dirty: list[set[int]] = [set() for _ in range(num_levels + 1)]
        for k in range(1, num_levels + 1):
            anc_old = h_old.ancestry(k)
            moved = anc_old != anc_new[k]
            if moved.any():
                dirty[k] = set(np.unique(anc_old[moved]).tolist())
                dirty[k] |= set(np.unique(anc_new[k][moved]).tolist())

        def to_idx(pairs: np.ndarray) -> np.ndarray:
            if len(pairs) == 0:
                return np.empty((0, 2), dtype=np.int64)
            return np.searchsorted(ids, np.asarray(pairs, dtype=np.int64))

        ups_idx, downs_idx = to_idx(diff.ups), to_idx(diff.downs)

        # Unconsumed inherited records from the previous step chain
        # through (their stale flags accumulate).
        records = {k: v for k, v in prev._inherited.items()
                   if k not in (("l0",), ("nh",))}
        records.update(prev._records)
        inherited: dict = {}
        for key, rec in records.items():
            if key[0] == "intra":
                if key[1] in dirty[1]:
                    self.stats.records_dropped += 1
                    continue
                stale = ~flood_rows_safe(rec.dist, rec.next_hop,
                                         ups_idx, downs_idx)
            else:
                if key[0] == "sib":
                    k, mask = key[1], rec.mask
                    if key[2] in dirty[k + 1]:
                        self.stats.records_dropped += 1
                        continue
                    new_labels = np.unique(anc_new[k][mask])
                else:  # ("top",)
                    k, mask = num_levels, None
                    new_labels = np.unique(anc_new[k])
                if not np.array_equal(new_labels, rec.label_ids):
                    self.stats.records_dropped += 1
                    continue
                label_dirty = np.array(
                    [ck in dirty[k] for ck in rec.label_ids.tolist()],
                    dtype=bool)
                stale = label_dirty | ~flood_rows_safe(
                    rec.dist, rec.next_hop, ups_idx, downs_idx,
                    restrict_mask=mask)
            if rec.stale is not None:
                stale |= rec.stale
            self.stats.records_reused += 1
            self.stats.rows_reused += int((~stale).sum())
            self.stats.rows_stale += int(stale.sum())
            rec.stale = stale if stale.any() else None
            inherited[key] = rec

        nh_keep: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        for (k, ck), (nh_arr, d_arr) in prev._nh_cache.items():
            if ck not in dirty[k] and flood_rows_safe(
                    d_arr, nh_arr, ups_idx, downs_idx)[0]:
                nh_keep[(k, ck)] = (nh_arr, d_arr)
                self.stats.floods_reused += 1
            else:
                self.stats.floods_dropped += 1
        l0_keep: OrderedDict[int, tuple[np.ndarray, np.ndarray]] = OrderedDict()
        for dst, (nh_arr, d_arr) in prev._l0_cache.items():
            if flood_rows_safe(d_arr, nh_arr, ups_idx, downs_idx)[0]:
                l0_keep[dst] = (nh_arr, d_arr)
                self.stats.floods_reused += 1
            else:
                self.stats.floods_dropped += 1
        if nh_keep:
            inherited[("nh",)] = nh_keep
        if l0_keep:
            inherited[("l0",)] = l0_keep
        return inherited
