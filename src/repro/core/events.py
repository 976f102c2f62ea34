"""Handoff trigger events — the taxonomy of Sections 4 and 5.2.

Comparing two consecutive hierarchy snapshots yields:

* **Node migration** (Section 4): a physical node's level-k cluster
  changed while both old and new clusters persist — the level-k topology
  stayed intact, only membership moved.

* **Cluster reorganization** (Section 5.2, events i-vii):

  =====  =========================================================
  kind   trigger
  =====  =========================================================
  i      level-k link formed between clusters (one a level-(k+1) node)
  ii     level-k link broken between clusters (one a level-(k+1) node)
  iii    v promoted to level k by a *migrating* elector
  iv     v demoted from level k by a *migrating* elector
  v      v promoted to level k by a *newly elected* elector (recursive)
  vi     v demoted from level k because its elector was demoted
         (recursive — the "domino" chain of Section 5.2)
  vii    a level-k neighbor of v was elected level-(k+1) clusterhead
  =====  =========================================================

The detector classifies iii vs v (and iv vs vi) by checking whether the
responsible elector itself entered (resp. left) the level-(k-1) node set
in the same step, which is exactly the recursion the paper's Eq. (15)
chain quantifies.

The detector is event-sized: every per-node python loop below runs over
*changed* rows only (vectorized masks pick them out first), so a
steady-state step with few topology events costs little more than the
ancestry comparisons themselves.  Event lists keep the exact order the
original per-element scan produced, so traces diff clean across the
incremental/full hierarchy paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from repro.hierarchy.levels import ClusteredHierarchy

__all__ = [
    "EventKind",
    "MigrationEvent",
    "ReorgEvent",
    "HierarchyDiff",
    "diff_hierarchies",
    "lowest_changed_levels",
    "pure_moves",
]


class EventKind(Enum):
    """Reorganization event types (i)-(vii) plus pure migration."""

    MIGRATION = "migration"
    LINK_UP = "i"
    LINK_DOWN = "ii"
    ELECT_MIGRATION = "iii"
    REJECT_MIGRATION = "iv"
    ELECT_RECURSIVE = "v"
    REJECT_RECURSIVE = "vi"
    NEIGHBOR_ELECTED = "vii"


@dataclass(frozen=True)
class MigrationEvent:
    """A node's level-k cluster changed between snapshots."""

    node: int
    level: int
    old_cluster: int
    new_cluster: int
    pure: bool
    """True when this is Section 4's *node migration*: both clusters
    exist in both snapshots ("the level-k topology remains intact") AND
    the change originates from the node's own re-affiliation (its level-1
    cluster changed).  When a whole level-(k-1) cluster re-affiliates,
    every member's level-k ancestry flips at once — the paper counts that
    as ONE cluster-migration reorganization event (kinds i/ii), so those
    per-node flips are impure here and their handoff cost lands in gamma.
    """
    origin_level: int = 1
    """Lowest level at which the node's ancestry changed — 1 for an
    individual move, > 1 when an ancestor cluster re-affiliated."""


@dataclass(frozen=True)
class ReorgEvent:
    """A cluster reorganization event of kind (i)-(vii) at ``level``."""

    kind: EventKind
    level: int
    subject: int
    """The cluster/node the event is about (v_k in the paper)."""
    other: int | None = None
    """The counterpart (u_k: link peer, elector, or new head)."""


@dataclass
class HierarchyDiff:
    """All events between two hierarchy snapshots."""

    migrations: list[MigrationEvent] = field(default_factory=list)
    reorgs: list[ReorgEvent] = field(default_factory=list)

    def migration_counts(self) -> dict[int, int]:
        """Pure migration events per level (f_k numerators)."""
        counts: dict[int, int] = {}
        for ev in self.migrations:
            if ev.pure:
                counts[ev.level] = counts.get(ev.level, 0) + 1
        return counts

    def reorg_counts(self) -> dict[tuple[EventKind, int], int]:
        """Reorg events per (kind, level)."""
        counts: dict[tuple[EventKind, int], int] = {}
        for ev in self.reorgs:
            key = (ev.kind, ev.level)
            counts[key] = counts.get(key, 0) + 1
        return counts


def _isin_sorted(sorted_ids: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Membership of ``values`` in a sorted unique id array."""
    if sorted_ids.size == 0:
        return np.zeros(np.shape(values), dtype=bool)
    pos = np.minimum(
        np.searchsorted(sorted_ids, values), sorted_ids.size - 1
    )
    return sorted_ids[pos] == values


_EMPTY_IDS = np.empty(0, dtype=np.int64)
_EMPTY_EDGES = np.empty((0, 2), dtype=np.int64)


def _edge_diffs(e0: np.ndarray, e1: np.ndarray):
    """(e1 - e0, e0 - e1) as edge arrays in ascending (u, v) lex order.

    Canonical edge arrays encode to unique keys ``u * big + v``; the
    sorted key set-diffs decode back in exactly the order the legacy
    ``sorted(set(tuples))`` scan produced.  Falls back to python sets
    for ids large enough to overflow the encoding (never the case for
    level node IDs drawn from base IDs, but kept for safety).
    """
    hi = max(
        int(e0.max(initial=-1)),
        int(e1.max(initial=-1)),
    )
    lo = min(int(e0.min(initial=0)), int(e1.min(initial=0)))
    big = hi + 1
    if lo < 0 or big >= 2**31:  # pragma: no cover - exotic id ranges
        s0 = {tuple(e) for e in e0.tolist()}
        s1 = {tuple(e) for e in e1.tolist()}
        up = np.asarray(sorted(s1 - s0), dtype=np.int64).reshape(-1, 2)
        down = np.asarray(sorted(s0 - s1), dtype=np.int64).reshape(-1, 2)
        return up, down
    k0 = e0[:, 0] * big + e0[:, 1]
    k1 = e1[:, 0] * big + e1[:, 1]
    up_k = np.setdiff1d(k1, k0, assume_unique=True)
    down_k = np.setdiff1d(k0, k1, assume_unique=True)
    up = np.stack([up_k // big, up_k % big], axis=1) if up_k.size else _EMPTY_EDGES
    down = (
        np.stack([down_k // big, down_k % big], axis=1)
        if down_k.size
        else _EMPTY_EDGES
    )
    return up, down


def lowest_changed_levels(h0: ClusteredHierarchy, h1: ClusteredHierarchy) -> np.ndarray:
    """Per base node: lowest level where its cluster chain differs
    (0 = unchanged through the comparable levels)."""
    lcl = np.zeros(h0.n, dtype=np.int64)
    for k in range(min(h0.num_levels, h1.num_levels), 0, -1):
        lcl[h0.ancestry(k) != h1.ancestry(k)] = k
    return lcl


def pure_moves(
    h0: ClusteredHierarchy, h1: ClusteredHierarchy, k: int,
    moved: np.ndarray, origin: np.ndarray,
) -> np.ndarray:
    """:attr:`MigrationEvent.pure` for the base positions ``moved`` whose
    level-``k`` cluster changed: the change originates at level 1 and
    both clusters exist at level k in both snapshots."""
    v0, v1 = h0.levels[k].node_ids, h1.levels[k].node_ids
    pure = origin[moved] == 1
    for cluster in (h0.ancestry(k)[moved], h1.ancestry(k)[moved]):
        pure &= _isin_sorted(v0, cluster) & _isin_sorted(v1, cluster)
    return pure


def _electors_of(h: ClusteredHierarchy, level: int, head: int) -> list[int]:
    """Level-(level-1) nodes whose *raw* election points at ``head``."""
    election = h.levels[level - 1].election
    if election is None:
        return []
    mask = election.elected_head == head
    return election.node_ids[mask].tolist()


def _election_events(
    diff: HierarchyDiff,
    kind_plain: EventKind,
    kind_recursive: EventKind,
    h_ref: ClusteredHierarchy,
    k: int,
    heads: np.ndarray,
    below_other: np.ndarray,
    below_same: np.ndarray,
) -> None:
    """Shared body for (iii)/(v) promotions and (iv)/(vi) demotions.

    ``h_ref`` is the snapshot that *contains* the head at level k (h1
    for promotions, h0 for demotions); ``below_other`` is the other
    snapshot's level-(k-1) node set and ``below_same`` is ``h_ref``'s.
    """
    election = (
        h_ref.levels[k - 1].election if k <= h_ref.num_levels else None
    )
    for v in heads.tolist():
        if election is not None:
            cand = election.node_ids[election.elected_head == v]
            cand = cand[cand != v]
        else:  # pragma: no cover - heads imply the level exists
            cand = _EMPTY_IDS
        moved = cand[~_isin_sorted(below_other, cand)]
        recursive = k >= 2 and bool(np.any(_isin_sorted(below_same, moved)))
        if recursive:
            other = int(moved.min())
        else:
            other = int(cand.min()) if cand.size else None
        diff.reorgs.append(
            ReorgEvent(
                kind=kind_recursive if recursive else kind_plain,
                level=k,
                subject=int(v),
                other=other,
            )
        )


def diff_hierarchies(h0: ClusteredHierarchy, h1: ClusteredHierarchy) -> HierarchyDiff:
    """Detect all migration and reorganization events from h0 to h1.

    Both snapshots must cover the same physical node set.
    """
    if not np.array_equal(h0.levels[0].node_ids, h1.levels[0].node_ids):
        raise ValueError("snapshots cover different node sets")
    diff = HierarchyDiff()
    max_l = max(h0.num_levels, h1.num_levels)

    def v0(k: int) -> np.ndarray:
        return h0.levels[k].node_ids if k < len(h0.levels) else _EMPTY_IDS

    def v1(k: int) -> np.ndarray:
        return h1.levels[k].node_ids if k < len(h1.levels) else _EMPTY_IDS

    # --- node migration (per level) -------------------------------------------
    # Origin level per node: the lowest level where its ancestry changed.
    min_l = min(h0.num_levels, h1.num_levels)
    origin = lowest_changed_levels(h0, h1)

    base_ids = h0.levels[0].node_ids
    for k in range(1, min_l + 1):
        a0 = h0.ancestry(k)
        a1 = h1.ancestry(k)
        moved = np.flatnonzero(a0 != a1)
        if moved.size == 0:
            continue
        old_c = a0[moved]
        new_c = a1[moved]
        pure = pure_moves(h0, h1, k, moved, origin)
        nodes = base_ids[moved]
        for i in range(moved.size):
            diff.migrations.append(
                MigrationEvent(
                    node=int(nodes[i]),
                    level=k,
                    old_cluster=int(old_c[i]),
                    new_cluster=int(new_c[i]),
                    pure=bool(pure[i]),
                    origin_level=int(origin[moved[i]]),
                )
            )

    # --- cluster link events (i)/(ii) -----------------------------------------
    for k in range(1, max_l + 1):
        e0 = h0.levels[k].edges if k <= h0.num_levels else _EMPTY_EDGES
        e1 = h1.levels[k].edges if k <= h1.num_levels else _EMPTY_EDGES
        up_edges, down_edges = _edge_diffs(e0, e1)
        for edges, upper, kind in (
            (up_edges, v1(k + 1), EventKind.LINK_UP),
            (down_edges, v0(k + 1), EventKind.LINK_DOWN),
        ):
            if edges.shape[0] == 0:
                continue
            u_in = _isin_sorted(upper, edges[:, 0])
            v_in = _isin_sorted(upper, edges[:, 1])
            for i in np.flatnonzero(u_in | v_in).tolist():
                u, v = int(edges[i, 0]), int(edges[i, 1])
                subject, other = (v, u) if v_in[i] else (u, v)
                diff.reorgs.append(
                    ReorgEvent(kind=kind, level=k, subject=subject, other=other)
                )

    # --- elections / rejections (iii)-(vi) --------------------------------------
    for k in range(1, max_l + 1):
        elected = np.setdiff1d(v1(k), v0(k), assume_unique=True)
        rejected = np.setdiff1d(v0(k), v1(k), assume_unique=True)
        _election_events(
            diff, EventKind.ELECT_MIGRATION, EventKind.ELECT_RECURSIVE,
            h1, k, elected, below_other=v0(k - 1), below_same=v1(k - 1),
        )
        _election_events(
            diff, EventKind.REJECT_MIGRATION, EventKind.REJECT_RECURSIVE,
            h0, k, rejected, below_other=v1(k - 1), below_same=v0(k - 1),
        )

    # --- neighbor elected to level k+1 (vii) --------------------------------------
    for k in range(1, max_l + 1):
        newly_up = np.setdiff1d(v1(k + 1), v0(k + 1), assume_unique=True)
        if newly_up.size == 0 or k > h1.num_levels:
            continue
        e1 = h1.levels[k].edges
        if e1.size == 0:
            continue
        u_new = _isin_sorted(newly_up, e1[:, 0])
        v_new = _isin_sorted(newly_up, e1[:, 1])
        for i in np.flatnonzero(u_new ^ v_new).tolist():
            u, v = int(e1[i, 0]), int(e1[i, 1])
            if u_new[i]:
                diff.reorgs.append(
                    ReorgEvent(kind=EventKind.NEIGHBOR_ELECTED, level=k,
                               subject=v, other=u)
                )
            else:
                diff.reorgs.append(
                    ReorgEvent(kind=EventKind.NEIGHBOR_ELECTED, level=k,
                               subject=u, other=v)
                )

    return diff
