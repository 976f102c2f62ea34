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

Data layout: a :class:`HierarchyDiff` is a struct of arrays — six
parallel columns per migration, four per reorganization event — filled
one whole per-level chunk at a time, in the exact order the original
per-element scan produced, so traces diff clean across the
incremental/full hierarchy paths.  A 1 m/s step at n = 10^4 yields about
1.3 events per node, so nothing on the simulation path loops over
events: the count reductions work on the columns, and
:class:`MigrationEvent` / :class:`ReorgEvent` objects exist only in the
on-demand :attr:`HierarchyDiff.migrations` / :attr:`HierarchyDiff.reorgs`
views (tests, examples, debugging).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

from repro.graphs import IdIndex
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


_KINDS = tuple(EventKind)
_KIND_CODE = {kind: code for code, kind in enumerate(_KINDS)}


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


_EMPTY_IDS = np.empty(0, dtype=np.int64)
_EMPTY_EDGES = np.empty((0, 2), dtype=np.int64)


def _no_ids() -> np.ndarray:
    return np.empty(0, dtype=np.int64)


def _first_seen_counts(keys: np.ndarray) -> tuple[list[int], list[int]]:
    """Distinct keys in order of first occurrence, with their counts."""
    uniq, first, counts = np.unique(keys, return_index=True, return_counts=True)
    order = np.argsort(first)
    return uniq[order].tolist(), counts[order].tolist()


@dataclass(eq=False)
class HierarchyDiff:
    """All events between two hierarchy snapshots, as parallel arrays.

    Row ``i`` of the ``mig_*`` columns is one :class:`MigrationEvent`
    (same field meanings), row ``j`` of the ``reorg_*`` columns one
    :class:`ReorgEvent`: ``reorg_kind`` holds positions in
    ``tuple(EventKind)`` and ``reorg_other`` -1 for "no counterpart".
    """

    mig_node: np.ndarray = field(default_factory=_no_ids)
    mig_level: np.ndarray = field(default_factory=_no_ids)
    mig_old: np.ndarray = field(default_factory=_no_ids)
    mig_new: np.ndarray = field(default_factory=_no_ids)
    mig_pure: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=bool))
    mig_origin: np.ndarray = field(default_factory=_no_ids)
    reorg_kind: np.ndarray = field(default_factory=_no_ids)
    reorg_level: np.ndarray = field(default_factory=_no_ids)
    reorg_subject: np.ndarray = field(default_factory=_no_ids)
    reorg_other: np.ndarray = field(default_factory=_no_ids)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HierarchyDiff):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name))
            for f in fields(self)
        )

    @property
    def migrations(self) -> list[MigrationEvent]:
        """Object view of the migration columns, built on every access."""
        return [
            MigrationEvent(*row)
            for row in zip(
                self.mig_node.tolist(), self.mig_level.tolist(),
                self.mig_old.tolist(), self.mig_new.tolist(),
                self.mig_pure.tolist(), self.mig_origin.tolist(),
            )
        ]

    @property
    def reorgs(self) -> list[ReorgEvent]:
        """Object view of the reorg columns, built on every access."""
        return [
            ReorgEvent(_KINDS[kind], level, subject,
                       None if other < 0 else other)
            for kind, level, subject, other in zip(
                self.reorg_kind.tolist(), self.reorg_level.tolist(),
                self.reorg_subject.tolist(), self.reorg_other.tolist(),
            )
        ]

    def migration_counts(self) -> dict[int, int]:
        """Pure migration events per level (f_k numerators)."""
        return dict(zip(*_first_seen_counts(self.mig_level[self.mig_pure])))

    def reorg_counts(self) -> dict[tuple[EventKind, int], int]:
        """Reorg events per (kind, level)."""
        if self.reorg_kind.size == 0:
            return {}
        span = int(self.reorg_level.max()) + 1
        keys, counts = _first_seen_counts(self.reorg_kind * span + self.reorg_level)
        return {
            (_KINDS[key // span], key % span): count
            for key, count in zip(keys, counts)
        }


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
    pure = origin[moved] == 1
    # Node-sized queries (most of a slow step's nodes sit in a level-1
    # cell that changed): worth one lookup table per level node set.
    in_v0 = IdIndex(h0.levels[k].node_ids).contains
    in_v1 = IdIndex(h1.levels[k].node_ids).contains
    for cluster in (h0.ancestry(k)[moved], h1.ancestry(k)[moved]):
        pure &= in_v0(cluster) & in_v1(cluster)
    return pure


def _election_events(
    kind_plain: EventKind,
    kind_recursive: EventKind,
    h_ref: ClusteredHierarchy,
    k: int,
    heads: np.ndarray,
    below_other: np.ndarray,
    below_same: np.ndarray,
):
    """(kind, subject, other) columns of the (iii)/(v) promotions or the
    (iv)/(vi) demotions of ``heads`` (ascending), one event per head.

    ``h_ref`` is the snapshot that *contains* the heads at level k (h1
    for promotions, h0 for demotions); ``below_other`` is the other
    snapshot's level-(k-1) node set and ``below_same`` is ``h_ref``'s.
    A head's electors are the level-(k-1) nodes whose raw election
    points at it, itself excluded.  The event is *recursive* when an
    elector entered (resp. left) level k-1 in the same step; its
    counterpart is then the smallest such elector, otherwise the
    smallest elector, or none when nobody else elected the head.
    """
    if heads.size == 0:
        return _EMPTY_IDS, heads, heads
    if k <= h_ref.num_levels:
        election = h_ref.levels[k - 1].election
        elected_head, node_ids = election.elected_head, election.node_ids
    else:  # pragma: no cover - heads imply the level exists
        elected_head = node_ids = _EMPTY_IDS
    # One pass over the level for all heads: keep the electors of any
    # head, then reduce per head.
    seg = IdIndex(heads).rows(elected_head)
    cand = np.flatnonzero((seg >= 0) & (elected_head != node_ids))
    seg, cand = seg[cand], node_ids[cand]
    no_one = np.iinfo(np.int64).max
    first_cand = np.full(heads.size, no_one)
    np.minimum.at(first_cand, seg, cand)
    moved = ~IdIndex(below_other).contains(cand)
    first_moved = np.full(heads.size, no_one)
    np.minimum.at(first_moved, seg[moved], cand[moved])
    recursive = np.zeros(heads.size, dtype=bool)
    if k >= 2:
        recursive[seg[moved & IdIndex(below_same).contains(cand)]] = True
    other = np.where(recursive, first_moved, first_cand)
    other[other == no_one] = -1
    kind = np.where(
        recursive, _KIND_CODE[kind_recursive], _KIND_CODE[kind_plain]
    )
    return kind, heads, other


def diff_hierarchies(h0: ClusteredHierarchy, h1: ClusteredHierarchy) -> HierarchyDiff:
    """Detect all migration and reorganization events from h0 to h1.

    Both snapshots must cover the same physical node set.
    """
    if not np.array_equal(h0.levels[0].node_ids, h1.levels[0].node_ids):
        raise ValueError("snapshots cover different node sets")
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
    # One (node, level, old, new, pure, origin) chunk per level.
    migrations: list[tuple] = []
    for k in range(1, min_l + 1):
        a0 = h0.ancestry(k)
        a1 = h1.ancestry(k)
        moved = np.flatnonzero(a0 != a1)
        if moved.size == 0:
            continue
        migrations.append((
            base_ids[moved], np.full(moved.size, k), a0[moved], a1[moved],
            pure_moves(h0, h1, k, moved, origin), origin[moved],
        ))

    # One (kind, level, subject, other) chunk per event source and level.
    reorgs: list[tuple] = []

    def emit(k: int, kind, subject: np.ndarray, other: np.ndarray) -> None:
        if subject.size:
            reorgs.append((
                np.full(subject.size, kind), np.full(subject.size, k),
                subject, other,
            ))

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
            in_upper = IdIndex(upper).contains
            u_in, v_in = in_upper(edges[:, 0]), in_upper(edges[:, 1])
            # The subject is the endpoint that is a level-(k+1) node
            # (v when both are).
            hit = np.flatnonzero(u_in | v_in)
            u, v, v_in = edges[hit, 0], edges[hit, 1], v_in[hit]
            emit(k, _KIND_CODE[kind], np.where(v_in, v, u), np.where(v_in, u, v))

    # --- elections / rejections (iii)-(vi) --------------------------------------
    for k in range(1, max_l + 1):
        elected = np.setdiff1d(v1(k), v0(k), assume_unique=True)
        rejected = np.setdiff1d(v0(k), v1(k), assume_unique=True)
        emit(k, *_election_events(
            EventKind.ELECT_MIGRATION, EventKind.ELECT_RECURSIVE,
            h1, k, elected, below_other=v0(k - 1), below_same=v1(k - 1),
        ))
        emit(k, *_election_events(
            EventKind.REJECT_MIGRATION, EventKind.REJECT_RECURSIVE,
            h0, k, rejected, below_other=v1(k - 1), below_same=v0(k - 1),
        ))

    # --- neighbor elected to level k+1 (vii) --------------------------------------
    for k in range(1, max_l + 1):
        newly_up = np.setdiff1d(v1(k + 1), v0(k + 1), assume_unique=True)
        if newly_up.size == 0 or k > h1.num_levels:
            continue
        e1 = h1.levels[k].edges
        if e1.size == 0:
            continue
        is_new = IdIndex(newly_up).contains
        u_new, v_new = is_new(e1[:, 0]), is_new(e1[:, 1])
        # The subject is the endpoint that was *not* elected.
        hit = np.flatnonzero(u_new ^ v_new)
        u, v, u_new = e1[hit, 0], e1[hit, 1], u_new[hit]
        emit(k, _KIND_CODE[EventKind.NEIGHBOR_ELECTED],
             np.where(u_new, v, u), np.where(u_new, u, v))

    diff = HierarchyDiff()
    if migrations:
        (diff.mig_node, diff.mig_level, diff.mig_old, diff.mig_new,
         diff.mig_pure, diff.mig_origin) = map(np.concatenate, zip(*migrations))
    if reorgs:
        (diff.reorg_kind, diff.reorg_level, diff.reorg_subject,
         diff.reorg_other) = map(np.concatenate, zip(*reorgs))
    return diff
