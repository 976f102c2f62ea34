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
parallel columns per migration, four per reorganization event — in the
exact order the original per-level, per-element scan produced, so traces
diff clean across the incremental/full hierarchy paths.  It also carries
the per-level link-change and drift counts the level series read, so a
step diffs its two hierarchies once.

Work layout: :func:`diff_hierarchies` handles every level in one pass,
on level-tagged keys built from compacted rows, never from IDs
(``k * W + row`` for a level-k node, ``(k * W + row_u) * W + row_v`` for
a link; docs/ARCHITECTURE.md, "Data layout: hierarchy events"), so a
step costs a fixed number of array operations whatever the depth L, and
minted cluster IDs (>= 10^7) or base IDs near the top of int32 need no
other path: the IDs and rows are int32, the keys int64.
A 1 m/s step at n = 10^4 yields about 1.3 events per node, so nothing
loops over events: every consumer reads the columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

from repro.graphs import IdIndex
from repro.hierarchy.levels import ClusteredHierarchy
from repro.radio.linkevents import sorted_key_diff

__all__ = [
    "EventKind",
    "HierarchyDiff",
    "diff_hierarchies",
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
# ``reorg_kind`` codes: positions in ``_KINDS``.
(_LINK_UP, _LINK_DOWN, _ELECT_MIGRATION, _REJECT_MIGRATION, _ELECT_RECURSIVE,
 _REJECT_RECURSIVE, _NEIGHBOR_ELECTED) = range(1, len(_KINDS))


_NO_ONE = np.iinfo(np.int64).max


def _no_ids() -> np.ndarray:
    return np.empty(0, dtype=np.int64)


@dataclass(eq=False)
class HierarchyDiff:
    """All events between two hierarchy snapshots, as parallel arrays.

    Row ``i`` of the ``mig_*`` columns is one node migration: ``node``'s
    level-``level`` cluster changed from ``old`` to ``new``; ``origin``
    is the lowest level at which the node's ancestry changed (1 for an
    individual move, > 1 when an ancestor cluster re-affiliated).
    ``pure`` marks Section 4's *node migration*: both clusters exist in
    both snapshots ("the level-k topology remains intact") and the
    change originates at level 1.  When a whole level-(k-1) cluster
    re-affiliates, every member's level-k ancestry flips at once; the
    paper counts that as ONE cluster-migration reorganization event
    (kinds i/ii), so those per-node flips are impure and their handoff
    cost lands in gamma.

    Row ``j`` of the ``reorg_*`` columns is one reorganization event of
    kind (i)-(vii) at ``reorg_level``: ``reorg_kind`` holds positions in
    ``tuple(EventKind)``, ``reorg_subject`` the cluster/node the event
    is about (v_k in the paper), ``reorg_other`` its counterpart (u_k:
    link peer, elector, or new head) or -1 for none.

    ``link_changes[k]`` counts the level-k links that appeared or
    vanished, ``drift_changes[k]`` those of them whose two endpoints are
    level-k nodes in both snapshots (Section 5.3.1's cluster migration;
    the rest is election churn), for k = 1 .. the deeper snapshot's L
    (entry 0 is unused and 0).  Both are empty on the baseline diff.
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
    link_changes: np.ndarray = field(default_factory=_no_ids)
    drift_changes: np.ndarray = field(default_factory=_no_ids)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HierarchyDiff):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name))
            for f in fields(self)
        )

    def event_counts(self, width: int) -> np.ndarray:
        """Events per kind and level, ``[kind, level]`` for levels
        ``0 .. width - 1``: row ``i`` counts kind ``tuple(EventKind)[i]``,
        so row 0 counts the pure migrations (the f_k numerators)."""
        keys = np.concatenate((self.mig_level[self.mig_pure],
                               self.reorg_kind * width + self.reorg_level))
        return np.bincount(keys, minlength=len(_KINDS) * width).reshape(-1, width)


def _election_events(h: ClusteredHierarchy, keys: np.ndarray,
                     heads: np.ndarray, rows: IdIndex, width: int,
                     member: np.ndarray, other_bit: int):
    """``(recursive, other)`` columns of the (iii)/(v) promotions or the
    (iv)/(vi) demotions: one event per head key in ``heads`` (ascending),
    all levels at once.

    ``h`` is the snapshot that *contains* the heads (h1 for promotions,
    h0 for demotions) and ``keys`` its node keys, levels 1..L in order.
    A head's electors are the level-(k-1) nodes whose raw election
    points at it, itself excluded.  An elector *moved* when it is not a
    level-(k-1) node of the other snapshot (its ``member`` code lacks
    ``other_bit``); level-0 electors never are.  The event is recursive
    when an elector moved; its counterpart is then the smallest such
    elector, otherwise the smallest elector, or none when nobody else
    elected the head.
    """
    elections = [lvl.election for lvl in h.levels[:-1]]
    voters = np.concatenate([e.node_ids for e in elections])
    votes = np.concatenate([e.elected_head for e in elections])
    tags = np.repeat(np.arange(1, len(elections) + 1) * width,
                     [e.node_ids.size for e in elections])
    seat = np.full(member.size, -1, dtype=np.int32)
    seat[heads] = np.arange(heads.size, dtype=np.int32)
    # One pass over every level for every head: keep the electors of any
    # head, then reduce per head.
    seg = seat[tags + rows.rows(votes)]
    at = ((seg >= 0) & (votes != voters)).nonzero()[0]
    # int64 like the sentinel: ``ufunc.at`` is fast only without a cast.
    seg, cand = seg[at], voters[at].astype(np.int64)
    first_cand = np.full(heads.size, _NO_ONE)
    np.minimum.at(first_cand, seg, cand)
    # Elector j >= 1 of the concatenation sits at level >= 1, where its
    # key is the snapshot's node key (level 0 fills the first n places).
    n = h.n
    moved = at >= n
    moved[moved] = (member[keys[at[moved] - n]] & other_bit) == 0
    first_moved = np.full(heads.size, _NO_ONE)
    np.minimum.at(first_moved, seg[moved], cand[moved])
    recursive = np.zeros(heads.size, dtype=bool)
    recursive[seg[moved]] = True
    other = np.where(recursive, first_moved, first_cand)
    other[other == _NO_ONE] = -1
    return recursive, other


def diff_hierarchies(h0: ClusteredHierarchy, h1: ClusteredHierarchy) -> HierarchyDiff:
    """Detect all migration and reorganization events from h0 to h1.

    Both snapshots must cover the same physical node set, and every
    level's edges must be canonical (``u < v`` rows in ascending order,
    as :func:`~repro.hierarchy.levels.recurse_levels` builds them).
    """
    base = h0.levels[0].node_ids
    if not np.array_equal(base, h1.levels[0].node_ids):
        raise ValueError("snapshots cover different node sets")
    diff = HierarchyDiff()
    sides = (h0, h1)
    max_l = max(h0.num_levels, h1.num_levels)
    if max_l == 0:
        return diff

    # --- level-tagged keys over one compaction of both snapshots ---------------
    # Entry j of each list below is level tag[j] of snapshot 0, then of 1.
    uppers = [lvl for h in sides for lvl in h.levels[1:]]
    tag = np.array([lvl.k for lvl in uppers], dtype=np.int64)
    split = h0.num_levels
    node_ids = np.concatenate([lvl.node_ids for lvl in uppers])
    sizes = [lvl.node_ids.size for lvl in uppers]
    # Sort + neighbour mask: numpy's np.unique on int64 is a hash pass
    # that costs several times more here.
    union = np.sort(node_ids)
    union = union[np.concatenate(([True], union[1:] != union[:-1]))]
    width = union.size
    rows = IdIndex(union)
    node_key = np.repeat(tag * width, sizes)
    node_key += rows.rows(node_ids)
    n0 = sum(sizes[:split])
    keys0, keys1 = node_key[:n0], node_key[n0:]
    # Bit 1: a node of snapshot 0 at that level, bit 2: of snapshot 1.  The
    # table spans tag max_l + 1, so "is my endpoint one level up" lookups
    # (key + width) stay in range.
    member = np.zeros((max_l + 2) * width, dtype=np.uint8)
    member[keys0] = 1
    member[keys1] += 2

    # A link's key is the only per-link array kept: its level and its
    # endpoints' node keys are decoded from it where they are read.
    sizes = [lvl.edges.shape[0] for lvl in uppers]
    end_rows = rows.rows(np.concatenate([lvl.edges for lvl in uppers]))
    edge_key = np.repeat(tag * width, sizes)
    edge_key += end_rows[:, 0]
    edge_key *= width
    edge_key += end_rows[:, 1]
    del end_rows
    m0 = sum(sizes[:split])
    up, down = sorted_key_diff(edge_key.copy(), m0)
    up += m0

    def link_ends(pos):
        """``(level, u_key, v_key)`` of the links at ``pos``."""
        u_key, v_row = np.divmod(edge_key[pos], width)
        level = u_key // width
        return level, u_key, v_row + level * width

    # --- per-level link and drift counts ----------------------------------------
    level_of, u_key, v_key = link_ends(np.concatenate((down, up)))
    both = member == 3
    drift = both[u_key] & both[v_key]
    diff.link_changes = np.bincount(level_of, minlength=max_l + 1)
    diff.drift_changes = np.bincount(level_of[drift], minlength=max_l + 1)

    # --- node migration -----------------------------------------------------------
    min_l = min(h0.num_levels, h1.num_levels)
    if min_l:
        anc0 = h0.ancestries[1:min_l + 1]
        anc1 = h1.ancestries[1:min_l + 1]
        moved = np.array([a != b for a, b in zip(anc0, anc1)])
        level, node = moved.nonzero()
        cut = level.searchsorted(np.arange(min_l + 1)).tolist()
        old, new = (
            np.concatenate([a[node[lo:hi]] for a, lo, hi in zip(anc, cut, cut[1:])])
            for anc in (anc0, anc1)
        )
        level += 1
        # Origin: the lowest level the node's ancestry changed at.
        lowest = np.full(base.size, min_l)
        np.minimum.at(lowest, node, level)
        origin = lowest[node]
        persists = both[level * width + rows.rows(np.stack((old, new)))]
        diff.mig_node, diff.mig_level = base[node], level
        diff.mig_old, diff.mig_new = old, new
        diff.mig_pure = (origin == 1) & persists[0] & persists[1]
        diff.mig_origin = origin

    # --- reorganization events: (i)/(ii), then (iii)-(vi), then (vii) -----------
    # Every part comes out level-sorted; a stable sort on (part, level,
    # side) interleaves them in the per-level order of the original scan.
    group = 2 * (max_l + 2)
    parts = []

    # (i)/(ii): the subject is the endpoint that is a level-(k+1) node on the
    # link's side (v when both are).
    pos = np.concatenate((up, down))
    side_bit = np.repeat(np.array([2, 1], dtype=np.uint8), (up.size, down.size))
    level, u_key, v_key = link_ends(pos)
    u_in = (member[u_key + width] & side_bit) > 0
    v_in = (member[v_key + width] & side_bit) > 0
    hit = (u_in | v_in).nonzero()[0]
    v_in, level = v_in[hit], level[hit]
    is_down = hit >= up.size
    u, v = union[u_key[hit] - level * width], union[v_key[hit] - level * width]
    parts.append((
        np.where(is_down, _LINK_DOWN, _LINK_UP), level,
        np.where(v_in, v, u), np.where(v_in, u, v), 2 * level + is_down,
    ))

    # (iii)-(vi): promotions (in snapshot 1 only) and demotions (0 only).
    for h, keys, heads, plain, recursive_kind, other_bit, side in (
        (h1, keys1, keys1[member[keys1] == 2],
         _ELECT_MIGRATION, _ELECT_RECURSIVE, 1, 0),
        (h0, keys0, keys0[member[keys0] == 1],
         _REJECT_MIGRATION, _REJECT_RECURSIVE, 2, 1),
    ):
        if heads.size:
            recursive, other = _election_events(
                h, keys, heads, rows, width, member, other_bit)
            level = heads // width
            parts.append((
                np.where(recursive, recursive_kind, plain), level,
                union[heads - level * width], other, group + 2 * level + side,
            ))

    # (vii): a snapshot-1 link with exactly one endpoint promoted to level
    # k + 1; the subject is the endpoint that was *not* elected.
    level, u_key, v_key = link_ends(slice(m0, None))
    u_new = member[u_key + width] == 2
    hit = (u_new ^ (member[v_key + width] == 2)).nonzero()[0]
    u_new, level = u_new[hit], level[hit]
    u, v = union[u_key[hit] - level * width], union[v_key[hit] - level * width]
    parts.append((
        np.full(hit.size, _NEIGHBOR_ELECTED), level,
        np.where(u_new, v, u), np.where(u_new, u, v), 2 * group + 2 * level,
    ))

    kind, level, subject, other, order = map(np.concatenate, zip(*parts))
    order = order.argsort(kind="stable")
    diff.reorg_kind, diff.reorg_level = kind[order], level[order]
    diff.reorg_subject, diff.reorg_other = subject[order], other[order]
    return diff
