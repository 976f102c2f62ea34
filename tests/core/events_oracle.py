"""Per-event reference detector for :func:`repro.core.diff_hierarchies`.

The production detector fills :class:`~repro.core.events.HierarchyDiff`'s
parallel arrays for every level in one level-stacked pass.  This is the
per-level loop it replaced, kept as the oracle: python sets of ``(u, v)``
tuples for the link diffs, one ``MigrationEvent`` / ``ReorgEvent``
object per change, every promoted or demoted head scanning its level for
electors, and dict-accumulating count helpers.
``tests/core/test_events.py`` requires the object views to equal these
lists *in order* and the count dicts to be equal including key order.
"""

import numpy as np

from repro.core.events import EventKind, MigrationEvent, ReorgEvent

_EMPTY_IDS = np.empty(0, dtype=np.int64)
_EMPTY_EDGES = np.empty((0, 2), dtype=np.int64)


def _edge_diffs(e0, e1):
    """(e1 - e0, e0 - e1) as edge arrays in ascending (u, v) lex order."""
    s0 = {tuple(e) for e in e0.tolist()}
    s1 = {tuple(e) for e in e1.tolist()}
    up = np.asarray(sorted(s1 - s0), dtype=np.int64).reshape(-1, 2)
    down = np.asarray(sorted(s0 - s1), dtype=np.int64).reshape(-1, 2)
    return up, down


def lowest_changed_levels(h0, h1):
    """Per base node: lowest level where its cluster chain differs
    (0 = unchanged through the comparable levels)."""
    lcl = np.zeros(h0.n, dtype=np.int64)
    for k in range(min(h0.num_levels, h1.num_levels), 0, -1):
        lcl[h0.ancestry(k) != h1.ancestry(k)] = k
    return lcl


def pure_moves(h0, h1, k, moved, origin):
    """``MigrationEvent.pure`` for the base positions ``moved`` whose
    level-``k`` cluster changed: the change originates at level 1 and
    both clusters exist at level k in both snapshots."""
    pure = origin[moved] == 1
    v0, v1 = h0.levels[k].node_ids, h1.levels[k].node_ids
    for cluster in (h0.ancestry(k)[moved], h1.ancestry(k)[moved]):
        pure &= _isin_sorted(v0, cluster) & _isin_sorted(v1, cluster)
    return pure


def _isin_sorted(sorted_ids, values):
    """Membership of ``values`` in a sorted unique id array."""
    if sorted_ids.size == 0:
        return np.zeros(np.shape(values), dtype=bool)
    pos = np.minimum(
        np.searchsorted(sorted_ids, values), sorted_ids.size - 1
    )
    return sorted_ids[pos] == values


def oracle_migration_counts(migrations):
    counts = {}
    for ev in migrations:
        if ev.pure:
            counts[ev.level] = counts.get(ev.level, 0) + 1
    return counts


def oracle_reorg_counts(reorgs):
    counts = {}
    for ev in reorgs:
        key = (ev.kind, ev.level)
        counts[key] = counts.get(key, 0) + 1
    return counts


def _election_events(reorgs, kind_plain, kind_recursive, h_ref, k, heads,
                     below_other, below_same):
    election = (
        h_ref.levels[k - 1].election if k <= h_ref.num_levels else None
    )
    for v in heads.tolist():
        if election is not None:
            cand = election.node_ids[election.elected_head == v]
            cand = cand[cand != v]
        else:
            cand = _EMPTY_IDS
        moved = cand[~_isin_sorted(below_other, cand)]
        recursive = k >= 2 and bool(np.any(_isin_sorted(below_same, moved)))
        if recursive:
            other = int(moved.min())
        else:
            other = int(cand.min()) if cand.size else None
        reorgs.append(
            ReorgEvent(
                kind=kind_recursive if recursive else kind_plain,
                level=k,
                subject=int(v),
                other=other,
            )
        )


def oracle_link_counts(h0, h1):
    """``{k: (links changed, of which drift)}`` for k = 1 .. the deeper
    L, from python sets: drift links join two nodes that are level-k
    nodes in both snapshots."""
    out = {}
    for k in range(1, max(h0.num_levels, h1.num_levels) + 1):
        edges, nodes = [], []
        for h in (h0, h1):
            lvl = h.levels[k] if k <= h.num_levels else None
            edges.append(set() if lvl is None
                         else {tuple(e) for e in lvl.edges.tolist()})
            nodes.append(set() if lvl is None else set(lvl.node_ids.tolist()))
        changed = edges[0] ^ edges[1]
        keep = nodes[0] & nodes[1]
        out[k] = (len(changed),
                  sum(u in keep and v in keep for u, v in changed))
    return out


def oracle_diff(h0, h1):
    """``(migrations, reorgs)`` event-object lists from h0 to h1."""
    if not np.array_equal(h0.levels[0].node_ids, h1.levels[0].node_ids):
        raise ValueError("snapshots cover different node sets")
    migrations, reorgs = [], []
    max_l = max(h0.num_levels, h1.num_levels)

    def v0(k):
        return h0.levels[k].node_ids if k < len(h0.levels) else _EMPTY_IDS

    def v1(k):
        return h1.levels[k].node_ids if k < len(h1.levels) else _EMPTY_IDS

    # --- node migration (per level) -------------------------------------------
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
            migrations.append(
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
                reorgs.append(
                    ReorgEvent(kind=kind, level=k, subject=subject, other=other)
                )

    # --- elections / rejections (iii)-(vi) --------------------------------------
    for k in range(1, max_l + 1):
        elected = np.setdiff1d(v1(k), v0(k), assume_unique=True)
        rejected = np.setdiff1d(v0(k), v1(k), assume_unique=True)
        _election_events(
            reorgs, EventKind.ELECT_MIGRATION, EventKind.ELECT_RECURSIVE,
            h1, k, elected, below_other=v0(k - 1), below_same=v1(k - 1),
        )
        _election_events(
            reorgs, EventKind.REJECT_MIGRATION, EventKind.REJECT_RECURSIVE,
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
                reorgs.append(
                    ReorgEvent(kind=EventKind.NEIGHBOR_ELECTED, level=k,
                               subject=v, other=u)
                )
            else:
                reorgs.append(
                    ReorgEvent(kind=EventKind.NEIGHBOR_ELECTED, level=k,
                               subject=u, other=v)
                )

    return migrations, reorgs
