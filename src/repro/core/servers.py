"""CHLM location-server selection (Section 3.2).

For each node v and each level k >= 2, CHLM places one LM server inside
v's level-k cluster by hashed *descent*, exactly as the paper walks
through for node 63 of Fig. 1:

1. Among the level-(k-1) clusters composing v's level-k cluster, a hash
   of (v, stage) picks one (e.g. cluster 59 for 63's level-2 server).
2. Within that cluster, another hash picks a level-(k-2) member, and so
   on down to a level-0 node (node 33 in the example), which becomes
   v's level-k location server.

Level 1 needs no server: complete topology is known inside a level-1
cluster ("no LM messaging is required for level-1 server maintenance").

The descent is a pure function of (subject, hierarchy), so any node that
knows the relevant cluster's internal hierarchy can recompute the server
— this is what makes queries routable (feature (a) of GLS carried over).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from repro.core import hashing
from repro.graphs import IdIndex
from repro.hierarchy.delta import HierarchyDelta, LazyClusters
from repro.hierarchy.levels import ClusteredHierarchy

__all__ = [
    "ServerAssignment",
    "ChainedAssignment",
    "select_server",
    "full_assignment",
    "patch_assignment",
]

HashFn = Callable[[int, int, "np.ndarray"], int | None]


def _resolve_hash(hash_fn) -> HashFn:
    if callable(hash_fn):
        return hash_fn
    try:
        return hashing.HASH_REGISTRY[hash_fn]
    except KeyError:
        known = ", ".join(sorted(hashing.HASH_REGISTRY))
        raise ValueError(f"unknown hash {hash_fn!r}; known: {known}") from None


def lm_levels(h: ClusteredHierarchy) -> int:
    """Highest LM server level: the hierarchy's L levels plus one
    *virtual global level*.

    The paper's example hierarchy tops out in a single cluster covering
    the whole network ("the level-3 cluster with ID 100 (top level
    cluster)").  When the recursion is capped at L = Theta(log n) levels
    the top level holds several nodes, so CHLM treats the entire
    top-level node set as one implicit cluster at level L + 1 — exactly
    like GLS's whole-area square.  Every pair of connected nodes then
    shares at least the global level, which is what makes queries total.
    """
    return h.num_levels + 1


def select_server(
    h: ClusteredHierarchy,
    subject: int,
    level: int,
    hash_fn="rendezvous",
) -> int | None:
    """Level-``level`` LM server of ``subject`` under hierarchy ``h``.

    ``level`` ranges over 2..``lm_levels(h)``; the topmost value is the
    virtual global level (see :func:`lm_levels`).  Returns the chosen
    level-0 node ID, or None when the level does not exist for this
    hierarchy.

    The stage salt mixes the target level and descent depth so the same
    subject hashes independently at each stage.
    """
    if level < 2:
        raise ValueError("CHLM places servers for levels >= 2 only")
    if level > lm_levels(h):
        return None
    hfn = _resolve_hash(hash_fn)
    if level == h.num_levels + 1:
        members = h.levels[-1].node_ids
        choice = hfn(subject, _stage_salt(level, level), members)
        if choice is None:  # pragma: no cover - top never empty
            return None
        current = int(choice)
        start_depth = h.num_levels
    else:
        current = h.cluster_of(subject, level)
        start_depth = level
    # Descend: current = the level-`depth` cluster chosen so far.
    for depth in range(start_depth, 0, -1):
        members = h.clusters(depth)[current]
        choice = hfn(subject, _stage_salt(level, depth), members)
        if choice is None:  # pragma: no cover - members never empty
            return None
        current = int(choice)
    return current


@dataclass(frozen=True)
class ServerAssignment:
    """Snapshot of every (subject, level) -> server mapping, stored as
    one dense column per LM level.

    ``tables[level][i]`` is the level-0 ID of the LM server storing the
    level-``level`` address entry of base node ``subjects[i]`` (sorted
    base IDs), or -1 when there is no such entry.  The columns are
    shared between snapshots and must never be written in place.
    """

    subjects: np.ndarray
    tables: dict[int, np.ndarray]

    @classmethod
    def from_mapping(
        cls, servers: Mapping[tuple[int, int], int], subjects=None
    ) -> "ServerAssignment":
        """Build from a ``{(subject, level): server}`` mapping (tests and
        hand-made assignments); ``subjects`` defaults to the keys'."""
        if subjects is None:
            subjects = sorted({subj for subj, _ in servers})
        subjects = np.asarray(subjects, dtype=np.int64)
        tables: dict[int, np.ndarray] = {}
        for (subj, level), srv in servers.items():
            table = tables.get(level)
            if table is None:
                table = tables[level] = np.full(subjects.size, -1, dtype=np.int64)
            table[np.searchsorted(subjects, subj)] = srv
        return cls(subjects=subjects, tables=tables)

    @property
    def servers(self) -> Mapping[tuple[int, int], int]:
        """Read-only ``{(subject, level): server}`` view, rebuilt on every
        access (O(entries)): for oracles, tests and examples — bind it to
        a local; simulation steps read :attr:`tables`."""
        out: dict[tuple[int, int], int] = {}
        for level in sorted(self.tables):
            table = self.tables[level]
            idx = np.flatnonzero(table >= 0)
            for subj, srv in zip(self.subjects[idx].tolist(), table[idx].tolist()):
                out[(subj, level)] = srv
        return MappingProxyType(out)

    def server_of(self, subject: int, level: int) -> int | None:
        """Server of one (subject, level) entry, or None."""
        table = self.tables.get(level)
        i = int(np.searchsorted(self.subjects, subject))
        if table is None or i >= table.size or self.subjects[i] != subject:
            return None
        srv = int(table[i])
        return srv if srv >= 0 else None

    def servers_of(self, subject: int) -> dict[int, int]:
        """Per-level server of one subject."""
        return {
            lvl: srv
            for lvl in sorted(self.tables)
            if (srv := self.server_of(subject, lvl)) is not None
        }

    def load(self) -> dict[int, int]:
        """Entries stored per server — the Theta(log|V|) duty the paper
        uses to size handoff transfers."""
        held = [t[t >= 0] for t in self.tables.values()]
        counts = np.bincount(np.concatenate(held)) if held else np.zeros(0, int)
        used = np.flatnonzero(counts)
        return dict(zip(used.tolist(), counts[used].tolist()))

    def entries_served_by(self, server: int) -> list[tuple[int, int]]:
        """(subject, level) entries held at ``server``."""
        return [
            (subj, level)
            for level in sorted(self.tables)
            for subj in self.subjects[self.tables[level] == server].tolist()
        ]


def _stage_salt(level: int, depth: int) -> int:
    return level * 1315423911 + depth * 2654435761


def _stage_salts(levels, depth: int) -> np.ndarray:
    """One salt per level for the stages at ``depth``."""
    return np.array(
        [_stage_salt(level, depth) for level in levels], dtype=np.uint64
    )


_BLOCK_PAIRS = 1 << 14
"""(row, candidate) pairs hashed per dense block: 128 KiB of uint64
weights, so a block and the temporaries of its mix stay cache-resident
(measured best between 2^13 and 2^14 at 10^3..10^5 rows) whatever the
batch or the widest cluster."""


def _vectorized_rendezvous_stage(
    subjects: np.ndarray, current: np.ndarray, partition, salt
) -> np.ndarray:
    """One descent stage for every row of ``current`` at once.

    ``current`` holds each row's cluster at this depth; the winner among
    that cluster's members replaces it (the result has ``current``'s
    shape).  ``subjects`` and ``salt`` broadcast against ``current``: a
    scalar salt is one level's stage; a per-row salt array, or a
    ``(levels, 1)`` salt column over ``(n,)`` subjects and a ``(levels,
    n)`` ``current``, runs several levels' stages through this depth's
    partition as one call.  ``partition`` is the level as a
    :class:`~repro.hierarchy.delta.LazyClusters`, whose cluster-ID -> row
    index every stage through it shares, or as a bare CSR tuple ``(heads,
    starts, members)``, indexed here.

    Rows are ordered by candidate count and hashed in dense ``(rows,
    width)`` blocks of at most ``_BLOCK_PAIRS`` weights, candidates laid
    out from the largest ID down, so the first maximal weight of a row is
    :func:`~repro.core.hashing.rendezvous_choice`'s winner (ties go to
    the largest ID).  A row narrower than its block repeats its smallest
    member in the spare columns, which can never win ahead of the
    original; single-member clusters are not hashed at all.
    """
    current = np.asarray(current, dtype=np.int64)
    out = np.empty(current.size, dtype=np.int64)
    if out.size == 0:
        return out.reshape(current.shape)
    if isinstance(partition, LazyClusters):
        index, partition = partition.index(), partition.csr()
    else:
        index = IdIndex(partition[0])
    _, starts, members = partition
    row = index.rows(current.reshape(-1))
    if row.min() < 0:
        raise KeyError("descent entered a cluster the partition lacks")
    # Rows in a stable order of (candidates - 1), a per-cluster value kept
    # in the narrowest unsigned type: numpy radix-sorts 8- and 16-bit keys.
    extra = np.diff(starts) - 1
    extra = extra.astype(np.min_scalar_type(int(extra.max())))[row]
    order = np.argsort(extra, kind="stable")
    extra, row = extra[order], row[order]
    # Positions in `members` of each row's largest and smallest candidate;
    # `last` ends up holding the winner's (for a single-member row, which
    # the loop skips, it already does).
    last = starts[row + 1] - 1
    first = last - extra
    mix64 = hashing.mix64
    keys = np.asarray(subjects).astype(np.uint64) * hashing._GOLDEN
    keys = keys ^ mix64(np.asarray(salt, dtype=np.uint64))
    keys = np.broadcast_to(keys, current.shape).reshape(-1)[order]
    cand_keys = members.astype(np.uint64) * hashing._SALT_CAND
    cols = np.arange(int(extra[-1]) + 1)
    lo = int(np.searchsorted(extra, 0, side="right"))
    while lo < out.size:
        narrowest = int(extra[lo]) + 1
        hi = lo + (_BLOCK_PAIRS // narrowest or 1)
        if hi > out.size:
            hi = out.size
        width = int(extra[hi - 1]) + 1
        if (hi - lo) * width > _BLOCK_PAIRS:
            hi = lo + (_BLOCK_PAIRS // width or 1)
            width = int(extra[hi - 1]) + 1
        highest = last[lo:hi]
        cand = highest[:, None] - cols[:width]
        if narrowest < width:
            np.maximum(cand, first[lo:hi, None], out=cand)
        weights = cand_keys[cand]
        weights ^= keys[lo:hi, None]
        best = mix64(weights, out=weights).argmax(axis=1)
        if narrowest < width:
            np.minimum(best, extra[lo:hi], out=best)
        highest -= best
        lo = hi
    out[order] = members[last]
    return out.reshape(current.shape)


def _global_stage(h: ClusteredHierarchy, subjects: np.ndarray, level: int) -> np.ndarray:
    """The virtual global level's first stage: every subject picks among
    all top-level nodes (a one-row CSR partition keyed 0)."""
    top = h.levels[-1].node_ids
    one_row = (np.zeros(1, dtype=np.int64), np.array([0, top.size]), top)
    return _vectorized_rendezvous_stage(
        subjects, np.zeros(subjects.size, dtype=np.int64), one_row,
        _stage_salt(level, level),
    )


@dataclass(frozen=True)
class ChainedAssignment(ServerAssignment):
    """A rendezvous assignment plus the *descent chains* that produced it.

    ``chains[level][depth]`` is the per-subject array of the level-
    ``depth`` cluster each subject's level-``level`` descent consulted
    when it entered that depth (for the virtual global level, depth
    ``num_levels`` holds the winner of the global stage).  Because the
    descent is a pure function of (subject, consulted cells), a recorded
    chain whose entry point is unchanged and whose every consulted cell
    kept its member list provably re-derives the same server — that is
    the cleanliness test :func:`patch_assignment` applies.
    """

    chains: dict[int, dict[int, np.ndarray]] = field(default_factory=dict)


def full_assignment(h: ClusteredHierarchy, hash_fn="rendezvous") -> ServerAssignment:
    """Compute the complete CHLM server assignment for a hierarchy.

    One entry per (subject, level) for level = 2..``lm_levels(h)`` —
    i.e. every real hierarchy level plus the virtual global level.  With
    L = Theta(log|V|) levels this is the distributed database whose
    per-node share is Theta(log|V|) entries (Section 3.2's closing
    observation).

    The default rendezvous hash runs a fully vectorized descent — one
    kernel call per depth, hashing that depth's stage of every level at
    once — and returns a :class:`ChainedAssignment`: the chains are the
    stage inputs the descent consumes anyway.  Other hashes fall back to
    the scalar per-subject path.
    """
    subjects = h.levels[0].node_ids
    levels = range(2, lm_levels(h) + 1)
    if hash_fn != "rendezvous":
        tables = {lvl: np.full(subjects.size, -1, dtype=np.int64) for lvl in levels}
        for i, subject in enumerate(subjects.tolist()):
            for level, table in tables.items():
                srv = select_server(h, subject, level, hash_fn)
                if srv is not None:
                    table[i] = srv
        return ServerAssignment(subjects=subjects, tables=tables)

    num_levels = h.num_levels
    chains: dict[int, dict[int, np.ndarray]] = {level: {} for level in levels}
    # `current[level]` is each subject's cluster on its level-`level`
    # descent; every level already under way shares a depth's partition,
    # so their stages run as one call.
    current: dict[int, np.ndarray] = {}
    if levels:
        current[num_levels + 1] = _global_stage(h, subjects, num_levels + 1)
    for depth in range(num_levels, 0, -1):
        if depth >= 2:
            current[depth] = h.ancestry(depth)
        active = sorted(current)
        for level in active:
            chains[level][depth] = current[level]
        winners = _vectorized_rendezvous_stage(
            subjects, np.stack([current[level] for level in active]),
            LazyClusters(h.levels[depth - 1].election),
            _stage_salts(active, depth)[:, None],
        )
        current.update(zip(active, winners))
    tables = {level: current[level] for level in levels}
    return ChainedAssignment(subjects=subjects, tables=tables, chains=chains)


def patch_assignment(
    prev: ChainedAssignment,
    h: ClusteredHierarchy,
    delta: HierarchyDelta,
) -> tuple[ChainedAssignment, dict[int, np.ndarray]]:
    """Patch a chained assignment onto the next hierarchy snapshot.

    A recorded chain stores every stage's input *and* winner (the next
    depth's input; the table below depth 1), so each stage is patched on
    its own.  At depth ``d`` a row is re-hashed only when the cluster it
    consults differs from the recorded one (its entry point moved, or
    the stage above picked a different winner) or when the recorded
    cluster is in ``delta.dirty_cells[d]`` (same cluster, changed member
    list); every other row keeps its recorded winner.  A re-hashed row
    whose winner comes out unchanged consults the recorded cluster again
    one depth down, so it stays out of the deeper stages unless a dirty
    cell pulls it back in.  The loop runs depth by depth: the levels
    under way at a depth share its partition, so their re-hashed rows go
    through the kernel as one call.

    Returns the new chained assignment plus the *dirty rows* — per level,
    the ascending subject positions whose server differs from ``prev``
    (exactly those; levels with none are absent).  Columns and chain
    arrays nothing moved in are shared with ``prev``.  ``delta`` must
    not be ``full``.
    """
    if delta.full:
        raise ValueError("cannot patch across a full delta")
    num_levels = h.num_levels
    subjects = prev.subjects
    tables = dict(prev.tables)
    chains: dict[int, dict[int, np.ndarray]] = {
        level: {} for level in range(2, lm_levels(h) + 1)
    }
    dirty_rows: dict[int, np.ndarray] = {}
    # Per level under way: `column[level]` is this depth's input for
    # every subject, `moved[level]` the rows where it differs from the
    # recorded one (None: nowhere).
    column: dict[int, np.ndarray] = {}
    moved: dict[int, np.ndarray | None] = {}
    if num_levels:
        top = num_levels + 1
        column[top] = prev.chains[top][num_levels]
        moved[top] = None
        if delta.top_changed:
            column[top] = _global_stage(h, subjects, top)
            changed = column[top] != prev.chains[top][num_levels]
            moved[top] = changed if changed.any() else None
    for depth in range(num_levels, 0, -1):
        if depth >= 2:
            column[depth] = h.ancestry(depth)
            changed = delta.level_changed[depth]
            moved[depth] = changed if changed.any() else None
        dirty = delta.dirty_cells[depth]
        dirty_index = IdIndex(dirty) if dirty.size else None
        active = sorted(column)
        rehash: dict[int, np.ndarray] = {}
        for level in active:
            recorded = prev.chains[level][depth]
            stale = moved[level]
            chains[level][depth] = column[level] if stale is not None else recorded
            if dirty_index is not None:
                consulted_dirty = dirty_index.contains(recorded)
                stale = consulted_dirty if stale is None else stale | consulted_dirty
            if stale is not None and stale.any():
                rehash[level] = np.flatnonzero(stale)
            column[level] = (
                prev.chains[level][depth - 1] if depth > 1 else prev.tables[level]
            )
            moved[level] = None
        if not rehash:
            continue
        sizes = [sub.size for sub in rehash.values()]
        winners = _vectorized_rendezvous_stage(
            np.concatenate([subjects[sub] for sub in rehash.values()]),
            np.concatenate([chains[level][depth][sub]
                            for level, sub in rehash.items()]),
            LazyClusters(h.levels[depth - 1].election),
            np.repeat(_stage_salts(rehash, depth), sizes),
        )
        for (level, sub), won in zip(
            rehash.items(), np.split(winners, np.cumsum(sizes)[:-1])
        ):
            changed = won != column[level][sub]
            if not changed.any():
                continue
            sub = sub[changed]
            column[level] = column[level].copy()
            column[level][sub] = won[changed]
            if depth > 1:
                moved[level] = np.zeros(subjects.size, dtype=bool)
                moved[level][sub] = True
            else:
                tables[level] = column[level]
                dirty_rows[level] = sub
    return (
        ChainedAssignment(subjects=subjects, tables=tables, chains=chains),
        dirty_rows,
    )
