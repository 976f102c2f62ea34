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


_STAGE_CHUNK = 1 << 14
"""Subjects hashed per block of the rendezvous stage: bounds the flat
(subject, candidate) pair arrays (86 top-level candidates x 1e5 subjects
would otherwise be ~70 MB per temporary)."""


def _vectorized_rendezvous_stage(
    subjects: np.ndarray, current: np.ndarray, partition, salt: int
) -> np.ndarray:
    """One descent stage for all subjects at once.

    ``current[i]`` is subject i's cluster at this depth; the winner among
    that cluster's members replaces it.  ``partition`` is the level as a
    :class:`~repro.hierarchy.delta.LazyClusters`, whose cluster-ID -> row
    index every stage through it shares, or as a bare CSR tuple ``(heads,
    starts, members)``, indexed here.  All (subject, candidate) pairs of
    a block are hashed as one flat array and reduced per subject segment;
    weight ties go to the *last* maximal member — the largest ID,
    :func:`~repro.core.hashing.rendezvous_choice`'s rule.
    """
    out = np.empty(subjects.size, dtype=np.int64)
    if subjects.size == 0:
        return out
    if isinstance(partition, LazyClusters):
        index, partition = partition.index(), partition.csr()
    else:
        index = IdIndex(partition[0])
    _, starts, members = partition
    row = index.rows(current)
    if row.min() < 0:
        raise KeyError("descent entered a cluster the partition lacks")
    first = starts[row]
    count = starts[row + 1] - first
    mix64 = hashing.mix64
    with np.errstate(over="ignore"):
        subj_keys = subjects.astype(np.uint64) * hashing._GOLDEN
        subj_keys ^= mix64(np.uint64(salt))
        cand_keys = members.astype(np.uint64) * hashing._SALT_CAND
    for lo in range(0, subjects.size, _STAGE_CHUNK):
        hi = lo + _STAGE_CHUNK
        cnt = count[lo:hi]
        ends = np.cumsum(cnt)
        seg = ends - cnt
        pair = np.arange(ends[-1])
        cand = pair + np.repeat(first[lo:hi] - seg, cnt)
        weights = mix64(np.repeat(subj_keys[lo:hi], cnt) ^ cand_keys[cand])
        best = np.repeat(np.maximum.reduceat(weights, seg), cnt)
        pair[weights != best] = -1
        out[lo:hi] = members[cand[np.maximum.reduceat(pair, seg)]]
    return out


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

    The default rendezvous hash runs a fully vectorized descent (one
    segmented stage per depth) and returns a :class:`ChainedAssignment`:
    the chains are the stage inputs the descent consumes anyway.  Other
    hashes fall back to the scalar per-subject path.
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

    lazy = {
        depth: LazyClusters(h.levels[depth - 1].election)
        for depth in range(1, h.num_levels + 1)
    }
    tables = {}
    chains: dict[int, dict[int, np.ndarray]] = {}
    for level in levels:
        if level == h.num_levels + 1:
            current = _global_stage(h, subjects, level)
            start_depth = h.num_levels
        else:
            current = h.ancestry(level)
            start_depth = level
        chains[level] = {}
        for depth in range(start_depth, 0, -1):
            chains[level][depth] = current
            current = _vectorized_rendezvous_stage(
                subjects, current, lazy[depth], _stage_salt(level, depth)
            )
        tables[level] = current
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
    cell pulls it back in.

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
    lazy = {
        depth: LazyClusters(h.levels[depth - 1].election)
        for depth in range(1, num_levels + 1)
    }
    dirty_index = {
        depth: IdIndex(delta.dirty_cells[depth])
        for depth in range(1, num_levels + 1)
        if delta.dirty_cells[depth].size
    }
    tables = dict(prev.tables)
    chains: dict[int, dict[int, np.ndarray]] = {}
    dirty_rows: dict[int, np.ndarray] = {}
    for level in range(2, lm_levels(h) + 1):
        old_chain = prev.chains[level]
        # `column` is this depth's input for every subject, `moved` the
        # rows where it differs from the recorded one (None: nowhere).
        if level == num_levels + 1:
            start_depth = num_levels
            moved = None
            if delta.top_changed:
                column = _global_stage(h, subjects, level)
                moved = column != old_chain[start_depth]
        else:
            start_depth = level
            column = h.ancestry(level)
            moved = delta.level_changed[level]
        if moved is not None and not moved.any():
            moved = None
        new_chain = {}
        for depth in range(start_depth, 0, -1):
            recorded = old_chain[depth]
            new_chain[depth] = column if moved is not None else recorded
            rehash = moved
            if depth in dirty_index:
                consulted_dirty = dirty_index[depth].contains(recorded)
                rehash = consulted_dirty if moved is None else moved | consulted_dirty
            column = old_chain[depth - 1] if depth > 1 else prev.tables[level]
            moved = None
            if rehash is None:
                continue
            sub = np.flatnonzero(rehash)
            winners = _vectorized_rendezvous_stage(
                subjects[sub], new_chain[depth][sub], lazy[depth],
                _stage_salt(level, depth),
            )
            changed = winners != column[sub]
            if changed.any():
                sub = sub[changed]
                column = column.copy()
                column[sub] = winners[changed]
                moved = np.zeros(subjects.size, dtype=bool)
                moved[sub] = True
        chains[level] = new_chain
        if moved is not None:
            tables[level] = column
            dirty_rows[level] = sub
    return (
        ChainedAssignment(subjects=subjects, tables=tables, chains=chains),
        dirty_rows,
    )
