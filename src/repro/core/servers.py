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
from typing import Mapping

import numpy as np

from repro.core import hashing
from repro.graphs import IdIndex
from repro.hierarchy.delta import HierarchyDelta, LazyClusters
from repro.hierarchy.levels import ClusteredHierarchy

__all__ = [
    "ServerAssignment",
    "ChainedAssignment",
    "hash_stage",
    "full_assignment",
    "patch_assignment",
    "patch_pays",
]


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


def _subject_keys(subjects, salt) -> np.ndarray:
    """Per-row hash keys of the (subject, stage salt) pairs: what every
    candidate's ID key is mixed with (see :mod:`repro.core.hashing`)."""
    keys = np.asarray(subjects).astype(np.uint64) * hashing._GOLDEN
    return keys ^ hashing.mix64(np.asarray(salt, dtype=np.uint64))


def _stage_rows(current: np.ndarray, partition):
    """``(row, starts, members)``: the CSR row of each (flattened) cluster
    in ``current`` and the partition's CSR arrays (see
    :func:`_vectorized_rendezvous_stage` for the two partition forms)."""
    if isinstance(partition, LazyClusters):
        index, partition = partition.index(), partition.csr()
    else:
        index = IdIndex(partition[0])
    _, starts, members = partition
    row = index.rows(current.reshape(-1))
    if row.min() < 0:
        raise KeyError("descent entered a cluster the partition lacks")
    return row, starts, members


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

    Rows are ordered by candidate count and hashed in dense blocks of at
    most ``_BLOCK_PAIRS`` weights, laid out candidate-major as ``(width,
    rows)``: column ``c`` of a row is its ``c``-th largest member.  One
    ``np.maximum.reduce`` over the columns gives each row's maximal
    weight, and the winner is the largest member position holding it —
    the rendezvous rule, ties to the largest ID.  A row narrower than its
    block repeats its smallest member in the spare columns, a copy that
    names the same position as the original; single-member clusters are
    not hashed at all.
    """
    current = np.asarray(current, dtype=np.int64)
    out = np.empty(current.size, dtype=np.int64)
    if out.size == 0:
        return out.reshape(current.shape)
    row, starts, members = _stage_rows(current, partition)
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
    keys = _subject_keys(subjects, salt)
    keys = np.broadcast_to(keys, current.shape).reshape(-1)[order]
    cand_keys = members.astype(np.uint64) * hashing._SALT_CAND
    cols = np.arange(int(extra[-1]) + 1)[:, None]
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
        cand = highest - cols[:width]
        if narrowest < width:
            np.maximum(cand, first[lo:hi], out=cand)
        weights = cand_keys[cand]
        weights ^= keys[lo:hi]
        weights = mix64(weights, out=weights)
        # The largest candidate position holding its row's maximal weight:
        # non-maximal positions are zeroed, and a padding copy sits on
        # its row's smallest member, so ties go to the largest ID.
        np.multiply(cand, weights == np.maximum.reduce(weights, axis=0),
                    out=cand)
        np.maximum.reduce(cand, axis=0, out=highest)
        lo = hi
    out[order] = members[last]
    return out.reshape(current.shape)


_CIRCULAR_BITS = 20
"""The naive hash compares IDs modulo ``2**_CIRCULAR_BITS`` (Eq. (5)'s
ID space)."""


def _vectorized_circular_stage(
    subjects: np.ndarray, current: np.ndarray, partition, salt=None
) -> np.ndarray:
    """One Eq. (5) descent stage for every row of ``current`` at once.

    The naive hash, EXP-T7's negative control: a row's winner is the
    member of its cluster that follows the subject in circular ID space,
    the least ``(member - subject) mod 2**_CIRCULAR_BITS``, where a member
    congruent to the subject counts as the whole modulus (last) and ties
    go to the smallest ID.  So the subject serves itself only when every
    member is congruent to it, as in a cluster holding only the subject.
    ``salt`` is ignored: Eq. (5) has no per-stage salt, which is part of
    why it skews.  Arguments and result as in
    :func:`_vectorized_rendezvous_stage`.

    Every cluster's members are sorted by residue under a cluster-major
    key (stably, so equal residues keep ascending IDs); a row's winner
    is the first key above its subject's residue in its cluster or,
    past the cluster's end, the cluster's first key.
    """
    current = np.asarray(current, dtype=np.int64)
    if current.size == 0:
        return np.empty(current.shape, dtype=np.int64)
    row, starts, members = _stage_rows(current, partition)
    low = (1 << _CIRCULAR_BITS) - 1
    cluster = np.repeat(np.arange(starts.size - 1), np.diff(starts))
    keys = (cluster << _CIRCULAR_BITS) | (members & low)
    order = np.argsort(keys, kind="stable")
    residue = np.broadcast_to(np.asarray(subjects, dtype=np.int64) & low,
                              current.shape).reshape(-1)
    at = np.searchsorted(keys[order], (row << _CIRCULAR_BITS) | residue,
                         side="right")
    at = np.where(at < starts[row + 1], at, starts[row])
    return members[order[at]].reshape(current.shape)


_STAGES = {
    "rendezvous": _vectorized_rendezvous_stage,
    "naive": _vectorized_circular_stage,
}


def hash_stage(hash_fn: str):
    """The descent stage kernel of the CHLM hash named ``hash_fn``:
    ``"rendezvous"`` (the default everywhere) or ``"naive"`` (Eq. (5)).
    Raises ValueError on any other name."""
    try:
        return _STAGES[hash_fn]
    except KeyError:
        known = ", ".join(sorted(_STAGES))
        raise ValueError(f"unknown hash {hash_fn!r}; known: {known}") from None


def _global_stage(h: ClusteredHierarchy, subjects: np.ndarray, level: int,
                  stage) -> np.ndarray:
    """The virtual global level's first ``stage``: every subject picks
    among all top-level nodes (a one-row CSR partition keyed 0)."""
    top = h.levels[-1].node_ids
    one_row = (np.zeros(1, dtype=np.int64), np.array([0, top.size]), top)
    return stage(
        subjects, np.zeros(subjects.size, dtype=np.int64), one_row,
        _stage_salt(level, level),
    )


def _challenge_stage(
    keys: np.ndarray, holder: np.ndarray, cell: np.ndarray, arrivals
) -> np.ndarray:
    """Rendezvous winners of rows whose candidate set only gained members.

    Row ``i`` (hash key ``keys[i]``, see :func:`_subject_keys`) held
    ``holder[i]``, the winner over its cluster's old members, and the
    cluster kept it; the cluster is position ``cell[i]`` of the CSR
    ``arrivals = (starts, members)`` listing what it gained.  The winner
    over the new members is then the (weight, ID)-largest of the holder
    and those arrivals — the rendezvous rule applied to the whole set.
    Every row must have at least one arrival.
    """
    starts, members = arrivals
    mix64 = hashing.mix64
    best = holder.copy()
    top = best.astype(np.uint64) * hashing._SALT_CAND
    top ^= keys
    top = mix64(top, out=top)
    # One round per arrival rank: `rows` (every row in the first round)
    # still have an arrival to weigh, the one at `pos`.
    pos, end = starts[cell], starts[cell + 1]
    rows = slice(None)
    while True:
        cand = members[pos]
        weight = cand.astype(np.uint64) * hashing._SALT_CAND
        weight ^= keys[rows]
        weight = mix64(weight, out=weight)
        held, kept = top[rows], best[rows]
        wins = (weight > held) | ((weight == held) & (cand > kept))
        best[rows] = np.where(wins, cand, kept)
        top[rows] = np.maximum(weight, held)
        pos += 1
        more = (pos < end).nonzero()[0]
        if not more.size:
            return best
        rows = more if isinstance(rows, slice) else rows[more]
        pos, end = pos[more], end[more]


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

    The descent is vectorized for either hash (:func:`hash_stage`): one
    kernel call per depth, hashing that depth's stage of every level at
    once.  The rendezvous hash returns a :class:`ChainedAssignment` — the
    chains are the stage inputs the descent consumes anyway — since only
    its minimal disruption lets :func:`patch_assignment` reuse them.
    """
    stage = hash_stage(hash_fn)
    subjects = h.levels[0].node_ids
    levels = range(2, lm_levels(h) + 1)
    num_levels = h.num_levels
    chains: dict[int, dict[int, np.ndarray]] = {level: {} for level in levels}
    # `current[level]` is each subject's cluster on its level-`level`
    # descent; every level already under way shares a depth's partition,
    # so their stages run as one call.
    current: dict[int, np.ndarray] = {}
    if levels:
        current[num_levels + 1] = _global_stage(h, subjects, num_levels + 1, stage)
    for depth in range(num_levels, 0, -1):
        if depth >= 2:
            current[depth] = h.ancestry(depth)
        active = sorted(current)
        for level in active:
            chains[level][depth] = current[level]
        winners = stage(
            subjects, np.stack([current[level] for level in active]),
            LazyClusters(h.levels[depth - 1].election),
            _stage_salts(active, depth)[:, None],
        )
        current.update(zip(active, winners))
    tables = {level: current[level] for level in levels}
    if hash_fn == "rendezvous":
        return ChainedAssignment(subjects=subjects, tables=tables, chains=chains)
    return ServerAssignment(subjects=subjects, tables=tables)


PATCH_MIN_NODES = 2000
"""Below this many nodes the patch's fixed cost (the step's
:func:`~repro.hierarchy.delta.compute_delta` and per-depth bookkeeping)
outweighs the hashing it saves (docs/PERFORMANCE.md, "Patch or full,
per step")."""

PATCH_MAX_CHURN = 0.3
"""Level-0 link churn above which most descent chains are dirty, and a
full reassignment beats a patch at any size."""


def patch_pays(n: int, churn: float) -> bool:
    """Whether one step should patch its CHLM assignment
    (:func:`patch_assignment`) rather than recompute it in full
    (:func:`full_assignment`).

    ``n`` is the node count and ``churn`` the step's level-0 link churn,
    (ups + downs) / |E_prev|.  Both plans give the same assignment; this
    only picks the cheaper one from what the step has already observed.
    """
    return n >= PATCH_MIN_NODES and churn < PATCH_MAX_CHURN


def patch_assignment(
    prev: ChainedAssignment,
    h: ClusteredHierarchy,
    delta: HierarchyDelta,
) -> tuple[ChainedAssignment, dict[int, np.ndarray]]:
    """Patch a chained assignment onto the next hierarchy snapshot.

    A recorded chain stores every stage's input *and* winner (the next
    depth's input; the table below depth 1), so each stage is patched on
    its own, and a row keeps its recorded winner (the *holder*) unless
    the stage's candidate set changed under it:

    * the cluster it consults at depth ``d`` differs from the recorded
      one (its entry point moved, or the stage above picked a different
      winner): the row is re-hashed over the whole cluster;
    * it consults the same cluster, which is in ``delta.dirty_cells[d]``
      (changed member list).  Rendezvous hashing disrupts minimally: if
      the holder left the cluster the row is re-hashed in full;
      otherwise the new winner is the (weight, ID)-largest of the holder
      and the cluster's ``delta.arrivals[d]`` — one hash per arrival,
      none when the cluster only shrank.

    A row whose winner comes out unchanged consults the recorded cluster
    again one depth down, so it stays out of the deeper stages unless a
    dirty cell pulls it back in.  The loop runs depth by depth: the
    levels under way at a depth share its partition, so their re-hashed
    rows go through the kernel as one call, and their challenged holders
    through :func:`_challenge_stage` as another.

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
    chains: dict[int, dict[int, np.ndarray]] = {
        level: {} for level in range(2, lm_levels(h) + 1)
    }
    dirty_rows: dict[int, np.ndarray] = {}
    # Per level under way: the rows whose input at this depth differs
    # from the recorded one, their new inputs, and the whole new input
    # column when one exists (None: no row moved).
    moved: dict[int, tuple | None] = {}
    # Per (level, depth) chain array (depth 0: the table), the rows and
    # values written over the recorded array.  The copies are made once
    # the descent is done, after its temporaries are freed.
    patches: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

    def entered(column: np.ndarray, rows: np.ndarray):
        return (rows, column[rows], column) if rows.size else None

    if num_levels:
        top = num_levels + 1
        moved[top] = None
        if delta.top_changed:
            won = _global_stage(h, subjects, top, _vectorized_rendezvous_stage)
            moved[top] = entered(
                won, (won != prev.chains[top][num_levels]).nonzero()[0])
    for depth in range(num_levels, 0, -1):
        if depth >= 2:
            moved[depth] = entered(h.ancestry(depth),
                                   delta.level_changed[depth].nonzero()[0])
        dirty = delta.dirty_cells[depth]
        election = h.levels[depth - 1].election
        if dirty.size:
            # Every recorded cell is a level-`depth` ID of `delta.h0`: an
            # index spanning them answers with one table gather (when the
            # IDs are dense enough for a table).
            dirty_index = IdIndex(dirty, int(delta.h0.levels[depth].node_ids[-1]) + 1)
            node_index = IdIndex(election.node_ids)
            starts, _ = delta.arrivals[depth]
            gained = starts[1:] > starts[:-1]
        # Per level: rows re-hashed over the cluster they consult, and
        # rows whose holder meets its cell's arrivals.
        rehash: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        challenge: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        holders: dict[int, np.ndarray] = {}
        for level in sorted(moved):
            recorded = prev.chains[level][depth]
            holder = prev.chains[level][depth - 1] if depth > 1 else prev.tables[level]
            holders[level] = holder
            chains[level][depth] = recorded
            full = consulted = None
            if moved[level] is not None:
                full, consulted, column = moved[level]
                if column is None:
                    patches[level, depth] = (full, consulted)
                else:
                    chains[level][depth] = column
            moved[level] = None
            if dirty.size:
                # Rows that consult the same dirty cell as recorded: the
                # holder stays unless it left, or an arrival outweighs it.
                cell = dirty_index.rows(recorded)
                if full is not None:
                    cell[full] = -1
                same = (cell >= 0).nonzero()[0]
                cell = cell[same]
                at = node_index.rows(holder[same])
                stays = (election.member_of[at] == dirty[cell]) & (at >= 0)
                lost = same[~stays]
                if lost.size:
                    full = lost if full is None else np.concatenate([full, lost])
                    consulted = (recorded[lost] if consulted is None
                                 else np.concatenate([consulted, recorded[lost]]))
                pick = (stays & gained[cell]).nonzero()[0]
                if pick.size:
                    challenge[level] = (same[pick], cell[pick])
            if full is not None:
                rehash[level] = (full, consulted)
        if not (rehash or challenge):
            continue
        # Per level, the (rows, winners) of this depth's two calls where
        # the winner is not the holder.
        won: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}

        def settle(calls: dict, winners: np.ndarray, was: np.ndarray) -> None:
            """Keep, per level, the calls' rows whose winner changed."""
            changed = winners != was
            at = 0
            for level, (sub, _) in calls.items():
                end = at + sub.size
                mine = changed[at:end].nonzero()[0]
                if mine.size:
                    won.setdefault(level, []).append(
                        (sub[mine], winners[at:end][mine]))
                at = end

        def holders_of(calls: dict) -> np.ndarray:
            return np.concatenate([holders[level][sub]
                                   for level, (sub, _) in calls.items()])

        def who(calls: dict) -> tuple[np.ndarray, np.ndarray]:
            """The calls' subjects and per-row stage salts."""
            return (np.concatenate([subjects[sub] for sub, _ in calls.values()]),
                    np.repeat(_stage_salts(calls, depth),
                              [sub.size for sub, _ in calls.values()]))

        if rehash:
            rows, salts = who(rehash)
            settle(rehash, _vectorized_rendezvous_stage(
                rows,
                np.concatenate([where for _, where in rehash.values()]),
                LazyClusters(election),
                salts,
            ), holders_of(rehash))
        if challenge:
            held = holders_of(challenge)
            settle(challenge, _challenge_stage(
                _subject_keys(*who(challenge)),
                held,
                np.concatenate([cell for _, cell in challenge.values()]),
                delta.arrivals[depth],
            ), held)
        for level, parts in won.items():
            sub = np.concatenate([sub for sub, _ in parts])
            w = np.concatenate([w for _, w in parts])
            if depth > 1:
                moved[level] = (sub, w, None)
            else:
                patches[level, 0] = (sub, w)
                dirty_rows[level] = np.sort(sub)
    tables = dict(prev.tables)
    for (level, depth), (rows, values) in patches.items():
        column = (prev.chains[level][depth] if depth else prev.tables[level]).copy()
        column[rows] = values
        if depth:
            chains[level][depth] = column
        else:
            tables[level] = column
    return (
        ChainedAssignment(subjects=subjects, tables=tables, chains=chains),
        dirty_rows,
    )
