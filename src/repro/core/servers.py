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

from dataclasses import dataclass

import numpy as np

from repro.core import hashing
from repro.graphs import IdIndex
from repro.hierarchy.delta import HierarchyDelta, LazyClusters
from repro.hierarchy.levels import ClusteredHierarchy

__all__ = [
    "ServerAssignment",
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
    base IDs), or -1 when there is no such entry.  The columns are int32,
    like the IDs they hold, shared between snapshots, and must never be
    written in place.
    """

    subjects: np.ndarray
    tables: dict[int, np.ndarray]

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


def _stage_partition(partition):
    """``(index, starts, members)`` of a stage's partition, either form
    (see :func:`_vectorized_rendezvous_stage`): the cluster-ID -> CSR
    row index and the partition's CSR arrays."""
    if isinstance(partition, LazyClusters):
        index, partition = partition.index(), partition.csr()
    else:
        index = IdIndex(partition[0])
    _, starts, members = partition
    return index, starts, members


def _stage_rows(current: np.ndarray, index: IdIndex) -> np.ndarray:
    """The CSR row of each (flattened) cluster in ``current``."""
    row = index.rows(current.reshape(-1))
    if np.minimum.reduce(row) < 0:
        raise KeyError("descent entered a cluster the partition lacks")
    return row


_BLOCK_PAIRS = 1 << 14
"""(row, candidate) pairs hashed per dense block: 128 KiB of uint64
weights, so a block and the temporaries of its mix stay cache-resident
(measured best between 2^13 and 2^14 at 10^3..10^5 rows) whatever the
batch or the widest cluster."""

_STAGE_ROWS = 1 << 16
"""Rows one pass of :func:`_vectorized_rendezvous_stage` orders and
hashes: a pass's temporaries (order, keys, candidate positions, the
blocks) come to about 4 MiB however many rows a call names, beside the
call's one array of CSR rows."""


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

    The partition, and every row's place in it, are looked up once per
    call; the rows go through in passes of at most ``_STAGE_ROWS`` (whole
    columns of ``current``'s last axis), and each pass's hash keys are
    built from the columns of ``subjects`` and ``salt`` it reads (the
    salt mixed once, on its own shape), so a pass's temporaries are its
    own rows' only.  A row's winner depends on nothing but its row, so
    the passes change no result.  Within a pass, rows are ordered by
    candidate count and hashed in dense blocks of at most
    ``_BLOCK_PAIRS`` weights, laid out candidate-major as ``(width,
    rows)``: column ``c`` of a row is its ``c``-th largest member.  One
    ``np.maximum.reduce`` over the columns gives each row's maximal
    weight, and the winner is the largest member position holding it —
    the rendezvous rule, ties to the largest ID.  A row narrower than its
    block repeats its smallest member in the spare columns, a copy that
    names the same position as the original; single-member clusters are
    not hashed at all.
    """
    current = np.asarray(current)
    if current.size == 0:
        return np.empty(current.shape, dtype=np.int32)
    index, starts, members = _stage_partition(partition)
    # (candidates - 1) per cluster in the narrowest unsigned type: numpy
    # radix-sorts 8- and 16-bit keys.
    extra_of = starts[1:] - starts[:-1] - 1
    extra_of = extra_of.astype(np.min_scalar_type(int(extra_of.max())))
    cand_keys = members.astype(np.uint64) * hashing._SALT_CAND
    subjects = np.asarray(subjects)
    mixed = hashing.mix64(np.asarray(salt, dtype=np.uint64))
    rows = current if current.ndim else current.reshape(1)
    # Which of the two vary along the rows' last axis (the rest broadcast
    # whole into every pass).
    sliced = [x.ndim > 0 and x.shape[-1] > 1 for x in (subjects, mixed)]
    row = _stage_rows(rows, index).reshape(rows.shape)
    width = max(_STAGE_ROWS * rows.shape[-1] // rows.size, 1)
    won = []
    for c in range(0, rows.shape[-1], width):
        cols = slice(c, c + width)
        part = row[..., cols]
        keys = np.empty(part.shape, dtype=np.uint64)
        keys[...] = subjects[..., cols] if sliced[0] else subjects
        keys *= hashing._GOLDEN
        keys ^= mixed[..., cols] if sliced[1] else mixed
        won.append(_rendezvous_rows(
            part.ravel(), keys.ravel(), starts, members, extra_of, cand_keys,
        ).reshape(part.shape))
    out = won[0] if len(won) == 1 else np.concatenate(won, axis=-1)
    return out.reshape(current.shape)


def _rendezvous_rows(row, keys, starts, members, extra_of, cand_keys):
    """Winners of one pass of :func:`_vectorized_rendezvous_stage`: row
    ``i`` consults CSR row ``row[i]`` with hash key ``keys[i]``.  The
    winners are written over ``row`` (which may be a view of the call's
    rows: a pass overwrites only its own), and it is returned."""
    extra = extra_of[row]
    order = extra.argsort(kind="stable")
    extra, keys = extra[order], keys[order]
    # Positions in `members` of each row's largest candidate; `last` ends
    # up holding the winner's (for a single-member row, which the loop
    # skips, it already does).
    last = starts[1:][row[order]]
    last -= 1
    mix64 = hashing.mix64
    cols = np.arange(int(extra[-1]) + 1)[:, None]
    lo = int(extra.searchsorted(0, side="right"))
    while lo < row.size:
        narrowest = int(extra[lo]) + 1
        hi = lo + (_BLOCK_PAIRS // narrowest or 1)
        if hi > row.size:
            hi = row.size
        width = int(extra[hi - 1]) + 1
        if (hi - lo) * width > _BLOCK_PAIRS:
            hi = lo + (_BLOCK_PAIRS // width or 1)
            width = int(extra[hi - 1]) + 1
        highest = last[lo:hi]
        cand = highest - cols[:width]
        if narrowest < width:
            # Spare columns repeat the row's smallest candidate.
            np.maximum(cand, highest - extra[lo:hi], out=cand)
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
    row[order] = members[last]
    return row


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
    current = np.asarray(current)
    if current.size == 0:
        return np.empty(current.shape, dtype=np.int32)
    index, starts, members = _stage_partition(partition)
    row = _stage_rows(current, index).astype(np.int64)
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
    one_row = (np.zeros(1, dtype=np.int32), np.array([0, top.size]), top)
    return stage(
        subjects, np.zeros(subjects.size, dtype=np.int32), one_row,
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


def full_assignment(h: ClusteredHierarchy, hash_fn="rendezvous") -> ServerAssignment:
    """Compute the complete CHLM server assignment for a hierarchy.

    One entry per (subject, level) for level = 2..``lm_levels(h)`` —
    i.e. every real hierarchy level plus the virtual global level.  With
    L = Theta(log|V|) levels this is the distributed database whose
    per-node share is Theta(log|V|) entries (Section 3.2's closing
    observation).

    The descent is vectorized for either hash (:func:`hash_stage`): one
    kernel call per depth, hashing that depth's stage of every level at
    once.  Only the servers are kept: every cell a descent consulted is
    an ancestor of its server, which is how :func:`patch_assignment`
    reads them back.
    """
    stage = hash_stage(hash_fn)
    subjects = h.levels[0].node_ids
    levels = range(2, lm_levels(h) + 1)
    num_levels = h.num_levels
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
        winners = stage(
            subjects, np.stack([current[level] for level in active]),
            LazyClusters(h.levels[depth - 1].election),
            _stage_salts(active, depth)[:, None],
        )
        current.update(zip(active, winners))
    return ServerAssignment(
        subjects=subjects, tables={level: current[level] for level in levels})


class _DescentCells:
    """The cells every descent of an assignment consulted, read back
    from its server tables.

    A stage's winner is a member of the cell it consulted, so the server
    a descent ends on lies inside every cell above it: the cell the
    level-``level`` descent over ``h0`` entered at depth ``d`` is the
    server's level-``d`` ancestor in ``h0`` — for the virtual global
    level, depth ``num_levels`` is the global stage's winner — and depth
    0 is the server itself.  ``tables`` must be
    ``full_assignment(h0).tables``.  One gather per level finds the
    servers' int32 rows among ``h0``'s base nodes (:attr:`server_rows`),
    and one per call reads the cells.
    """

    def __init__(self, h0: ClusteredHierarchy, tables: dict[int, np.ndarray]):
        self.h0, self.tables = h0, tables
        rows_of = IdIndex(h0.levels[0].node_ids).rows
        self.server_rows = {level: rows_of(table) for level, table in tables.items()}

    def __call__(self, level: int, depth: int, rows=slice(None)) -> np.ndarray:
        """The level-``depth`` cells of the level-``level`` descents at
        subject positions ``rows``."""
        if not depth:
            return self.tables[level][rows]
        return self.h0.ancestry(depth)[self.server_rows[level][rows]]


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
    prev: ServerAssignment,
    h: ClusteredHierarchy,
    delta: HierarchyDelta,
) -> tuple[ServerAssignment, dict[int, np.ndarray]]:
    """Patch the rendezvous assignment of ``delta.h0`` onto the next
    hierarchy snapshot ``h``.

    ``prev`` must be ``full_assignment(delta.h0)`` (or a patch equal to
    it): every descent stage's input and winner (the *holder*) is read
    back from its tables (:class:`_DescentCells`), so each stage is
    patched on its own, and a row keeps its holder unless the stage's
    candidate set changed under it:

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

    Returns the new assignment plus the *dirty rows* — per level, the
    ascending subject positions whose server differs from ``prev``
    (exactly those; levels with none are absent).  Columns nothing moved
    in are shared with ``prev``.  ``delta`` must not be ``full``.
    """
    if delta.full:
        raise ValueError("cannot patch across a full delta")
    h0, num_levels = delta.h0, h.num_levels
    subjects = prev.subjects
    cells = _DescentCells(h0, prev.tables)
    tables = dict(prev.tables)
    dirty_rows: dict[int, np.ndarray] = {}
    # Per level under way: the rows whose input at this depth differs
    # from the recorded one and their new inputs (None: no row moved).
    moved: dict[int, tuple | None] = {}

    def entered(column: np.ndarray, rows: np.ndarray):
        return (rows, column[rows]) if rows.size else None

    if num_levels:
        top = num_levels + 1
        moved[top] = None
        if delta.top_changed:
            won = _global_stage(h, subjects, top, _vectorized_rendezvous_stage)
            moved[top] = entered(
                won, (won != cells(top, num_levels)).nonzero()[0])
    for depth in range(num_levels, 0, -1):
        if depth >= 2:
            moved[depth] = entered(h.ancestry(depth),
                                   delta.level_changed[depth].nonzero()[0])
        dirty = delta.dirty_cells[depth]
        election = h.levels[depth - 1].election
        if dirty.size:
            # Per base node of h0, as the server a descent ended on: the
            # position in `dirty` of the cell that descent entered here
            # (-1: clean), and whether its holder, the node's level-
            # (depth - 1) ancestor, is still a member of that cell in h.
            # Every recorded cell is a level-`depth` ID of h0: an index
            # spanning them answers with one table gather (when the IDs
            # are dense enough for a table).
            entered_cell = h0.ancestry(depth)
            dirty_of = IdIndex(dirty, int(h0.levels[depth].node_ids[-1]) + 1
                               ).rows(entered_cell)
            at = IdIndex(election.node_ids).rows(h0.ancestry(depth - 1))
            kept = (election.member_of[at] == entered_cell) & (at >= 0)
            starts, _ = delta.arrivals[depth]
            gained = starts[1:] > starts[:-1]
        # Per level: rows re-hashed over the cluster they consult, and
        # rows whose holder meets its cell's arrivals.
        rehash: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        challenge: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for level in sorted(moved):
            full = consulted = None
            if moved[level] is not None:
                full, consulted = moved[level]
            moved[level] = None
            if dirty.size:
                # Rows that consult the same dirty cell as recorded: the
                # holder stays unless it left, or an arrival outweighs it.
                server_rows = cells.server_rows[level]
                cell = dirty_of[server_rows]
                if full is not None:
                    cell[full] = -1
                same = (cell >= 0).nonzero()[0]
                cell = cell[same]
                stays = kept[server_rows[same]]
                lost = same[~stays]
                if lost.size:
                    left = dirty[cell[~stays]]
                    full = lost if full is None else np.concatenate([full, lost])
                    consulted = (left if consulted is None
                                 else np.concatenate([consulted, left]))
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
            return np.concatenate([cells(level, depth - 1, sub)
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
                moved[level] = (sub, w)
            else:
                tables[level] = column = prev.tables[level].copy()
                column[sub] = w
                dirty_rows[level] = np.sort(sub)
    return ServerAssignment(subjects=subjects, tables=tables), dirty_rows
