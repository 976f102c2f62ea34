"""LM handoff engine — the paper's central quantity, measured.

The engine holds the previous hierarchy snapshot and its CHLM server
assignment.  Each step it recomputes both, and **every (subject, level)
entry whose responsible server changed is a handoff transfer**, charged
as the hop count between outgoing and incoming server.  This is the
operational meaning of the paper's handoff overhead:

* the entries a migrating node served move to new servers inside the
  cluster it left ("transfer Theta(log|V|) LM entries to the appropriate
  members of its previous level-k cluster"),
* entries newly hashed onto it move in ("acquire Theta(log|V|) entries
  from its new cluster"),
* and a reorganizing level-k cluster redistributes the entries of all
  Theta(c_k) affected nodes with its level-(k+1) cluster.

Cause classification (phi vs gamma, Sections 4 and 5):

1. If the *subject*'s level-j cluster changed at a level j <= the entry
   level, the handoff is attributed to the subject's move — MIGRATION
   when the move was pure (both clusters persisted, "topology intact"),
   REORG otherwise.
2. Else if the *outgoing server* migrated (its own cluster chain
   changed), the handoff is the Section-4 server-side transfer —
   MIGRATION when pure, REORG otherwise.
3. Else the assignment changed because the cluster tree itself was
   restructured (elections, rejections, cluster link changes) — REORG.

Registration traffic (the subject refreshing its *address* at servers
whose identity did not change) is metered separately — the paper cites
[17] for its Theta(log|V|) bound, and EXP-T10 compares the two.

The meter assumes the paper's lossless control plane: every charge is
its hop count.  Each report carries the step's charge rows
(:attr:`HandoffReport.moved`, :attr:`HandoffReport.registered`), and a
lossy channel (EXP-A10/A11) is one pass over them,
:meth:`~repro.faults.DeliveryEngine.handoff`, which hands the
entries it left behind back to :meth:`HandoffEngine.hold`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.batch_query import batch_hops
from repro.core.events import EventKind, HierarchyDiff, diff_hierarchies
from repro.core.servers import (
    ServerAssignment,
    full_assignment,
    patch_assignment,
    patch_pays,
)
from repro.graphs import IdIndex
from repro.hierarchy.levels import ClusteredHierarchy
from repro.radio.linkevents import LinkDiff

__all__ = ["HandoffReport", "HandoffEngine"]

HopFn = Callable[[int, int], int]


def _moved_entries(rows: dict, old_tables: dict, new_tables: dict,
                   absent: np.ndarray):
    """The candidate ``rows`` (per level; ``None``: every row) whose
    server moved to a holder, concatenated in ascending level order:
    ``(level, idx, old, new)`` — level, row, outgoing and incoming
    server.  The per-level pieces die here, before the caller charges
    the transfers."""
    chunks = [(absent[:0],) * 4]
    for level in sorted(rows):
        idx = rows[level]
        old = old_tables.get(level, absent)
        new = new_tables.get(level, absent)
        if idx is None:
            idx = ((old != new) & (new >= 0)).nonzero()[0]
        else:
            idx = idx[(old[idx] != new[idx]) & (new[idx] >= 0)]
        if idx.size:
            chunks.append((np.full(idx.size, level, dtype=np.int32), idx,
                           old[idx], new[idx]))
    return map(np.concatenate, zip(*chunks))


# Columns of a step's count table, ``HandoffReport.counts[column, level]``
# for levels 0 .. L+1 (L: the deeper snapshot's depth): charged transfers
# by cause, registration packets, then events by kind.  ``EVENTS + i``
# counts kind ``tuple(EventKind)[i]``: ``EVENTS`` itself the pure
# migrations (the f_k numerators), ``EVENTS + 1`` .. ``EVENTS + 7`` the
# reorganisations (i)-(vii).
MIG_PACKETS, MIG_ENTRIES, REORG_PACKETS, REORG_ENTRIES, REG_PACKETS, EVENTS = range(6)
COLUMNS = EVENTS + len(EventKind)
# Entries of the level-free count vector, ``HandoffReport.flat``.
REG_EVENTS, RETRANSMITTED, ABANDONED, ABANDONED_REGS, RECOVERED, STALE = range(6)


def fold_charges(counts: np.ndarray, moved: tuple,
                 registered: tuple) -> np.ndarray:
    """``counts`` with its columns ``MIG_PACKETS`` .. ``REG_PACKETS``
    summed per level from a step's charge rows (see
    :class:`HandoffReport`).  The weighted sums are float64 sums of
    integers, exact below 2**53."""
    level, _, _, hops, migration = moved
    w = counts.shape[1]
    counts[MIG_PACKETS] = np.bincount(level, np.where(migration, hops, 0), w)
    counts[MIG_ENTRIES] = np.bincount(level, migration, w)
    counts[REORG_PACKETS] = np.bincount(level, hops, w) - counts[MIG_PACKETS]
    counts[REORG_ENTRIES] = np.bincount(level, None, w) - counts[MIG_ENTRIES]
    counts[REG_PACKETS] = np.bincount(*registered, w)
    return counts


@dataclass(frozen=True, eq=False)
class HandoffReport:
    """Packet accounting for one step.

    ``counts`` (int64, ``COLUMNS x (L + 2)``) holds the per-level counts.
    ``flat`` (int64) holds the level-free ones: registration events,
    retransmitted packets (extra transmissions beyond the lossless
    charge), abandoned entry transfers (each leaves a stale server) and
    registrations, previously-stale entries whose transfer landed this
    step, and the stale (subject, level) keys outstanding after it.

    ``moved`` and ``registered`` are the step's charge rows, which
    :func:`fold_charges` sums into ``counts``: per moved entry, in
    ascending level order, ``(level, row, holder, hops, migration)`` —
    its level, subject row, outgoing holder (-1: a fresh placement), hop
    charge and pure-migration flag; per registration, in ascending level
    order, ``(level, hops)``.  They are the meter's own arrays, valid
    for the step that made them.
    """

    counts: np.ndarray
    flat: np.ndarray
    diff: HierarchyDiff
    recovery_time_total: float = 0.0
    """Summed abandon-to-recovery durations of this step's recoveries."""
    moved: tuple = ()
    registered: tuple = ()

    @property
    def phi_packets(self) -> int:
        """Total migration-handoff packets this step (phi numerator)."""
        return int(self.counts[MIG_PACKETS].sum())

    @property
    def gamma_packets(self) -> int:
        """Total reorganization-handoff packets this step (gamma)."""
        return int(self.counts[REORG_PACKETS].sum())

    @property
    def total_handoff_packets(self) -> int:
        return self.phi_packets + self.gamma_packets


class HandoffEngine:
    """Stateful handoff meter over a sequence of hierarchy snapshots.

    The assignment is a dense ``level x n`` server table
    (:class:`~repro.core.servers.ServerAssignment`), so one step's diff,
    hop metering and cause classification are array operations: the
    step's one :func:`~repro.core.events.diff_hierarchies` (which the
    level-series collector reads too, off the report), one hop batch for
    every level's transfers and one for every level's registrations,
    whose subjects are the diff's migration rows.

    Servers are placed with the rendezvous hash
    (:func:`~repro.core.servers.full_assignment`).  When the caller
    passes the step's level-0 :class:`~repro.radio.linkevents.LinkDiff`
    to :meth:`observe`, the hierarchy kept its depth, and
    :func:`~repro.core.servers.patch_pays` says it pays at this size and
    link churn, the CHLM assignment is **patched**
    (:func:`~repro.core.servers.patch_assignment`) from the step's one
    hierarchy diff instead of recomputed: the previous intent's descents
    are read back from its server tables and the previous snapshot, only
    descent stages whose input or consulted member list changed are
    re-hashed, and only the rows whose server moved (plus the rows
    :meth:`hold` kept on another holder) enter the handoff diff.  The
    metering is bit-identical to the full path: the diff's migration
    rows and the dirty cells are exact, so every row outside the
    candidate set provably kept its server.
    """

    def __init__(self):
        self._prev_h: ClusteredHierarchy | None = None
        self._prev_a: ServerAssignment | None = None
        # The previous *intent*: the hash output over _prev_h.  Distinct
        # from _prev_a, the holders, once hold() kept entries behind;
        # patch cleanliness is an intent-to-intent claim.
        self._intent: ServerAssignment | None = None

    @property
    def assignment(self) -> ServerAssignment | None:
        """Most recent *effective* assignment (None before first observe).

        After :meth:`observe` this is the step's intent, the hash
        output.  :meth:`hold` then keeps abandoned transfers on their
        outgoing holders (or absent, for a failed fresh placement), which
        is exactly what queries should see, and what the next step
        diffs and charges from.
        """
        return self._prev_a

    def hold(self, stayed: tuple) -> None:
        """Keep the entries of ``stayed`` — ``(level, row, holder)``
        columns, the transfers a lossy channel abandoned this step — on
        their holders, copy-on-write.  The next step retries each one
        through the ordinary diff, charged from its actual holder."""
        level, row, holder = stayed
        if not row.size:
            return
        tables = dict(self._prev_a.tables)
        for lvl in np.unique(level).tolist():
            at = level == lvl
            tables[lvl] = tables[lvl].copy()
            tables[lvl][row[at]] = holder[at]
        self._prev_a = ServerAssignment(subjects=self._prev_a.subjects,
                                        tables=tables)

    def observe(
        self,
        h: ClusteredHierarchy,
        hop_fn: HopFn,
        links: LinkDiff | None = None,
    ) -> HandoffReport:
        """Meter one step against the previous snapshot.

        The first call establishes the baseline and reports zero cost.
        ``links``, the level-0 link changes from the previous ``h``'s
        edges to this one's, lets the step patch its assignment (see the
        class docstring); without it every server is reassigned.
        """
        h0, a0, intent0 = self._prev_h, self._prev_a, self._intent
        if h0 is None or a0 is None:
            self._prev_h = h
            self._prev_a = self._intent = full_assignment(h)
            return HandoffReport(
                counts=np.zeros((COLUMNS, h.num_levels + 2), dtype=np.int64),
                flat=np.zeros(STALE + 1, dtype=np.int64), diff=HierarchyDiff())

        diff = diff_hierarchies(h0, h)
        dirty: dict[int, np.ndarray] | None = None
        if (links is not None and h.num_levels == h0.num_levels
                and patch_pays(h.n, links.n_events
                               / max(len(h0.levels[0].edges), 1))):
            assignment, dirty = patch_assignment(intent0, h0, h, diff)
        else:
            assignment = full_assignment(h)
        self._intent = assignment
        width = max(h0.num_levels, h.num_levels) + 2
        counts = np.zeros((COLUMNS, width), dtype=np.int64)
        counts[EVENTS:] = diff.event_counts(width)
        base = h.levels[0].node_ids
        row_of = IdIndex(base).rows
        # Per node: the lowest level its ancestry changed at (0: nowhere)
        # — every migration event of a node carries it — and whether that
        # change is a pure migration, which it can only be at level 1
        # (``HierarchyDiff.mig_pure`` at the origin level).
        lcl = np.zeros(base.size, dtype=np.int32)
        lcl[row_of(diff.mig_node)] = diff.mig_origin
        pure = np.zeros(base.size, dtype=bool)
        at_level1 = diff.mig_level == 1
        pure[row_of(diff.mig_node[at_level1])] = diff.mig_pure[at_level1]
        absent = np.full(base.size, -1, dtype=np.int32)

        # Candidate rows per level.  Full path: every row of every level
        # either side knows.  Patched path: the patch's dirty rows (the
        # entries whose intent moved) plus the rows held away from the
        # previous intent (whose holder differs from an unchanged
        # intent, or which the hash swung back to).
        if dirty is None:
            rows = dict.fromkeys(a0.tables.keys() | assignment.tables.keys())
        else:
            rows = dict(dirty)
            if a0 is not intent0:
                for level, held in a0.tables.items():
                    away = (held != intent0.tables[level]).nonzero()[0]
                    if away.size:
                        rows[level] = np.union1d(
                            rows.get(level, absent[:0]), away)

        # All levels at once: the clamped hop count of each transfer (from
        # the subject for a fresh placement on a level the hierarchy just
        # grew) and its cause.
        level, idx, old, new = _moved_entries(rows, a0.tables,
                                              assignment.tables, absent)
        fresh = old < 0
        sender = np.where(fresh, base[idx], old)
        hops = batch_hops(hop_fn, sender, new)
        np.maximum(hops, 0, out=hops)
        subject_level = lcl[idx]
        by_subject = (subject_level > 0) & (subject_level <= level)
        migration = ~fresh & np.where(
            by_subject, pure[idx], pure[row_of(sender)]
        )

        # Registration: the level-k server stores the subject's
        # level-(k-1) cluster (the granularity a recursive query needs),
        # so it requires an update exactly when that component changes.
        # This locality is what bounds registration at Theta(log|V|) in
        # the companion paper [17]: the level-(k-1) component changes
        # with frequency ~f_{k-1} and the update crosses ~h_k hops.
        # Levels 2..min_l plus the virtual global level (whose stored
        # component is the subject's top-level cluster); the subjects of
        # level k are the diff's level-(k-1) migration rows.
        min_l = min(h0.num_levels, h.num_levels)
        subjects = row_of(diff.mig_node)
        cut = diff.mig_level.searchsorted(np.arange(1, min_l + 2)).tolist()
        srv, held = (
            np.concatenate([absent[:0], *(
                a.tables.get(lvl, absent)[subjects[lo:hi]]
                for lvl, lo, hi in zip(range(2, min_l + 2), cut, cut[1:])
            )])
            for a in (assignment, a0)
        )
        # Moved entries carry the fresh address.
        keep = ((srv >= 0) & (held == srv)).nonzero()[0]
        reg_hops = np.maximum(
            batch_hops(hop_fn, base[subjects[keep]], srv[keep]), 0)

        moved = (level, idx, old, hops, migration)
        registered = (diff.mig_level[keep] + 1, reg_hops)
        flat = np.zeros(STALE + 1, dtype=np.int64)
        flat[REG_EVENTS] = reg_hops.size
        self._prev_h, self._prev_a = h, assignment
        return HandoffReport(counts=fold_charges(counts, moved, registered),
                             flat=flat, diff=diff, moved=moved,
                             registered=registered)
