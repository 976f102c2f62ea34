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

Lossy control plane (EXP-A10): pass a
:class:`~repro.faults.delivery.DeliveryEngine` to :meth:`observe` and
every transfer/registration is routed through it.  An *abandoned*
transfer leaves the entry on its outgoing server — the engine tracks
the key as **stale** (the hash points at a server that never received
the entry, so queries miss) and the normal diff machinery retries the
transfer on subsequent steps until it lands, at which point the
staleness-recovery time is recorded.  With ``delivery=None`` (or a
zero-loss engine) the metering is bit-identical to the lossless rule
``charge = hops``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.batch_query import batch_hops
from repro.core.events import EventKind, HierarchyDiff, diff_hierarchies
from repro.core.servers import ServerAssignment, full_assignment, patch_assignment
from repro.graphs import IdIndex
from repro.hierarchy.delta import HierarchyDelta
from repro.hierarchy.levels import ClusteredHierarchy

__all__ = ["HandoffReport", "HandoffEngine"]

HopFn = Callable[[int, int], int]


def _moved_entries(rows: dict, old_tables: dict, new_tables: dict,
                   absent: np.ndarray):
    """The candidate ``rows`` (per level; ``None``: every row) whose
    server moved to a holder, concatenated in ascending level order:
    ``(levels, sizes, idx, old, new)`` — row, outgoing and incoming
    server — or ``None`` when none moved.  The per-level pieces die
    here, before the caller charges the transfers."""
    chunks = []
    for level in sorted(rows):
        idx = rows[level]
        old = old_tables.get(level, absent)
        new = new_tables.get(level, absent)
        if idx is None:
            idx = ((old != new) & (new >= 0)).nonzero()[0]
        else:
            idx = idx[(old[idx] != new[idx]) & (new[idx] >= 0)]
        if idx.size:
            chunks.append((level, idx, old[idx], new[idx]))
    if not chunks:
        return None
    levels, idx, old, new = zip(*chunks)
    return (levels, [i.size for i in idx],
            *map(np.concatenate, (idx, old, new)))


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


@dataclass(frozen=True, eq=False)
class HandoffReport:
    """Packet accounting for one step.

    ``counts`` (int64, ``COLUMNS x (L + 2)``) holds the per-level counts.
    ``flat`` (int64) holds the level-free ones: registration events,
    retransmitted packets (extra transmissions beyond the lossless
    charge), abandoned entry transfers (each leaves a stale server) and
    registrations, previously-stale entries whose transfer landed this
    step, and the stale (subject, level) keys outstanding after it.
    """

    counts: np.ndarray
    flat: np.ndarray
    diff: HierarchyDiff
    recovery_time_total: float = 0.0
    """Summed abandon-to-recovery durations of this step's recoveries."""

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
    whose subjects are the diff's migration rows.  Only a lossy channel
    walks individual (changed or stale) entries, because its RNG draw
    order is per entry.

    Servers are placed with the rendezvous hash
    (:func:`~repro.core.servers.full_assignment`).  When the caller
    supplies a non-full :class:`~repro.hierarchy.delta.HierarchyDelta`
    to :meth:`observe` whose ``h0`` is the previous snapshot itself, the
    CHLM assignment is **patched**
    (:func:`~repro.core.servers.patch_assignment`) instead of recomputed:
    the previous intent's descents are read back from its server tables
    and that snapshot, only descent stages whose input or consulted
    member list changed are re-hashed, and only the rows whose server
    moved (plus outstanding stale keys) enter the handoff diff.  Any
    other delta takes the full path.  The metering is bit-identical to
    the full path: the delta's dirtiness claims are exact, so every row
    outside the candidate set provably kept its server.
    """

    def __init__(self):
        self._prev_h: ClusteredHierarchy | None = None
        self._prev_a: ServerAssignment | None = None
        # The previous *intent*: the hash output over _prev_h.  Distinct
        # from _prev_a, which under loss reflects the effective holders;
        # patch cleanliness is an intent-to-intent claim.
        self._intent: ServerAssignment | None = None
        # Abandoned-transfer bookkeeping: (subject, level) -> abandon time.
        self._stale: dict[tuple[int, int], float] = {}

    @property
    def assignment(self) -> ServerAssignment | None:
        """Most recent *effective* assignment (None before first observe).

        Under a lossy channel this reflects reality, not the hash: an
        abandoned transfer leaves the entry keyed to its old holder (or
        absent for a failed fresh placement), which is exactly what
        queries should see.
        """
        return self._prev_a

    def observe(
        self,
        h: ClusteredHierarchy,
        hop_fn: HopFn,
        delivery=None,
        now: float = 0.0,
        delta: HierarchyDelta | None = None,
    ) -> HandoffReport:
        """Meter one step against the previous snapshot.

        The first call establishes the baseline and reports zero cost.
        ``delivery`` (a :class:`~repro.faults.delivery.DeliveryEngine`)
        routes every charge through the lossy channel; ``now`` is the
        simulation clock used to timestamp abandonments and measure
        staleness recovery.  ``delta`` (see the class docstring), the
        exact change summary from the previous ``h`` to this one,
        enables assignment patching and dirty-row candidate narrowing
        when its ``h0`` is that previous ``h`` object.
        """
        dirty: dict[int, np.ndarray] | None = None
        if (delta is not None and not delta.full
                and self._intent is not None and delta.h0 is self._prev_h):
            assignment, dirty = patch_assignment(self._intent, h, delta)
        else:
            assignment = full_assignment(h)
        self._intent = assignment
        if self._prev_h is None or self._prev_a is None:
            self._prev_h, self._prev_a = h, assignment
            return HandoffReport(
                counts=np.zeros((COLUMNS, h.num_levels + 2), dtype=np.int64),
                flat=np.zeros(STALE + 1, dtype=np.int64), diff=HierarchyDiff())

        h0, a0 = self._prev_h, self._prev_a
        diff = diff_hierarchies(h0, h)
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
        # either side knows.  Patched path: the patch's dirty rows
        # (the entries whose intent moved) plus outstanding stale keys
        # (whose effective holder differs from an unchanged intent, or
        # which await the old==new staleness-recovery rule).
        if dirty is None:
            rows = dict.fromkeys(a0.tables.keys() | assignment.tables.keys())
        else:
            rows = dict(dirty)
            for level in {lvl for _, lvl in self._stale}:
                held = [subj for subj, lvl in self._stale if lvl == level]
                rows[level] = np.union1d(
                    rows.get(level, absent[:0]), row_of(held)
                )

        # All levels at once: the clamped hop count of each transfer (from
        # the subject for a fresh placement on a level the hierarchy just
        # grew) and its cause.  ``moves`` views each level's slice.
        moves: dict[int, tuple] = {}
        moved = _moved_entries(rows, a0.tables, assignment.tables, absent)
        if moved is not None:
            levels, sizes, idx, old, new = moved
            fresh = old < 0
            sender = np.where(fresh, base[idx], old)
            hops = batch_hops(hop_fn, sender, new)
            np.maximum(hops, 0, out=hops)
            subject_level = lcl[idx]
            by_subject = (subject_level > 0) & (
                subject_level <= np.repeat(levels, sizes))
            migration = ~fresh & np.where(
                by_subject, pure[idx], pure[row_of(sender)]
            )
            ends = np.cumsum(sizes).tolist()
            for level, a, b in zip(levels, [0, *ends], ends):
                moves[level] = (idx[a:b], old[a:b], hops[a:b], migration[a:b])

        retransmitted = 0
        abandoned = 0
        recovered = 0
        recovery_time = 0.0
        # Effective post-step columns: the hash's intent, copied and
        # corrected wherever the channel abandons a transfer.
        eff = dict(assignment.tables)

        if delivery is not None or self._stale:
            # The channel draws per entry, so walk the moved and stale
            # keys in ascending (subject, level) order — the order that
            # fixes the RNG stream on both paths: clean non-candidate
            # keys never touch it.
            slot = {
                (subj, level): i
                for level, (idx, _, _, _) in moves.items()
                for i, subj in enumerate(base[idx].tolist())
            }
            for key in sorted(slot.keys() | self._stale.keys()):
                subject, level = key
                i = slot.get(key)
                if i is None:
                    if assignment.server_of(subject, level) is None:
                        # Hierarchy got shallower; entry expires.
                        if a0.server_of(subject, level) is not None:
                            del self._stale[key]
                    else:
                        # The hash swung back to the actual holder: the
                        # entry is authoritative again without a transfer.
                        recovered += 1
                        recovery_time += now - self._stale.pop(key)
                    continue
                if delivery is None:
                    continue
                moved_rows, moved_from, charge, _ = moves[level]
                out = delivery.send(int(charge[i]))
                retransmitted += out.retransmitted
                charge[i] = out.packets  # what the channel actually cost
                if out.delivered:
                    if key in self._stale:
                        recovered += 1
                        recovery_time += now - self._stale.pop(key)
                    continue
                abandoned += 1
                if eff[level] is assignment.tables[level]:
                    eff[level] = eff[level].copy()
                # The entry stays on the outgoing server (-1: a fresh
                # placement failed, no holder).
                eff[level][moved_rows[i]] = moved_from[i]
                self._stale.setdefault(key, now)
            if delivery is not None and self._stale:
                # Keys whose level vanished entirely can never recover.
                self._stale = {
                    k: t for k, t in self._stale.items()
                    if assignment.server_of(*k) is not None
                }

        if moves:
            # Per level: migration packets and entries, reorg packets and
            # entries (hops now hold what the channel charged).  One
            # reduction per column, not a stack of four entry-sized copies.
            charged, counted, total = (
                np.add.reduceat(col, [0, *ends[:-1]], dtype=np.int64)
                for col in (np.where(migration, hops, 0), migration, hops))
            counts[:REG_PACKETS, levels] = (
                charged, counted, total - charged, sizes - counted)

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
        idx = row_of(diff.mig_node)
        cut = diff.mig_level.searchsorted(np.arange(1, min_l + 2)).tolist()
        srv, held = (
            np.concatenate([absent[:0], *(
                a.tables.get(level, absent)[idx[lo:hi]]
                for level, lo, hi in zip(range(2, min_l + 2), cut, cut[1:])
            )])
            for a in (assignment, a0)
        )
        # Moved entries carry the fresh address.
        keep = ((srv >= 0) & (held == srv)).nonzero()[0]
        hops = np.maximum(batch_hops(hop_fn, base[idx[keep]], srv[keep]), 0)
        abandoned_regs = 0
        if hops.size:
            if delivery is not None:
                for i, hop_count in enumerate(hops.tolist()):
                    out = delivery.send(hop_count)
                    retransmitted += out.retransmitted
                    abandoned_regs += not out.delivered
                    hops[i] = out.packets
            reg_levels, first = np.unique(diff.mig_level[keep] + 1,
                                          return_index=True)
            counts[REG_PACKETS, reg_levels] = np.add.reduceat(hops, first)

        report = HandoffReport(
            counts=counts,
            flat=np.array([hops.size, retransmitted, abandoned, abandoned_regs,
                           recovered, len(self._stale)], dtype=np.int64),
            diff=diff,
            recovery_time_total=recovery_time,
        )
        if abandoned:
            assignment = ServerAssignment(subjects=base, tables=eff)
        self._prev_h, self._prev_a = h, assignment
        return report
