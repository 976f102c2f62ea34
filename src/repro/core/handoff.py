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
from repro.core.servers import (
    ChainedAssignment,
    ServerAssignment,
    full_assignment,
    patch_assignment,
)
from repro.graphs import IdIndex
from repro.hierarchy.delta import HierarchyDelta
from repro.hierarchy.levels import ClusteredHierarchy

__all__ = ["HandoffReport", "HandoffEngine"]

HopFn = Callable[[int, int], int]


@dataclass(frozen=True)
class HandoffReport:
    """Packet accounting for one step.

    All ``dict[int, int]`` maps are keyed by hierarchy level.
    """

    migration_packets: dict[int, int]
    migration_entries: dict[int, int]
    reorg_packets: dict[int, int]
    reorg_entries: dict[int, int]
    registration_packets: dict[int, int]
    registration_events: int
    migration_events: dict[int, int]
    """Pure level-k node migration event counts (the f_k numerator)."""
    reorg_event_counts: dict[tuple[EventKind, int], int]
    """Raw reorganization events (i)-(vii) by (kind, level)."""
    diff: HierarchyDiff
    retransmitted_packets: int = 0
    """Extra transmissions beyond the lossless charge (0 without faults)."""
    abandoned_entries: int = 0
    """Entry transfers given up this step (each leaves a stale server)."""
    abandoned_registrations: int = 0
    """Address refreshes given up this step."""
    recovered_entries: int = 0
    """Previously-stale entries whose transfer finally landed this step."""
    recovery_time_total: float = 0.0
    """Summed abandon-to-recovery durations of this step's recoveries."""
    stale_entries: int = 0
    """Stale (subject, level) keys outstanding after this step."""

    @property
    def phi_packets(self) -> int:
        """Total migration-handoff packets this step (phi numerator)."""
        return sum(self.migration_packets.values())

    @property
    def gamma_packets(self) -> int:
        """Total reorganization-handoff packets this step (gamma)."""
        return sum(self.reorg_packets.values())

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
    to :meth:`observe` after the baseline, the CHLM assignment is
    **patched** from the previous intent's descent chains instead of
    recomputed — only descent stages whose input or consulted member
    list changed are re-hashed, and only the rows whose server moved
    (plus outstanding stale keys) enter the handoff diff.  The metering
    is bit-identical to the full path: the delta's dirtiness claims are
    exact, so every row outside the candidate set provably kept its
    server.
    """

    def __init__(self):
        self._prev_h: ClusteredHierarchy | None = None
        self._prev_a: ServerAssignment | None = None
        # The previous *intent* (hash output).  Distinct from _prev_a,
        # which under loss reflects the effective holders; patch
        # cleanliness is an intent-to-intent claim.
        self._intent: ChainedAssignment | None = None
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
        enables assignment patching and dirty-row candidate narrowing.
        """
        dirty: dict[int, np.ndarray] | None = None
        if delta is not None and not delta.full and self._intent is not None:
            assignment, dirty = patch_assignment(self._intent, h, delta)
        else:
            assignment = full_assignment(h)
        self._intent = assignment
        if self._prev_h is None or self._prev_a is None:
            self._prev_h, self._prev_a = h, assignment
            return HandoffReport(
                migration_packets={},
                migration_entries={},
                reorg_packets={},
                reorg_entries={},
                registration_packets={},
                registration_events=0,
                migration_events={},
                reorg_event_counts={},
                diff=HierarchyDiff(),
            )

        h0, a0 = self._prev_h, self._prev_a
        diff = diff_hierarchies(h0, h)
        base = h.levels[0].node_ids
        row_of = IdIndex(base).rows
        # Per node: the lowest level its ancestry changed at (0: nowhere)
        # — every migration event of a node carries it — and whether that
        # change is a pure migration, which it can only be at level 1
        # (``HierarchyDiff.mig_pure`` at the origin level).
        lcl = np.zeros(base.size, dtype=np.int64)
        lcl[row_of(diff.mig_node)] = diff.mig_origin
        pure = np.zeros(base.size, dtype=bool)
        at_level1 = diff.mig_level == 1
        pure[row_of(diff.mig_node[at_level1])] = diff.mig_pure[at_level1]
        absent = np.full(base.size, -1, dtype=np.int64)

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

        # Per level: the entries whose server moved.
        chunks = []
        for level in sorted(rows):
            idx = rows[level]
            old = a0.tables.get(level, absent)
            new = assignment.tables.get(level, absent)
            if idx is None:
                idx = ((old != new) & (new >= 0)).nonzero()[0]
            else:
                idx = idx[(old[idx] != new[idx]) & (new[idx] >= 0)]
            if idx.size:
                chunks.append((level, idx, old[idx], new[idx]))
        # All levels at once: the clamped hop count of each transfer (from
        # the subject for a fresh placement on a level the hierarchy just
        # grew) and its cause.  ``moves`` views each level's slice.
        moves: dict[int, tuple] = {}
        if chunks:
            levels, idx, old, new = zip(*chunks)
            sizes = [i.size for i in idx]
            idx, old, new = map(np.concatenate, (idx, old, new))
            fresh = old < 0
            sender = np.where(fresh, base[idx], old)
            hops = np.maximum(batch_hops(hop_fn, sender, new), 0)
            subject_level = lcl[idx]
            by_subject = (subject_level > 0) & (
                subject_level <= np.repeat(levels, sizes))
            migration = ~fresh & np.where(
                by_subject, pure[idx], pure[row_of(sender)]
            )
            ends = np.cumsum(sizes).tolist()
            for level, a, b in zip(levels, [0, *ends], ends):
                moves[level] = (idx[a:b], old[a:b], hops[a:b], migration[a:b])

        migration_packets: dict[int, int] = {}
        migration_entries: dict[int, int] = {}
        reorg_packets: dict[int, int] = {}
        reorg_entries: dict[int, int] = {}
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
            # entries (hops now hold what the channel charged); a cause
            # enters a level's ledgers only when it has entries there.
            charged = np.where(migration, hops, 0)
            sums = np.add.reduceat(
                np.stack((charged, migration, hops - charged, ~migration)),
                [0, *ends[:-1]], axis=1,
            ).tolist()
            for level, mig_pkts, mig_n, reorg_pkts, reorg_n in zip(levels, *sums):
                if mig_n:
                    migration_packets[level] = mig_pkts
                    migration_entries[level] = mig_n
                if reorg_n:
                    reorg_packets[level] = reorg_pkts
                    reorg_entries[level] = reorg_n

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
        registration_events = hops.size
        registration_packets: dict[int, int] = {}
        abandoned_regs = 0
        if hops.size:
            reg_levels, first = np.unique(diff.mig_level[keep] + 1,
                                          return_index=True)
            if delivery is None:
                registration_packets = dict(zip(
                    reg_levels.tolist(), np.add.reduceat(hops, first).tolist()))
            else:
                level_of = np.repeat(reg_levels, np.diff([*first, hops.size]))
                registration_packets = dict.fromkeys(reg_levels.tolist(), 0)
                for level, hop_count in zip(level_of.tolist(), hops.tolist()):
                    out = delivery.send(hop_count)
                    retransmitted += out.retransmitted
                    abandoned_regs += not out.delivered
                    registration_packets[level] += out.packets

        report = HandoffReport(
            migration_packets=migration_packets,
            migration_entries=migration_entries,
            reorg_packets=reorg_packets,
            reorg_entries=reorg_entries,
            registration_packets=registration_packets,
            registration_events=registration_events,
            migration_events=diff.migration_counts(),
            reorg_event_counts=diff.reorg_counts(),
            diff=diff,
            retransmitted_packets=retransmitted,
            abandoned_entries=abandoned,
            abandoned_registrations=abandoned_regs,
            recovered_entries=recovered,
            recovery_time_total=recovery_time,
            stale_entries=len(self._stale),
        )
        if abandoned:
            assignment = ServerAssignment(subjects=base, tables=eff)
        self._prev_h, self._prev_a = h, assignment
        return report
