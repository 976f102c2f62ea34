"""Per-key reference meter for :class:`repro.core.HandoffEngine`.

The production engine diffs dense ``level x n`` server tables with array
operations.  This is the loop it replaced, kept as the oracle: one step
is metered from two ``{(subject, level): server}`` mappings, one key at
a time in ascending ``(subject, level)`` order, with scalar hop calls, a
purity dict built from the migration events, and one ``delivery.send``
per transfer.  ``tests/core/test_handoff_oracle.py`` requires every
:class:`~repro.core.handoff.HandoffReport` field, the stale set, the
effective assignment and the channel's RNG state to match it exactly.
"""

import numpy as np

from repro.core import full_assignment
from repro.core.events import HierarchyDiff, diff_hierarchies
from repro.core.handoff import HandoffReport

from .events_oracle import migration_events


class OracleHandoffEngine:
    """Dict-and-loop handoff meter (always the full, non-patched path)."""

    def __init__(self):
        self.prev_h = None
        self.servers = None  # effective {(subject, level): server}
        self.stale = {}

    def observe(self, h, hop_fn, delivery=None, now=0.0):
        intent = dict(full_assignment(h).servers)
        if self.prev_h is None:
            self.prev_h, self.servers = h, intent
            return HandoffReport(
                migration_packets={}, migration_entries={}, reorg_packets={},
                reorg_entries={}, registration_packets={},
                registration_events=0, migration_events={},
                reorg_event_counts={}, diff=HierarchyDiff(),
            )
        h0, old_servers = self.prev_h, self.servers
        diff = diff_hierarchies(h0, h)
        purity = {(ev.node, ev.level): ev.pure for ev in migration_events(diff)}
        min_l = min(h0.num_levels, h.num_levels)
        lcl = np.zeros(h0.n, dtype=np.int64)
        for k in range(min_l, 0, -1):
            lcl[h0.ancestry(k) != h.ancestry(k)] = k
        base_ids = h.levels[0].node_ids

        def pos_of(node):
            return int(np.searchsorted(base_ids, node))

        packets = {"migration": {}, "reorg": {}}
        entries = {"migration": {}, "reorg": {}}
        tally = dict(retransmitted=0, abandoned=0, recovered=0,
                     recovery_time=0.0, abandoned_regs=0)
        eff = dict(intent) if delivery is not None else None

        def charge(cause, level, pkts):
            packets[cause][level] = packets[cause].get(level, 0) + pkts
            entries[cause][level] = entries[cause].get(level, 0) + 1

        def transfer(key, hops):
            if delivery is None:
                return hops
            out = delivery.send(hops)
            tally["retransmitted"] += out.retransmitted
            if out.delivered:
                if key in self.stale:
                    tally["recovered"] += 1
                    tally["recovery_time"] += now - self.stale.pop(key)
            else:
                tally["abandoned"] += 1
                old = old_servers.get(key)
                if old is None:
                    eff.pop(key, None)
                else:
                    eff[key] = old
                self.stale.setdefault(key, now)
            return out.packets

        for key in sorted(set(intent) | set(old_servers)):
            subject, level = key
            old_srv = old_servers.get(key)
            new_srv = intent.get(key)
            if old_srv == new_srv:
                if old_srv is not None and key in self.stale:
                    tally["recovered"] += 1
                    tally["recovery_time"] += now - self.stale.pop(key)
                continue
            if new_srv is None:
                self.stale.pop(key, None)
                continue
            if old_srv is None:
                pkts = transfer(key, max(hop_fn(subject, new_srv), 0))
                charge("reorg", level, pkts)
                continue
            pkts = transfer(key, max(hop_fn(old_srv, new_srv), 0))
            subj_change = int(lcl[pos_of(subject)])
            if 0 < subj_change <= level:
                pure = purity.get((subject, subj_change), False)
                charge("migration" if pure else "reorg", level, pkts)
                continue
            srv_change = int(lcl[pos_of(old_srv)])
            if srv_change > 0:
                pure = purity.get((old_srv, srv_change), False)
                charge("migration" if pure else "reorg", level, pkts)
                continue
            charge("reorg", level, pkts)

        if delivery is not None and self.stale:
            self.stale = {k: t for k, t in self.stale.items() if k in intent}

        registration_packets = {}
        registration_events = 0
        for level in range(2, min_l + 2):
            changed = h0.ancestry(level - 1) != h.ancestry(level - 1)
            for i in np.flatnonzero(changed).tolist():
                v = int(base_ids[i])
                srv_now = intent.get((v, level))
                if srv_now is None or old_servers.get((v, level)) != srv_now:
                    continue
                registration_events += 1
                hops = max(hop_fn(v, srv_now), 0)
                if delivery is not None:
                    out = delivery.send(hops)
                    tally["retransmitted"] += out.retransmitted
                    if not out.delivered:
                        tally["abandoned_regs"] += 1
                    hops = out.packets
                registration_packets[level] = (
                    registration_packets.get(level, 0) + hops
                )

        self.prev_h = h
        self.servers = eff if eff is not None else intent
        return HandoffReport(
            migration_packets=packets["migration"],
            migration_entries=entries["migration"],
            reorg_packets=packets["reorg"],
            reorg_entries=entries["reorg"],
            registration_packets=registration_packets,
            registration_events=registration_events,
            migration_events=diff.migration_counts(),
            reorg_event_counts=diff.reorg_counts(),
            diff=diff,
            retransmitted_packets=tally["retransmitted"],
            abandoned_entries=tally["abandoned"],
            abandoned_registrations=tally["abandoned_regs"],
            recovered_entries=tally["recovered"],
            recovery_time_total=tally["recovery_time"],
            stale_entries=len(self.stale),
        )
