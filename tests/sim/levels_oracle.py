"""Per-level re-diff oracle for the level series.

The simulator reads each step's level link events, drift subset and
address changes off the one hierarchy diff the handoff meter makes
(``snap.report.diff``).  These are the per-level kernels that used to
re-diff every level inside the collector, kept as the reference, plus
:class:`OracleLevelSeriesCollector` which drives them from the snapshots
alone.  Keys are ``u * base + v``; the oracle picks ``base`` above every
ID of both snapshots, so minted cluster IDs (>= 10^7) encode without
collisions (the bug the base-n encoding had in the simulator).
"""

import numpy as np

from repro.radio.unit_disk import encode_edges
from repro.sim.collectors.base import Collector
from repro.sim.metrics import LevelSeries

EMPTY_KEYS = np.empty(0, dtype=np.int64)
EMPTY_IDS = np.empty(0, dtype=np.int64)


def level_edge_keys(h, n):
    """Per level k >= 1: (sorted edge-key array, node-ID array), keys
    ``u * n + v`` (``n`` must exceed every level ID)."""
    return {
        lvl.k: (np.sort(encode_edges(lvl.edges, n)), lvl.node_ids)
        for lvl in h.levels
        if lvl.k >= 1
    }


def diff_keys(before, after):
    """Symmetric difference of two unique edge-key arrays."""
    if before.size == 0:
        return after
    if after.size == 0:
        return before
    return np.concatenate(
        [
            before[~np.isin(before, after, assume_unique=True)],
            after[~np.isin(after, before, assume_unique=True)],
        ]
    )


def count_drift(changed_keys, n, nodes_before, nodes_after):
    """Changed links whose *both* endpoints persist at the level."""
    if changed_keys.size == 0:
        return 0
    persistent = np.intersect1d(nodes_before, nodes_after, assume_unique=True)
    if persistent.size == 0:
        return 0
    u = changed_keys // n
    v = changed_keys % n
    return int((np.isin(u, persistent) & np.isin(v, persistent)).sum())


def key_base(*hierarchies):
    """An encoding base above every ID of every level of the snapshots."""
    return 1 + max(int(lvl.node_ids.max()) for h in hierarchies
                   for lvl in h.levels)


class OracleLevelSeriesCollector(Collector):
    """The level series from per-level re-diffs of the two snapshots."""

    name = "levels_oracle"

    def __init__(self):
        self.series = LevelSeries()
        self.per_step = []
        """One ``{k: (link events, drift, address changes)}`` per step
        (address changes ``None`` above the shallower snapshot)."""

    def on_step(self, snap):
        prev_h, h = snap.prev_hierarchy, snap.hierarchy
        base = key_base(prev_h, h)
        before, after = level_edge_keys(prev_h, base), level_edge_keys(h, base)
        row = {}
        for k in sorted(set(before) | set(after)):
            e0, ids0 = before.get(k, (EMPTY_KEYS, EMPTY_IDS))
            e1, ids1 = after.get(k, (EMPTY_KEYS, EMPTY_IDS))
            changed = diff_keys(e0, e1)
            drift = count_drift(changed, base, ids0, ids1)
            self.series.add_link_events(k, int(changed.size), drift)
            row[k] = [int(changed.size), drift, None]
        for lvl in h.levels:
            self.series.record_level(lvl.k, lvl.n_nodes, lvl.n_edges)
        for k in range(1, min(prev_h.num_levels, h.num_levels) + 1):
            moved = int((prev_h.ancestry(k) != h.ancestry(k)).sum())
            self.series.add_address_changes(k, moved)
            row[k][2] = moved
        self.per_step.append({k: tuple(v) for k, v in row.items()})

    def finalize(self, elapsed):
        return self.series
