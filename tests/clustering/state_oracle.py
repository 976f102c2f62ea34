"""The per-level ALCA state loop, kept as the oracle of the level-stacked
:class:`repro.clustering.StateTracker`.

:class:`PerLevelStates` holds one single-level tracker per hierarchy
level and feeds each its own election, one level at a time: two
``np.unique`` and one ``intersect1d`` per level and snapshot.  A level
missing from a snapshot (the hierarchy's depth dipped) drops its last
election, so transitions are only ever counted between consecutive
snapshots.  :class:`OracleStateCollector` runs it beside a simulation.
"""

import numpy as np

from repro.clustering.state import StateStats
from repro.sim.collectors.base import Collector


class LevelStateTracker:
    """ALCA state statistics of one level, one election at a time."""

    def __init__(self):
        self._occ: dict[int, int] = {}
        self._trans: dict[int, int] = {}
        self._heads_state1 = 0
        self._heads_total = 0
        self._critical = 0
        self.samples = 0
        self.prev = None

    def observe(self, election) -> None:
        states = election.elector_count
        vals, counts = np.unique(states, return_counts=True)
        for v, c in zip(vals.tolist(), counts.tolist()):
            self._occ[v] = self._occ.get(v, 0) + c
        self.samples += int(states.size)
        self._heads_total += int((states >= 1).sum())
        self._heads_state1 += int((states == 1).sum())
        if self.prev is not None:
            common, ia, ib = np.intersect1d(
                self.prev.node_ids, election.node_ids, return_indices=True
            )
            if common.size:
                before = self.prev.elector_count[ia]
                after = election.elector_count[ib]
                vals, counts = np.unique(np.abs(after - before),
                                         return_counts=True)
                for v, c in zip(vals.tolist(), counts.tolist()):
                    self._trans[v] = self._trans.get(v, 0) + c
                crossing = ((before == 0) & (after >= 1)) | (
                    (before >= 1) & (after == 0)
                )
                self._critical += int(crossing.sum())
        self.prev = election

    def stats(self) -> StateStats:
        occupancy = {s: c / self.samples for s, c in sorted(self._occ.items())}
        nonzero = {d: c for d, c in self._trans.items() if d != 0}
        total_moves = sum(nonzero.values())
        return StateStats(
            occupancy=occupancy,
            transition_histogram=dict(sorted(self._trans.items())),
            p_state1=self._occ.get(1, 0) / self.samples,
            p_state1_heads=(self._heads_state1 / self._heads_total
                            if self._heads_total else 0.0),
            adjacent_fraction=(nonzero.get(1, 0) / total_moves
                               if total_moves else 1.0),
            critical_crossings=self._critical,
            samples=self.samples,
        )


class PerLevelStates:
    """One :class:`LevelStateTracker` per level, fed level by level."""

    def __init__(self):
        self.trackers: dict[int, LevelStateTracker] = {}

    def observe(self, elections) -> None:
        for k, election in enumerate(elections):
            self.trackers.setdefault(k, LevelStateTracker()).observe(election)
        for k, tracker in self.trackers.items():
            if k >= len(elections):
                tracker.prev = None

    def stats(self) -> dict[int, StateStats]:
        return {k: t.stats() for k, t in sorted(self.trackers.items())
                if t.samples}


class OracleStateCollector(Collector):
    """Runs :class:`PerLevelStates` over the baseline and every metered
    step; its ``finalize`` output lands in ``SimResult.extras``."""

    name = "state_oracle"

    def __init__(self):
        self.states = PerLevelStates()

    def _observe(self, hierarchy) -> None:
        self.states.observe([lvl.election for lvl in hierarchy.levels
                             if lvl.election is not None])

    def on_start(self, snap) -> None:
        self._observe(snap.hierarchy)

    def on_step(self, snap) -> None:
        self._observe(snap.hierarchy)

    def finalize(self, elapsed: float) -> dict:
        return {"state_oracle": self.states.stats()}
