"""The one hierarchy maintainer a run binds at construction.

The :class:`~repro.sim.engine.Simulator`, the one step loop of the
stack, turns a step's ``(edges, positions)`` into a
:class:`ClusteredHierarchy` through :meth:`HierarchyMaintainer.update`
and never branches on the election mode again.  Every mode runs the
same level recursion (:func:`~repro.hierarchy.levels.recurse_levels`)
and differs in its per-level elector only: memoryless runs elect every
level from scratch with :func:`~repro.clustering.lca.elect`; sticky
runs keep one :class:`~repro.clustering.alca.AlcaMaintainer` per level;
persistent runs keep one
:class:`~repro.hierarchy.persistent.PersistentLevelMaintainer` per level
and place each minted cluster ID where its head chain ends.
"""

from __future__ import annotations

import numpy as np

from repro.clustering.alca import AlcaMaintainer
from repro.clustering.lca import Election, elect
from repro.graphs import id_array
from repro.hierarchy.levels import (
    ClusteredHierarchy,
    check_link_model,
    recurse_levels,
)
from repro.hierarchy.persistent import PersistentLevelMaintainer

__all__ = ["HierarchyMaintainer"]


class HierarchyMaintainer:
    """Steps the clustered hierarchy of nodes ``0..n-1``.

    ``election_mode`` is ``"memoryless"``, ``"sticky"`` or
    ``"persistent"``; ``level_mode`` and ``r_tx`` (the level-0 radius)
    pick the level link model of :func:`build_hierarchy`.  Persistent
    cluster IDs need the radio model.

    The maintainer holds all election state that must survive from step
    to step and pickles with it, so it is what a checkpoint carries.

    Note: because minted cluster IDs are synthetic, ``ClusteredHierarchy.
    highest_level_of`` is not meaningful under persistent elections.
    """

    CID_BLOCK = 10_000_000
    """Cid range per level: level k allocates from (k+1) * CID_BLOCK.
    Physical node IDs must stay below CID_BLOCK.  So while no level
    mints CID_BLOCK cids, every cid of an L-level hierarchy stays below
    (L + 2) * CID_BLOCK, which is below 2**31 up to L = 212: cids are
    IDs, and IDs are int32 (an election that would mint one past it
    raises ``ValueError`` naming it)."""

    def __init__(self, n: int, r_tx: float | None,
                 max_levels: int | None = None, level_mode: str = "radio",
                 election_mode: str = "memoryless"):
        if election_mode not in ("memoryless", "sticky", "persistent"):
            raise ValueError(f"unknown election_mode {election_mode!r}")
        self.r0 = r_tx if level_mode == "radio" else None
        check_link_model(level_mode, self.r0)
        if election_mode == "persistent":
            if level_mode != "radio":
                raise ValueError("persistent clusters require radio level_mode")
            if n > self.CID_BLOCK:
                raise ValueError("node IDs must be below CID_BLOCK")
        self.max_levels = max_levels
        self.level_mode = level_mode
        self.election_mode = election_mode
        # One stateful elector per level (sticky and persistent only).
        self._levels: list[AlcaMaintainer | PersistentLevelMaintainer] = []
        # The run's base IDs, shared by every snapshot (each one's
        # ancestry(0)): read-only, so no consumer can write into all of them.
        self._ids = np.arange(n, dtype=np.int32)
        self._ids.flags.writeable = False

    def _elect(self, k: int, ids: np.ndarray, edges: np.ndarray) -> Election:
        if self.election_mode == "memoryless":
            return elect(ids, edges)
        if k == len(self._levels):  # the recursion reaches levels in order
            self._levels.append(
                AlcaMaintainer() if self.election_mode == "sticky"
                else PersistentLevelMaintainer((k + 1) * self.CID_BLOCK))
        return self._levels[k].update(ids, edges)

    def _located_at(self, level: int, cids: np.ndarray) -> np.ndarray:
        """Physical node standing for each level-``level`` cid (follow
        the head chain down)."""
        out = []
        for cur in cids.tolist():
            for k in range(level - 1, -1, -1):
                cur = self._levels[k].head_of_cid(cur)
            out.append(cur)
        return id_array(out)

    def update(self, edges, positions=None) -> ClusteredHierarchy:
        """The hierarchy of this step's level-0 ``edges`` (ID pairs);
        ``positions`` (one row per node) are required by the radio
        model."""
        located_at = (self._located_at if self.election_mode == "persistent"
                      else None)
        return recurse_levels(
            self._ids, edges, self._elect, max_levels=self.max_levels,
            level_mode=self.level_mode, positions=positions, r0=self.r0,
            located_at=located_at,
        )
