"""The one hierarchy stepper a run binds at construction.

The :class:`~repro.sim.engine.Simulator`, the one step loop of the
stack, turns a step's ``(edges, positions)`` into a
:class:`ClusteredHierarchy` through the callable
:func:`hierarchy_stepper` returns, and never branches on the election
mode again.  All three implementations behind it share the level recursion
(:func:`~repro.hierarchy.levels.recurse_levels`) and differ in their
per-level elector only.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.hierarchy.levels import build_hierarchy
from repro.hierarchy.maintain import HierarchyMaintainer
from repro.hierarchy.persistent import PersistentHierarchyMaintainer

__all__ = ["hierarchy_stepper"]


def _step(update, node_ids, edges, positions):
    """One step of ``update`` over the run's fixed node IDs."""
    return update(node_ids, edges, positions=positions)


def hierarchy_stepper(n: int, r_tx: float, max_levels: int | None = None,
                      level_mode: str = "radio",
                      election_mode: str = "memoryless"):
    """``step(edges, positions) -> ClusteredHierarchy`` for nodes
    ``0..n-1``.

    ``election_mode`` picks the sticky or persistent maintainer;
    memoryless elections are built from scratch by
    :func:`build_hierarchy`.

    The result holds all election state that must survive from step to
    step and pickles with it, so it is what a checkpoint carries.
    """
    r0 = r_tx if level_mode == "radio" else None
    if election_mode == "sticky":
        update = HierarchyMaintainer(max_levels, level_mode, r0).update
    elif election_mode == "persistent":
        update = PersistentHierarchyMaintainer(max_levels, r_tx).update
    elif election_mode != "memoryless":
        raise ValueError(f"unknown election_mode {election_mode!r}")
    else:
        update = partial(build_hierarchy, max_levels=max_levels,
                         level_mode=level_mode, r0=r0)
    return partial(_step, update, np.arange(n))
