"""The one hierarchy stepper a run binds at construction.

Every driver of the stack (:class:`~repro.sim.engine.Simulator`,
:class:`~repro.app.messaging.MessagingService`) turns a step's
``(edges, positions)`` into a :class:`ClusteredHierarchy` through the
callable :func:`hierarchy_stepper` returns, and never branches on the
election mode, the clustering algorithm or the control plane again.  All
four implementations behind it share the level recursion
(:func:`~repro.hierarchy.levels.recurse_levels`) and differ in their
per-level elector only.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.hierarchy.delta import DeltaPlane
from repro.hierarchy.levels import build_hierarchy
from repro.hierarchy.maintain import HierarchyMaintainer
from repro.hierarchy.persistent import PersistentHierarchyMaintainer

__all__ = ["hierarchy_stepper"]


def _step(update, node_ids, edges, positions, diff=None):
    """A stepper with no use for the edge cache's link diff."""
    return update(node_ids, edges, positions=positions)


def hierarchy_stepper(n: int, r_tx: float, max_levels: int | None = None,
                      level_mode: str = "radio", clustering: str = "lca",
                      maxmin_d: int = 2, election_mode: str = "memoryless",
                      incremental: bool = False):
    """``step(edges, positions, diff=None) -> ClusteredHierarchy`` for
    nodes ``0..n-1``.

    ``election_mode`` picks the sticky or persistent maintainer;
    memoryless elections are patched by a :class:`DeltaPlane` when
    ``incremental`` is set and the algorithm is LCA (the only one with a
    patchable election), and built from scratch by
    :func:`build_hierarchy` otherwise.  ``diff`` is the exact level-0
    :class:`~repro.radio.linkevents.LinkDiff` of ``edges`` against the
    previous call's, when the caller has one; only the plane uses it.

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
    elif incremental and clustering == "lca":
        return DeltaPlane(n, max_levels, level_mode, r0).advance
    else:
        update = partial(build_hierarchy, max_levels=max_levels,
                         algorithm=clustering, maxmin_d=maxmin_d,
                         level_mode=level_mode, r0=r0)
    return partial(_step, update, np.arange(n))
