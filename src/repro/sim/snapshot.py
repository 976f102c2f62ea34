"""Immutable per-step view of the simulation pipeline.

Each metered step, the engine advances its phases (mobility -> unit-disk
rebuild -> hierarchy election -> handoff diff) and then freezes the
step's outputs into one :class:`StepSnapshot`, which is dispatched to
every registered collector (see :mod:`repro.sim.collectors`).  The
snapshot is the *entire* contract between the stepping plane and the
measurement plane: collectors read it, never the engine.

The snapshot is immutable by convention (frozen dataclass); the arrays
and hierarchy objects it references are the engine's working copies and
must not be mutated by collectors.

:func:`static_snapshot` is the same pipeline without time: one network
frozen at given positions, the unit-disk links and hierarchy a
scenario's radio settings give them.  Every table that measures a
static deployment (server load, map size, stretch, ...) builds it here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.hierarchy import build_hierarchy
from repro.radio import unit_disk_edges
from repro.sim.scenario import Scenario

__all__ = ["StaticSnapshot", "StepSnapshot", "static_snapshot"]


@dataclass(frozen=True)
class StepSnapshot:
    """Everything one pipeline step produced, frozen for collectors.

    Attributes
    ----------
    t:
        Simulated time at the end of this step, in seconds.
    step:
        Metered step index (``0 .. steps-1``).  The baseline snapshot
        passed to ``Collector.on_start`` uses ``step == -1``.
    positions:
        Node positions after this step's mobility phase, shape (n, 2).
    edges:
        Unit-disk link list after crash filtering, shape (m, 2).
    hierarchy:
        The :class:`~repro.hierarchy.levels.ClusteredHierarchy` elected
        on this step's topology.
    prev_hierarchy:
        The previous step's hierarchy (``None`` on the baseline
        snapshot) — lets collectors diff addresses across steps.
    report:
        The step's :class:`~repro.core.handoff.HandoffReport` (``None``
        on the baseline snapshot, which precedes any handoff).
    hop_fn:
        Hop-count oracle ``(s, d) -> hops`` for this step's topology
        (:class:`~repro.sim.hops.BfsHops` or
        :class:`~repro.sim.hops.EuclideanHops`).
    scenario:
        The run's immutable :class:`~repro.sim.scenario.Scenario`.
    assignment:
        The handoff engine's *effective* server assignment after
        observing this step (stale entries from abandoned transfers
        included), for query-style collectors.
    down:
        Boolean per-node crash mask from the chaos engine (``None``
        when the run injects no faults — the mask then would be
        all-False).  Crashed nodes keep their identity but hold no
        links in ``edges``.
    delta:
        The step's :class:`~repro.hierarchy.delta.HierarchyDelta` when
        the step patched its CHLM assignment; ``None`` on steps
        :func:`~repro.core.servers.patch_pays` sent to a full
        reassignment, and on the baseline snapshot.  Collectors may use
        its dirty sets to scope their own diffs.
    link_diff:
        The step's level-0 :class:`~repro.radio.linkevents.LinkDiff`
        from the previous step's ``edges`` to this one's (``None`` on the
        baseline snapshot).  It is computed once per step
        (:func:`~repro.radio.linkevents.link_diff`), and its churn feeds
        the patch-or-full choice.  The levels above
        have their diff in ``report.diff``.
    """

    t: float
    step: int
    positions: np.ndarray
    edges: np.ndarray
    hierarchy: Any
    prev_hierarchy: Any
    report: Any
    hop_fn: Any
    scenario: Scenario
    assignment: Any
    down: np.ndarray | None = None
    delta: Any = None
    link_diff: Any = None


@dataclass(frozen=True)
class StaticSnapshot:
    """A network frozen at ``positions`` (:func:`static_snapshot`).

    It carries its ``scenario``, so a list of them (one per seed) goes
    straight to :func:`~repro.sim.sweep.sweep_points`.
    """

    scenario: Scenario
    positions: np.ndarray
    edges: np.ndarray
    hierarchy: Any


def static_snapshot(scenario: Scenario, positions) -> StaticSnapshot:
    """The unit-disk links at ``scenario.r_tx`` between ``positions``
    (node ``i`` at row ``i``) and the hierarchy elected on them, with the
    scenario's depth cap and level links.

    Placement is the caller's: ``scenario.region.sample(scenario.n, rng)``
    draws the paper's uniform disc, and the caller keeps ``rng`` for any
    further draws (query pairs, drift).
    """
    edges = unit_disk_edges(positions, scenario.r_tx)
    hierarchy = build_hierarchy(
        np.arange(scenario.n), edges, max_levels=scenario.max_levels,
        level_mode=scenario.level_mode, positions=positions,
        r0=scenario.r_tx,
    )
    return StaticSnapshot(scenario, positions, edges, hierarchy)
