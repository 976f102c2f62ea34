"""Checkpoint container for long simulation runs.

A :class:`SimCheckpoint` freezes *everything* a mid-run simulator needs
to continue bit-identically: the mobility model (positions, waypoints,
and its RNG), the handoff engine's assignment/staleness state, the
hierarchy stepper (every election that has memory), the delivery engine, the
chaos engine (crash deadlines, episode state, and its RNG streams),
and every collector object (which carry their
own RNG streams).  All of it is pickled as one object, so references
shared between components — e.g. the delivery engine held by both the
simulator and the query collector — stay shared after restore.

Checkpoints are code-version-stamped: loading a checkpoint written by a
different :data:`repro.sim.sweep.CODE_VERSION` fails loudly (a resumed
run must equal an uninterrupted one, which only holds within one
simulator version).  See :func:`repro.persist.save_checkpoint` /
:func:`repro.persist.load_checkpoint` for the on-disk format.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.sim.scenario import Scenario

__all__ = ["CHECKPOINT_SCHEMA", "SimCheckpoint"]

CHECKPOINT_SCHEMA = 10
"""On-disk checkpoint layout version (bumped when fields change shape).

Schema 10 drops the ``hop_sample_every`` field (a run's cadence is its
``scenario``'s, and the pickled scenario lost seven one-value fields)
and the chaos collector's SLO settings (now module constants); a
schema-9 file still unpickles and is refused by its schema field.
Schema 9 pickles a memoryless ``stepper`` on either plane as the same
from-scratch :func:`~repro.hierarchy.levels.build_hierarchy` partial,
where an event-plane schema-8 file pickled a per-level patched-election
plane whose class no longer exists; such a file fails to unpickle and
is refused as stale (:func:`repro.persist.load_checkpoint`).  Schema 8
pickles the ALCA state collector as one level-stacked
:class:`~repro.clustering.state.StateTracker` (count arrays and the last
snapshot's level-tagged states) where schema 7 held one tracker per
level; a schema-7 collector would not unpickle into it.  Schema 7 stores
the ``edge_cache``'s candidate list as a ``(2, m)`` array of two
contiguous columns where schema 6 had ``(m, 2)`` pairs; a schema-6 list
would be read as two wrong columns.  Schema 6 carries the run's one
hierarchy ``stepper`` (:func:`repro.hierarchy.stepper.hierarchy_stepper`)
where schema 5 had ``maintainer`` and ``delta_plane``, and the
``edge_cache`` tracks its build regime.  Schema 5 shrank each level's
pickled incremental election to its vote and support arrays (no
adjacency dict).  Schema 4 changed the shape of the pickled handoff
``engine``: its assignments are dense per-level server tables
(:class:`~repro.core.servers.ServerAssignment` ``subjects``/``tables``,
chains on the same object) instead of ``(subject, level)``-keyed dicts,
which a schema-3 engine would not unpickle into.  Schema 3 added the
event-driven plane state (``delta_plane``, ``edge_cache``) so
incremental runs resume bit-identically.  Schema 2 replaced the
``down_until`` / ``now`` / ``failure_rng`` triplet with the ``chaos``
engine object.  Older-schema checkpoints are refused at load time
(:func:`repro.persist.load_checkpoint`)."""


@dataclass
class SimCheckpoint:
    """Full mid-run simulator state (see the module docstring).

    Attributes
    ----------
    code_version:
        :data:`repro.sim.sweep.CODE_VERSION` at save time; loading
        validates it.
    scenario:
        The run's scenario (restore re-derives nothing from it — it is
        carried for validation and resumed construction).
    next_step:
        First metered step the resumed run will execute.
    started:
        Whether warmup + baseline already ran (always True for
        checkpoints taken mid-loop).
    model:
        The mobility model, including positions and its RNG stream.
    engine:
        The :class:`~repro.core.handoff.HandoffEngine` (assignments,
        stale entries).
    stepper:
        The run's hierarchy stepper
        (:func:`repro.hierarchy.stepper.hierarchy_stepper`) with the
        election state it owns: the sticky/persistent maintainer; a
        from-scratch build carries none.
    delivery:
        The lossy-control :class:`~repro.faults.DeliveryEngine`, or None.
    chaos:
        The :class:`~repro.faults.ChaosEngine` (crash deadlines, chaos
        clock, fired-episode state, both RNG streams), or None when the
        run injects no faults.
    prev_hierarchy:
        Last step's hierarchy (address-diff reference for collectors).
    collectors:
        Every registered collector object, in dispatch order.
    timings:
        Accumulated :class:`~repro.obs.timers.StepTimings`, or None.
    trace:
        The simulator's :class:`~repro.sim.trace.EventTrace`, or None
        (the same object a :class:`TraceCollector` holds).
    edge_cache:
        The :class:`~repro.radio.edge_cache.VerletEdgeCache` (candidate
        pairs + reference positions), or None when
        ``incremental_hierarchy`` is off.
    schema:
        :data:`CHECKPOINT_SCHEMA` at save time.
    """

    code_version: str
    scenario: Scenario
    next_step: int
    started: bool
    model: Any
    engine: Any
    stepper: Any
    delivery: Any
    chaos: Any
    prev_hierarchy: Any
    collectors: list
    timings: Any = None
    trace: Any = None
    edge_cache: Any = None
    schema: int = field(default=CHECKPOINT_SCHEMA)
