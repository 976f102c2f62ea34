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

CHECKPOINT_SCHEMA = 13
"""On-disk checkpoint layout version (bumped when fields change shape).

Schema 13 always carries the ``edge_cache`` (every run steps on it), and
its pickled scenario has lost the schema-10 control-plane switch, the
schema-11 service front-end fields and the schema-12 clustering-algorithm
and hash choices.  A file of any other schema is refused at load time
(:func:`repro.persist.load_checkpoint`) — by its schema field, or as
stale when it pickles a class this code no longer has; CHANGES.md
records what each earlier bump changed."""


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
    edge_cache:
        The :class:`~repro.radio.edge_cache.VerletEdgeCache` (candidate
        pairs + reference positions).
    timings:
        Accumulated :class:`~repro.obs.timers.StepTimings`, or None.
    trace:
        The simulator's :class:`~repro.sim.trace.EventTrace`, or None
        (the same object a :class:`TraceCollector` holds).
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
    edge_cache: Any
    timings: Any = None
    trace: Any = None
    schema: int = field(default=CHECKPOINT_SCHEMA)
