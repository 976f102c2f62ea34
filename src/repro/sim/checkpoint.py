"""Checkpoints for long simulation runs: the container and its file.

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
simulator version).  :func:`save_checkpoint` writes one file
atomically; :func:`load_checkpoint` reads it back and validates it.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.sim.scenario import Scenario
from repro.sim.sweep import CODE_VERSION, write_pickle

__all__ = [
    "CHECKPOINT_SCHEMA", "SimCheckpoint", "save_checkpoint", "load_checkpoint",
]

CHECKPOINT_SCHEMA = 15
"""On-disk checkpoint layout version (bumped when fields change shape).

Schema 15 always carries the ``edge_cache`` (every run steps on it) and
no separate ``trace`` field (an event trace is a
:class:`~repro.sim.collectors.TraceCollector` in ``collectors``); its
pickled scenario has lost the schema-10 control-plane switch, the
schema-11 service front-end fields, the schema-12 clustering-algorithm
and hash choices, the schema-13 legacy crash-rate and repair-time
fields and the schema-14 ``retry_timeout``; its pickled chaos engine
holds the episode tuple itself.  A file of any
other schema is refused at load time
(:func:`load_checkpoint`) — by its schema field, or as
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
    schema: int = field(default=CHECKPOINT_SCHEMA)


def save_checkpoint(ck: SimCheckpoint, path) -> Path:
    """Write a simulator checkpoint atomically; returns the path.

    The checkpoint is pickled as a single object (shared references —
    e.g. the delivery engine held by both the engine state and a query
    collector — stay shared on load) through
    :func:`repro.sim.sweep.write_pickle`, so a crash mid-write leaves
    the previous checkpoint intact and no tmp file behind.
    """
    return write_pickle(path, ck)


def load_checkpoint(path) -> SimCheckpoint:
    """Load a checkpoint written by :func:`save_checkpoint`.

    Validates the checkpoint schema and the simulator
    :data:`~repro.sim.sweep.CODE_VERSION`: a checkpoint from different
    simulator semantics raises ``ValueError`` (resuming it could not
    reproduce the uninterrupted run).  So does a file that names a class
    or module this code no longer has: the pickle is read before its
    schema field can be, and only an older schema could name one.
    Corrupt files raise whatever pickle raises — callers that want
    "fresh run on any failure" semantics (e.g. the sweep runner) catch
    broadly.
    """
    with Path(path).open("rb") as fh:
        try:
            ck = pickle.load(fh)
        except (AttributeError, ImportError) as exc:
            raise ValueError(
                f"checkpoint schema predates {CHECKPOINT_SCHEMA}: it names "
                f"code that no longer exists ({exc}) (stale file: {path})"
            ) from exc
    if not isinstance(ck, SimCheckpoint):
        raise ValueError(f"not a simulator checkpoint: {path}")
    if ck.schema != CHECKPOINT_SCHEMA:
        raise ValueError(
            f"checkpoint schema {ck.schema!r} != {CHECKPOINT_SCHEMA} "
            f"(stale file: {path})"
        )
    if ck.code_version != CODE_VERSION:
        raise ValueError(
            f"checkpoint written by simulator version {ck.code_version!r}, "
            f"this is {CODE_VERSION!r} — a resumed run would not match an "
            f"uninterrupted one (stale file: {path})"
        )
    return ck
