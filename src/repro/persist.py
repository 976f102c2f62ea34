"""Result persistence — JSON artifacts for runs and sweeps, and binary
checkpoints for long runs.

Long sweeps are expensive; this module serializes their outputs
(scenario echo + scalar metrics, never raw traces) so benches and
notebooks can reload results without re-simulating.  The schema is
versioned and loading validates it, so stale artifacts fail loudly
rather than silently misplotting.

Checkpoints (:func:`save_checkpoint` / :func:`load_checkpoint`) are a
different beast: full mid-run simulator state, pickled as one object so
shared references survive, written atomically (tmp + rename) so a crash
mid-write never leaves a truncated file, and validated against
:data:`repro.sim.sweep.CODE_VERSION` on load so a resumed run can never
silently mix simulator versions.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
from pathlib import Path

from repro.core.events import EventKind
from repro.sim.checkpoint import CHECKPOINT_SCHEMA, SimCheckpoint
from repro.sim.metrics import SimResult, SweepPoint
from repro.sim.scenario import Scenario
from repro.sim.sweep import CODE_VERSION

__all__ = [
    "SCHEMA_VERSION",
    "result_to_dict",
    "save_result",
    "load_result_dict",
    "save_sweep",
    "load_sweep",
    "save_checkpoint",
    "load_checkpoint",
]

SCHEMA_VERSION = 1


def _scenario_dict(sc: Scenario) -> dict:
    d = dataclasses.asdict(sc)
    if isinstance(d.get("speed"), tuple):
        d["speed"] = list(d["speed"])
    return d


def result_to_dict(res: SimResult) -> dict:
    """Flatten a SimResult into JSON-safe scalars.

    Event-kind keys are serialized as ``"<kind>@<level>"`` strings.
    """
    led = res.ledger
    return {
        "schema": SCHEMA_VERSION,
        "scenario": _scenario_dict(res.scenario),
        "elapsed": res.elapsed,
        "f0": res.f0,
        "phi": res.phi,
        "gamma": res.gamma,
        "handoff_rate": res.handoff_rate,
        "registration_rate": led.registration_rate,
        "phi_k": {str(k): v for k, v in led.phi_k().items()},
        "gamma_k": {str(k): v for k, v in led.gamma_k().items()},
        "f_k": {str(k): v for k, v in led.f_k().items()},
        "g_prime_k": {str(k): v for k, v in res.g_prime_k().items()},
        "g_prime_k_drift": {str(k): v for k, v in res.g_prime_k_drift().items()},
        "reorg_event_rates": {
            f"{kind.value}@{level}": rate
            for (kind, level), rate in led.reorg_event_rates().items()
        },
        "level_sizes": {
            str(k): res.level_series.mean_size(k)
            for k in res.level_series.levels()
        },
        "h_network": res.mean_h(),
        "h_levels": {str(k): v for k, v in res.mean_h_k().items()},
        "mean_degree": res.mean_degree,
        "giant_fraction": res.giant_fraction,
        "component_lifetimes": {
            str(k): (v if v != float("inf") else None)
            for k, v in res.component_lifetimes().items()
        },
    }


def save_result(res: SimResult, path) -> Path:
    """Serialize one run to ``path`` (JSON).  Returns the path."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(json.dumps(result_to_dict(res), indent=2, sort_keys=True))
    return p


def load_result_dict(path) -> dict:
    """Load a saved run; validates the schema version."""
    data = json.loads(Path(path).read_text())
    if data.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"artifact schema {data.get('schema')!r} != {SCHEMA_VERSION} "
            f"(stale file: {path})"
        )
    return data


def save_sweep(points: list[SweepPoint], path, meta: dict | None = None) -> Path:
    """Serialize sweep points (aggregates only) to JSON."""
    payload = {
        "schema": SCHEMA_VERSION,
        "meta": meta or {},
        "points": [
            {
                "n": p.n,
                "values": p.values,
                "stds": p.stds,
                "seeds": p.seeds,
            }
            for p in points
        ],
    }
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return p


def save_checkpoint(ck: SimCheckpoint, path) -> Path:
    """Write a simulator checkpoint atomically; returns the path.

    The checkpoint is pickled as a single object (shared references —
    e.g. the delivery engine held by both the engine state and a query
    collector — stay shared on load) and written via tmp + rename so a
    crash mid-write leaves the previous checkpoint intact.
    """
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    tmp = p.with_suffix(p.suffix + f".tmp-{os.getpid()}")
    with tmp.open("wb") as fh:
        pickle.dump(ck, fh, protocol=pickle.HIGHEST_PROTOCOL)
    tmp.replace(p)
    return p


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


def load_sweep(path) -> list[SweepPoint]:
    """Load sweep points saved by :func:`save_sweep`."""
    data = json.loads(Path(path).read_text())
    if data.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"artifact schema {data.get('schema')!r} != {SCHEMA_VERSION} "
            f"(stale file: {path})"
        )
    return [
        SweepPoint(
            n=int(item["n"]),
            values=dict(item["values"]),
            stds=dict(item["stds"]),
            seeds=int(item["seeds"]),
            results=(),
        )
        for item in data["points"]
    ]
