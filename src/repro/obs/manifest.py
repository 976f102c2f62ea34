"""Run manifests: a portable, JSON-safe record of one simulation run.

A manifest captures *provenance* (scenario hash, ``CODE_VERSION``,
package versions, platform) and *cost* (wall time, per-phase breakdown,
peak RSS) next to the headline metrics, so a result file on disk can always answer
"what produced this, and where did the time go?".  ``series`` holds the
per-step packet counts the headline rates sum, and two optional
sections make it the run's one record: ``trace`` (the event trace a
:class:`~repro.sim.collectors.TraceCollector` kept) and ``chaos`` (the
:class:`~repro.sim.collectors.ChaosReport`); all three are empty when
the run has no such data, which is also how a file written without them
reads back.  Manifests are plain JSON; a list of them streams naturally as
JSONL via :func:`repro.obs.export.write_jsonl`.
"""

from __future__ import annotations

import json
import platform as _platform
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

__all__ = ["RunManifest"]

SCHEMA = "repro.manifest/v1"


def _platform_info() -> dict:
    import numpy

    import repro

    return {
        "python": sys.version.split()[0],
        "platform": _platform.platform(),
        "numpy": numpy.__version__,
        "repro": repro.__version__,
    }


@dataclass(frozen=True)
class RunManifest:
    """Provenance + cost record for one :class:`~repro.sim.metrics.SimResult`.

    Attributes
    ----------
    scenario_key:
        The sweep cache key (SHA-256 over the scenario and
        ``CODE_VERSION``) — the run's stable identity, and the stem of
        the file :func:`~repro.sim.sweep.run_sweep` caches it under.
    code_version:
        :data:`repro.sim.sweep.CODE_VERSION` at creation time.
    scenario:
        The full scenario as a JSON-safe dict (numpy scalars normalized),
        every run setting included — the hop-sampling cadence too.
    platform:
        Interpreter/OS/package versions the run executed under.
    wall_seconds:
        Measured wall time of the run (0 when the run was not profiled).
    phases:
        Per-phase wall-clock totals from :class:`~repro.obs.timers.StepTimings`
        (empty when the run was not profiled).
    peak_rss_mb:
        The process's peak resident set size in MiB when the run ended
        (:attr:`~repro.obs.timers.StepTimings.peak_rss_mb`; 0 when the
        run was not profiled, and in manifests written before it was
        recorded).
    metrics:
        Headline scalar metrics (phi, gamma, handoff rate, f0, ...).
    series:
        Per metered step, the migration (``"migration_packets"``) and
        reorganisation (``"reorg_packets"``) handoff packets of each
        level 0 .. L+1, as integers from the ledger; dividing a step's
        sum by n·dt gives its phi or gamma.  ``"stale_entries"`` is the
        ledger's count of stale LM entries outstanding after each step.
    trace:
        The event trace: ``capacity``, ``dropped`` and ``events`` (one
        ``{"t", "kind", "payload"}`` dict each); empty when the run
        recorded none.
    chaos:
        ``dataclasses.asdict`` of the run's chaos report (invariant
        series, stale windows, episode SLOs); empty when the run
        collected none.
    """

    scenario_key: str
    code_version: str
    scenario: dict
    platform: dict = field(default_factory=dict)
    wall_seconds: float = 0.0
    phases: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    metrics: dict = field(default_factory=dict)
    series: dict = field(default_factory=dict)
    trace: dict = field(default_factory=dict)
    chaos: dict = field(default_factory=dict)
    schema: str = SCHEMA

    @classmethod
    def from_result(cls, res) -> "RunManifest":
        """Build a manifest from a finished :class:`SimResult`."""
        # Imported here: obs must stay importable before repro.sim
        # finishes initializing (the engine lazily imports obs.timers).
        from repro.core.handoff import MIG_PACKETS, REORG_PACKETS
        from repro.sim.sweep import CODE_VERSION, normalize_for_json, scenario_key

        timings = getattr(res, "timings", None)
        metrics = {
            "phi": float(res.phi),
            "gamma": float(res.gamma),
            "handoff_rate": float(res.handoff_rate),
            "f0": float(res.f0),
            "mean_degree": float(res.mean_degree),
            "giant_fraction": float(res.giant_fraction),
            "elapsed_sim_seconds": float(res.elapsed),
        }
        if res.query_success_rate is not None:
            metrics["query_success_rate"] = float(res.query_success_rate)
        if res.scenario.faults_enabled:
            metrics["retransmission_rate"] = float(
                res.ledger.retransmission_rate)
            metrics["abandonment_rate"] = float(res.ledger.abandonment_rate)
            metrics["mean_recovery_time"] = float(
                res.ledger.mean_recovery_time)
        for kind, entry in res.ledger.reorg_event_breakdown().items():
            # (i)-(vii) taxonomy: which reorg event type dominates gamma.
            metrics[f"reorg_{kind}_count"] = int(entry["count"])
            metrics[f"reorg_{kind}_rate"] = float(entry["rate"])
        extras = getattr(res, "extras", {})
        chaos = extras.get("chaos")
        if chaos is not None:
            ttr = chaos.max_time_to_reconverge()
            metrics["invariant_violations"] = int(chaos.total_violations)
            metrics["peak_invariant_violations"] = int(chaos.peak_violations)
            metrics["peak_down_nodes"] = int(chaos.peak_down)
            metrics["max_stale_window_steps"] = int(chaos.max_stale_window)
            if ttr is not None:
                metrics["max_time_to_reconverge"] = float(ttr)
        return cls(
            scenario_key=scenario_key(res.scenario),
            code_version=CODE_VERSION,
            scenario=normalize_for_json(asdict(res.scenario)),
            platform=_platform_info(),
            wall_seconds=float(timings.wall_seconds) if timings else 0.0,
            phases=dict(timings.totals) if timings else {},
            peak_rss_mb=float(timings.peak_rss_mb) if timings else 0.0,
            metrics=metrics,
            series={
                **{name: [t[column].tolist() for t in res.ledger.tables]
                   for name, column in (("migration_packets", MIG_PACKETS),
                                        ("reorg_packets", REORG_PACKETS))},
                "stale_entries": res.ledger.stale_series,
            },
            trace=extras.get("trace", {}),
            chaos={} if chaos is None else asdict(chaos),
        )

    # -- serialization ------------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-dict form, ready for JSON or JSONL streaming."""
        return asdict(self)

    def to_json(self, indent: int | None = 2) -> str:
        """Serialize as (pretty-printed) JSON text."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "RunManifest":
        if d.get("schema", SCHEMA) != SCHEMA:
            raise ValueError(f"unsupported manifest schema {d.get('schema')!r}")
        return cls(
            scenario_key=str(d["scenario_key"]),
            code_version=str(d["code_version"]),
            scenario=dict(d.get("scenario", {})),
            platform=dict(d.get("platform", {})),
            wall_seconds=float(d.get("wall_seconds", 0.0)),
            phases={str(k): float(v) for k, v in d.get("phases", {}).items()},
            peak_rss_mb=float(d.get("peak_rss_mb", 0.0)),
            metrics=dict(d.get("metrics", {})),
            series=dict(d.get("series", {})),
            trace=dict(d.get("trace", {})),
            chaos=dict(d.get("chaos", {})),
        )

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        return cls.from_dict(json.loads(text))

    def write(self, path: str | Path) -> Path:
        """Write the manifest as pretty-printed JSON; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def read(cls, path: str | Path) -> "RunManifest":
        return cls.from_json(Path(path).read_text())
