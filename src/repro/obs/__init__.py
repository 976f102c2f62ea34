"""repro.obs — run telemetry and profiling.

The observability layer for the simulator and sweep runner:

* :class:`~repro.obs.timers.StepTimings` — per-phase wall-clock
  accumulators the engine fills when run with ``profile=True``
  (bit-identical metrics; timing never touches an RNG stream).
* :class:`~repro.obs.manifest.RunManifest` — provenance + cost record
  (scenario hash, ``CODE_VERSION``, platform, phase breakdown) for one
  run, serialized as JSON: the one per-run record (``repro simulate
  --manifest`` writes one, ``repro sweep --manifest`` one per task).
  Its optional ``trace`` and ``chaos`` sections carry the run's event
  trace (:class:`~repro.sim.collectors.TraceCollector`) and chaos
  report (:class:`~repro.sim.collectors.ChaosReport`).
* JSONL export (:mod:`repro.obs.export`) — manifests as JSON Lines
  for offline analysis.
* :class:`~repro.obs.report.SweepReport` — sweep-level aggregation
  (throughput, ETA, cache-hit rate, retry/timeout counts, per-n phase
  breakdowns): the report block ``repro sweep`` prints under its table.

See docs/OBSERVABILITY.md for usage and schemas.
"""

from repro.obs.export import write_jsonl
from repro.obs.manifest import RunManifest
from repro.obs.report import SweepReport
from repro.obs.timers import PHASES, StepTimings

__all__ = [
    "PHASES",
    "StepTimings",
    "RunManifest",
    "SweepReport",
    "write_jsonl",
]
