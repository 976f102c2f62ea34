"""Per-phase wall-clock accumulators for the simulator pipeline.

The simulator's metered loop is a fixed pipeline (mobility -> unit-disk
rebuild -> hierarchy election -> handoff diff -> level diff -> hop
sampling).  :class:`StepTimings` accumulates wall-clock seconds per
phase so a profiled run can answer "which phase dominates at this n?"
without touching any simulation state.

Design constraints (enforced by ``tests/obs/test_equivalence.py``):

* Timing uses :func:`time.perf_counter` only — never an RNG stream, so a
  profiled run is bit-identical to an unprofiled one.
* When profiling is off the simulator holds no ``StepTimings`` at all;
  the per-phase cost is a single ``is None`` check, and the peak-RSS
  read at the end of a profiled run is skipped too.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

try:
    import resource
except ImportError:  # not on Windows: the peak reads 0 there
    resource = None

__all__ = ["PHASES", "StepTimings"]

PHASES = (
    "setup",
    "mobility",
    "rebuild",
    "hierarchy",
    "handoff",
    "diff",
    "sampling",
)
"""Canonical pipeline phase names, in execution order.

``setup`` covers warmup stepping plus the unmetered baseline snapshot;
the rest are the per-step phases of :meth:`repro.sim.engine.Simulator.run`.
``handoff`` covers the step's hierarchy diff and its CHLM assignment,
patched or recomputed, with the handoff metering.
"""


@dataclass
class StepTimings:
    """Wall-clock seconds accumulated per pipeline phase.

    Attributes
    ----------
    totals:
        ``{phase: seconds}`` summed over every metered step (plus the
        one-time ``setup`` entry).
    steps:
        Number of metered steps accumulated.
    wall_seconds:
        Total wall time of the run (set once by the simulator; covers
        setup + loop + result assembly).
    peak_rss_mb:
        Peak resident set size in MiB, read once from ``ru_maxrss`` when
        the run ends (:meth:`note_peak_rss`).  It is the *process's*
        peak so far, not the run's own: whatever the process ran before,
        in the same worker, counts too.  0 where it cannot be read.
    """

    totals: dict[str, float] = field(default_factory=dict)
    steps: int = 0
    wall_seconds: float = 0.0
    peak_rss_mb: float = 0.0

    def add(self, phase: str, seconds: float) -> None:
        """Accumulate ``seconds`` of wall time into ``phase``."""
        self.totals[phase] = self.totals.get(phase, 0.0) + seconds

    def tick_step(self) -> None:
        """Mark one metered step complete."""
        self.steps += 1

    def note_peak_rss(self) -> None:
        """Read the process's peak RSS (``ru_maxrss``: KiB on Linux,
        bytes on macOS) into :attr:`peak_rss_mb`, keeping the larger."""
        if resource is None:
            return
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        peak /= 1 << (20 if sys.platform == "darwin" else 10)
        self.peak_rss_mb = max(self.peak_rss_mb, float(peak))

    # -- views --------------------------------------------------------------------

    @property
    def phase_seconds(self) -> float:
        """Sum over all phase totals (excludes untimed glue)."""
        return float(sum(self.totals.values()))

    def fractions(self) -> dict[str, float]:
        """Each phase's share of the total phase time (empty when no
        time was recorded)."""
        total = self.phase_seconds
        if total <= 0:
            return {}
        return {k: v / total for k, v in self.totals.items()}

    def mean_per_step(self) -> dict[str, float]:
        """Mean seconds per metered step for each per-step phase
        (``setup`` excluded: it runs once, not per step)."""
        if self.steps <= 0:
            return {}
        return {
            k: v / self.steps for k, v in self.totals.items() if k != "setup"
        }

    def merge(self, other: "StepTimings") -> None:
        """Fold another run's timings into this accumulator (used for
        per-n aggregation across seeds); the peak RSS is the larger."""
        for k, v in other.totals.items():
            self.add(k, v)
        self.steps += other.steps
        self.wall_seconds += other.wall_seconds
        self.peak_rss_mb = max(self.peak_rss_mb, other.peak_rss_mb)

    # -- serialization ------------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-safe) for manifests and JSONL export."""
        return {
            "totals": {k: float(v) for k, v in self.totals.items()},
            "steps": int(self.steps),
            "wall_seconds": float(self.wall_seconds),
            "peak_rss_mb": float(self.peak_rss_mb),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "StepTimings":
        return cls(
            totals={str(k): float(v) for k, v in d.get("totals", {}).items()},
            steps=int(d.get("steps", 0)),
            wall_seconds=float(d.get("wall_seconds", 0.0)),
            peak_rss_mb=float(d.get("peak_rss_mb", 0.0)),
        )

    def to_lines(self) -> list[str]:
        """Human-readable per-phase table (ordered by :data:`PHASES`,
        unknown phases last)."""
        order = {p: i for i, p in enumerate(PHASES)}
        keys = sorted(self.totals, key=lambda k: (order.get(k, len(order)), k))
        fracs = self.fractions()
        lines = []
        for k in keys:
            lines.append(
                f"{k:10s} {self.totals[k]:9.4f} s  {100 * fracs.get(k, 0.0):5.1f}%"
            )
        if self.steps:
            per_step = 1e3 * sum(self.mean_per_step().values())
            lines.append(
                f"{'per step':10s} {per_step:9.3f} ms over {self.steps} steps"
            )
        return lines
