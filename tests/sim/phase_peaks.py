"""Where a run's memory goes: each pipeline phase's traced heap peak
above the traced heap at the phase's entry.

The simulator's profiled run marks every phase boundary through
``StepTimings.add``; :class:`PhasePeaks` reads ``tracemalloc`` at each
mark and resets its peak, so a phase's figure is the most it allocated
on top of what it was handed.  A phase marked more than once a step (a
collector's own phase) reports its largest segment.  Tracing slows a
run several-fold and never changes its results.

The modules a run imports on first use (``scipy.sparse.csgraph``, for
BFS rows on large graphs) are imported before tracing starts: a
module's one-time import is not the phase's working memory.
"""

import tracemalloc
from dataclasses import dataclass, field

from repro.obs.timers import StepTimings
from repro.sim import Simulator

MIB = 1 << 20


@dataclass
class PhasePeaks(StepTimings):
    """Phase timings that also keep, per phase, the traced peak above
    the phase's entry in bytes."""

    peaks: dict[str, int] = field(default_factory=dict)
    entry: int = 0

    def add(self, phase: str, seconds: float) -> None:
        super().add(phase, seconds)
        current, peak = tracemalloc.get_traced_memory()
        self.peaks[phase] = max(self.peaks.get(phase, 0), peak - self.entry)
        tracemalloc.reset_peak()
        self.entry = current


def traced_phase_peaks(scenario, collectors=None):
    """Run ``scenario`` under ``tracemalloc``: ``(result, {phase: MiB})``."""
    import scipy.sparse.csgraph  # noqa: F401  (see the module docstring)

    sim = Simulator(scenario, profile=True, collectors=collectors)
    sim.timings = peaks = PhasePeaks()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        peaks.entry = tracemalloc.get_traced_memory()[0]
        result = sim.run()
    finally:
        if started:
            tracemalloc.stop()
    return result, {k: v / MIB for k, v in peaks.peaks.items()}
